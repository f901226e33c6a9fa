"""Per-client token-bucket rate limiting for the experiment service.

The same shaping idea as :class:`repro.qdisc.tbf.TokenBucketFilter`,
re-applied at the admission layer: each client identity owns a bucket
of ``burst`` tokens refilled at ``rate`` tokens per second, and every
admission costs one token.  An empty bucket yields the *exact* time
until the next token -- which the server surfaces as ``Retry-After``,
so well-behaved clients back off precisely instead of hammering.

Buckets live in a bounded LRU table: one service instance can see an
unbounded stream of client identities, and an attacker must not be
able to grow server memory by inventing names.  Evicting a stale
bucket refills it implicitly, which only ever errs in the client's
favor.

Everything takes an injectable ``clock`` so tests are deterministic.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable

from ..errors import ConfigError, ReproError


class RateLimited(ReproError):
    """A client exceeded its admission rate.

    Attributes:
        retry_after_s: seconds until the next token is available.
    """

    def __init__(self, client: str, retry_after_s: float):
        self.client = client
        self.retry_after_s = retry_after_s
        super().__init__(
            f"client {client!r} rate limited; retry in "
            f"{retry_after_s:.1f}s")


class TokenBucket:
    """One client's bucket: ``burst`` capacity, ``rate`` tokens/s."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def acquire(self, now: float) -> float | None:
        """Try to spend one token at time ``now``.

        Returns ``None`` on success, else the seconds until a whole
        token will have accumulated (the bucket is left untouched).
        """
        elapsed = max(0.0, now - self.stamp)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        return (1.0 - self.tokens) / self.rate


class ClientRateLimiter:
    """Bounded LRU table of per-client token buckets.

    Args:
        rate: sustained admissions per second per client; ``<= 0``
            disables limiting entirely.
        burst: bucket capacity (back-to-back admissions a fresh or
            idle client gets before pacing kicks in).
        clock: monotonic time source (injectable for tests).
    """

    #: LRU bound on tracked identities.
    max_clients = 1024

    def __init__(self, rate: float = 2.0, burst: float = 10.0,
                 clock: Callable[[], float] = time.monotonic):
        if rate > 0 and burst < 1.0:
            raise ConfigError(f"burst must be >= 1: {burst}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def check(self, client: str) -> None:
        """Charge one admission to ``client``.

        Raises:
            RateLimited: when the client's bucket is empty; carries the
                precise retry-after delay.
        """
        if not self.enabled:
            return
        now = self._clock()
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, now)
            self._buckets[client] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        self._buckets.move_to_end(client)
        retry_after = bucket.acquire(now)
        if retry_after is not None:
            raise RateLimited(client, retry_after)

    def __len__(self) -> int:
        return len(self._buckets)
