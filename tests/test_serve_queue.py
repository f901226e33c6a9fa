"""Queue and rate-limit unit tests (no server, no sockets)."""

import asyncio

import pytest

from repro.errors import ConfigError
from repro.serve.limits import ClientRateLimiter, RateLimited, TokenBucket
from repro.serve.protocol import Job, JobRequest, JobState
from repro.serve.queue import (RETRY_AFTER_MAX, RETRY_AFTER_MIN, JobQueue,
                               QueueFull)


def _job(priority=5, tag="x"):
    req = JobRequest("pipeline", {"tag": tag}, priority=priority)
    return Job(request=req, key=req.fingerprint())


class TestJobQueue:
    def test_priority_order_fifo_within_priority(self):
        q = JobQueue(maxsize=10)
        first_low = _job(priority=7, tag="a")
        urgent = _job(priority=0, tag="b")
        second_low = _job(priority=7, tag="c")
        for job in (first_low, urgent, second_low):
            q.put_nowait(job)

        async def drain():
            return [await q.get() for _ in range(3)]

        got = asyncio.run(drain())
        assert got == [urgent, first_low, second_low]

    def test_queue_full(self):
        q = JobQueue(maxsize=2)
        q.put_nowait(_job(tag="a"))
        q.put_nowait(_job(tag="b"))
        with pytest.raises(QueueFull) as exc:
            q.put_nowait(_job(tag="c"))
        assert exc.value.depth == 2
        assert RETRY_AFTER_MIN <= exc.value.retry_after_s <= RETRY_AFTER_MAX

    def test_retry_after_tracks_observed_latency(self):
        q = JobQueue(maxsize=10, concurrency=1)
        for _ in range(20):
            q.observe_latency(60.0)  # EWMA converges toward 60s/job
        q.put_nowait(_job(tag="a"))
        q.put_nowait(_job(tag="b"))
        # ~3 jobs x ~60s each on one worker, clamped at the max
        assert q.retry_after() == RETRY_AFTER_MAX
        fast = JobQueue(maxsize=10, concurrency=4)
        for _ in range(20):
            fast.observe_latency(0.01)
        assert fast.retry_after() == RETRY_AFTER_MIN

    def test_get_skips_cancelled_jobs(self):
        q = JobQueue(maxsize=10)
        dead = _job(tag="dead")
        live = _job(tag="live")
        q.put_nowait(dead)
        q.put_nowait(live)
        dead.transition(JobState.CANCELLED, 0.0)

        async def one():
            return await q.get()

        assert asyncio.run(one()) is live

    def test_get_waits_for_put(self):
        q = JobQueue(maxsize=10)
        job = _job()

        async def scenario():
            getter = asyncio.ensure_future(q.get())
            await asyncio.sleep(0.01)
            assert not getter.done()
            q.put_nowait(job)
            return await asyncio.wait_for(getter, timeout=1.0)

        assert asyncio.run(scenario()) is job

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            JobQueue(maxsize=0)
        with pytest.raises(ConfigError):
            JobQueue(maxsize=1, concurrency=0)


class TestTokenBucket:
    def test_burst_then_paced(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert bucket.acquire(0.0) is None
        assert bucket.acquire(0.0) is None
        assert bucket.acquire(0.0) is None
        delay = bucket.acquire(0.0)
        assert delay == pytest.approx(0.5)  # 1 token / 2 per second
        # after the suggested wait, exactly one token is back
        assert bucket.acquire(delay) is None
        assert bucket.acquire(delay) is not None

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.acquire(0.0)
        bucket.acquire(0.0)
        # a long idle period refills to burst, not beyond
        assert bucket.acquire(100.0) is None
        assert bucket.acquire(100.0) is None
        assert bucket.acquire(100.0) is not None


class TestClientRateLimiter:
    def _limiter(self, **kwargs):
        self.now = 0.0
        kwargs.setdefault("clock", lambda: self.now)
        return ClientRateLimiter(**kwargs)

    def test_burst_exhaustion_raises_with_retry_after(self):
        limiter = self._limiter(rate=1.0, burst=2.0)
        limiter.check("alice")
        limiter.check("alice")
        with pytest.raises(RateLimited) as exc:
            limiter.check("alice")
        assert exc.value.retry_after_s == pytest.approx(1.0)
        # waiting the suggested delay makes the next admission pass
        self.now += exc.value.retry_after_s
        limiter.check("alice")

    def test_clients_are_independent(self):
        limiter = self._limiter(rate=1.0, burst=1.0)
        limiter.check("alice")
        limiter.check("bob")
        with pytest.raises(RateLimited):
            limiter.check("alice")

    def test_lru_bound(self):
        limiter = self._limiter(rate=1.0, burst=1.0)
        for i in range(ClientRateLimiter.max_clients):
            limiter.check(f"c{i}")
        limiter.check("b")  # evicts "c0"
        assert len(limiter) == ClientRateLimiter.max_clients == 1024
        limiter.check("c0")  # fresh bucket again: admission passes
        with pytest.raises(RateLimited):
            limiter.check("c0")

    def test_disabled(self):
        limiter = self._limiter(rate=0.0)
        assert not limiter.enabled
        for _ in range(100):
            limiter.check("anyone")

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            ClientRateLimiter(rate=1.0, burst=0.5)
        with pytest.raises(TypeError):
            ClientRateLimiter(max_clients=0)
