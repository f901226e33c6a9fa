"""Cluster membership: a static node list with liveness probing.

The fabric is deliberately coordinator-centric (no gossip, no
consensus): the operator names the ``repro serve`` nodes on the
command line (``--cluster host1:8765,host2:8765``), and the
coordinator probes each node's ``/healthz`` to decide who gets work.

A node that fails a probe (or a dispatch) is marked **down** with
exponential backoff: the first failure suspends it for
:data:`BACKOFF_BASE_S` seconds, each consecutive failure doubles the
suspension up to :data:`BACKOFF_MAX_S`, and a successful probe resets the
counter.  Dead nodes therefore cost one cheap connect-timeout every
backoff window instead of stalling the dispatch loop, and a restarted
node rejoins within a single window.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from ..errors import ConfigError
from ..obs.metrics import REGISTRY as _METRICS
from ..serve.client import ServeClient, ServeError

#: Default serve port (mirrors ``repro serve``).
DEFAULT_PORT = 8765

#: Connect / read timeouts for probe and dispatch requests -- short,
#: because a hung node must cost the coordinator a bounded beat, not a
#: job lifetime (the ServeClient read timeout covers only the HTTP
#: exchange; job execution is awaited by *polling*, never blocking).
CONNECT_TIMEOUT_S = 2.0
READ_TIMEOUT_S = 10.0

#: How often a live node is re-probed (seconds).
PROBE_INTERVAL_S = 5.0

#: The mark-down schedule: the first failure suspends a node this long,
#: each consecutive one doubles it, up to :data:`BACKOFF_MAX_S`.
BACKOFF_BASE_S = 0.5
BACKOFF_MAX_S = 30.0


def parse_cluster(spec: str | Sequence[str]) -> list[tuple[str, int]]:
    """Parse ``"host1:8765,host2"`` into ``(host, port)`` pairs.

    Accepts a comma-separated string or a sequence of ``host[:port]``
    entries; the port defaults to :data:`DEFAULT_PORT`.
    """
    if isinstance(spec, str):
        entries = [e.strip() for e in spec.split(",")]
    else:
        entries = [str(e).strip() for e in spec]
    entries = [e for e in entries if e]
    if not entries:
        raise ConfigError(f"empty cluster spec: {spec!r}")
    nodes: list[tuple[str, int]] = []
    for entry in entries:
        host, sep, port_s = entry.rpartition(":")
        if not sep:
            host, port_s = entry, str(DEFAULT_PORT)
        try:
            port = int(port_s)
        except ValueError:
            raise ConfigError(f"bad cluster node {entry!r}: port must "
                              f"be an integer")
        if not host or not 0 < port < 65536:
            raise ConfigError(f"bad cluster node {entry!r}")
        pair = (host, port)
        if pair not in nodes:
            nodes.append(pair)
    return nodes


def _metric_name(host: str, port: int) -> str:
    """A registry-safe per-node label (``host-port``)."""
    safe = "".join(c if c.isalnum() or c in "._-" else "-"
                   for c in host)
    return f"{safe}-{port}"


class Node:
    """One serve node and its liveness state."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.name = f"{host}:{port}"
        self.metric_name = _metric_name(host, port)
        self.up = False
        self.draining = False
        self.failures = 0          # consecutive probe/transport failures
        self.next_probe = 0.0      # earliest next probe (clock units)
        self.busy_until = 0.0      # 429 backpressure window
        self.last_health: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else f"down(x{self.failures})"
        return f"Node({self.name} {state})"


class Membership:
    """Probed liveness over a static node list.

    Args:
        nodes: ``(host, port)`` pairs (see :func:`parse_cluster`).
        probe: ``fn(node) -> healthz dict``; raises on failure.  The
            default builds a short-timeout :class:`ServeClient` and
            calls ``/healthz``.  Injectable for tests.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, nodes: Sequence[tuple[str, int]],
                 probe: Callable[[Node], dict] | None = None,
                 clock: Callable[[], float] = time.monotonic):
        if not nodes:
            raise ConfigError("a cluster needs at least one node")
        self.nodes = [Node(host, port) for host, port in nodes]
        self.clock = clock
        self.probe = probe if probe is not None else self._default_probe
        self._metrics = _METRICS.scoped("cluster")

    @staticmethod
    def _default_probe(node: Node) -> dict:
        with ServeClient(node.host, node.port, timeout=READ_TIMEOUT_S,
                         connect_timeout=CONNECT_TIMEOUT_S,
                         client_id="cluster-coordinator") as client:
            return client.healthz()

    # -- state transitions -----------------------------------------------

    def mark_down(self, node: Node) -> None:
        """One more consecutive failure: suspend with exponential
        backoff (0.5s, 1s, 2s, ... capped at :data:`BACKOFF_MAX_S`)."""
        node.failures += 1
        node.up = False
        delay = min(BACKOFF_MAX_S,
                    BACKOFF_BASE_S * 2 ** (node.failures - 1))
        node.next_probe = self.clock() + delay
        self._metrics.counter(
            f"node.{node.metric_name}.marked_down").inc()

    def mark_up(self, node: Node, health: dict | None = None) -> None:
        node.failures = 0
        node.up = True
        node.draining = bool((health or {}).get("status") == "draining")
        node.last_health = dict(health or {})
        node.next_probe = self.clock() + PROBE_INTERVAL_S

    # -- probing ---------------------------------------------------------

    def tick(self) -> None:
        """Probe every node whose probe (or backoff) timer expired."""
        now = self.clock()
        for node in self.nodes:
            if now < node.next_probe:
                continue
            try:
                health = self.probe(node)
            except ServeError:
                self.mark_down(node)
                continue
            except Exception:
                self.mark_down(node)
                continue
            self.mark_up(node, health)
            self._metrics.counter(
                f"node.{node.metric_name}.probes_ok").inc()

    def live(self) -> list[Node]:
        """Nodes currently accepting work (up and not draining)."""
        return [n for n in self.nodes if n.up and not n.draining]

    def status(self) -> list[dict]:
        """One status row per node (``repro cluster status``)."""
        now = self.clock()
        return [{
            "node": n.name,
            "state": ("draining" if n.up and n.draining
                      else "up" if n.up else "down"),
            "consecutive_failures": n.failures,
            "retry_in_s": max(0.0, n.next_probe - now) if not n.up
            else 0.0,
            "health": dict(n.last_health),
        } for n in self.nodes]
