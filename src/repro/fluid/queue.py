"""Fluid bottleneck models for the eight qdisc archetypes.

The workhorse is :class:`FifoBottleneck`: arrivals are stored as
per-tick *cohorts* (one float per flow) and service drains
cohorts strictly in order, so the service composition at time ``t``
equals the arrival composition at time ``t - queue_delay`` -- the
property that makes the Nimbus ẑ estimator read the *cross* arrival
rate rather than an echo of the probe's own pulse.  Tail drop removes
bytes from the newest (arriving) cohort, which is exactly what a
droptail queue does.

Fair queueing (``fq``/``sfq``) keeps per-flow backlogs and serves them
by water-filling; shapers (``tbf``/``policer``) run the FIFO at 90% of
the link rate, matching :func:`repro.qa.scenario.build_qdisc`; ``htb``
with a single active class borrows up to the full rate and degenerates
to FIFO.  AQMs (``red``/``codel``) layer early-drop/mark signals on
the FIFO.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigError
from ..medium.bianchi import airtime_shares, expected_service_time
from ..medium.config import MediumSpec
from ..units import DEFAULT_PACKET_SIZE, ordered_sum

# Every ``tick(arrivals, dt)`` takes one float of arriving bytes per
# flow and returns ``(served, dropped, marked, delays)``, each one
# float per flow.  A model holds at most six flows, where plain lists
# beat numpy vectors several times over.  A tick does only arithmetic,
# bit-identical to the plain loop by DESIGN.md section 7's rules.


class FifoBottleneck:
    """Shared FIFO with cohort-accurate composition delay.

    Args:
        n_flows: number of flows (cohort length).
        rate: service rate (bytes/second).
        buffer_bytes: tail-drop limit on total backlog.
    """

    def __init__(self, n_flows: int, rate: float, buffer_bytes: float):
        if rate <= 0 or buffer_bytes <= 0:
            raise ConfigError("need positive rate and buffer")
        self.n = n_flows
        self.rate = rate
        self.buffer_bytes = buffer_bytes
        # (size, bytes per flow, scale): each flow's bytes are b * scale,
        # multiplied out when next served (b * 1.0 is b).
        self._cohorts: deque[tuple[float, list[float], float]] = deque()
        self._zeros = (0.0,) * n_flows
        self.backlog = 0.0
        self.accepted_bytes = 0.0
        self.served_bytes = 0.0
        self.dropped_bytes = 0.0
        self.marked_bytes = 0.0
        # Only a class that overrides the hook early-drops or marks.
        self._early = (type(self)._early_action
                       is not FifoBottleneck._early_action)

    # Subclass hook: fraction of the ``total_in`` arriving bytes to
    # early-drop (RED) or an ECN share to mark; the base FIFO never
    # early-drops.
    def _early_action(self, total_in: float, dt: float
                      ) -> tuple[float, float]:
        return 0.0, 0.0

    def tick(self, arrivals: list[float], dt: float):
        dropped = marked = served = zeros = self._zeros
        backlog = self.backlog
        total_in = 0.0
        for a in arrivals:
            total_in += a
        if total_in > 0.0:
            accepted = arrivals
            if self._early:
                drop_frac, mark_frac = self._early_action(total_in, dt)
                if mark_frac > 0.0:
                    marked = [a * mark_frac for a in arrivals]
                    self.marked_bytes += total_in * mark_frac
                if drop_frac > 0.0:
                    dropped = [a * drop_frac for a in arrivals]
                    accepted = [a * (1.0 - drop_frac) for a in arrivals]
                    total_in = ordered_sum(accepted)
            # Tail drop: whatever exceeds the buffer comes out of the
            # arriving cohort, proportionally across its flows.
            space = self.buffer_bytes - backlog
            if total_in > space:
                keep = (space if space > 0.0 else 0.0) / total_in
                dropped = [d + a * (1.0 - keep)
                           for d, a in zip(dropped, accepted)]
                accepted = [a * keep for a in accepted]
                total_in = ordered_sum(accepted)
            if total_in > 0.0:
                self._cohorts.append((total_in, accepted, 1.0))
                backlog += total_in
                self.accepted_bytes += total_in
            if dropped is not zeros:
                self.dropped_bytes += ordered_sum(dropped)

        # ``served`` starts as the zeros: a first share is 0.0 + c.
        budget = self.rate * dt
        cohorts = self._cohorts
        while budget > 1e-9 and cohorts:
            size, cohort, scale = cohorts[0]
            if size <= budget:
                served = [s + c * scale for s, c in zip(served, cohort)]
                budget -= size
                backlog -= size
                cohorts.popleft()
            else:
                if scale != 1.0:
                    cohort = [c * scale for c in cohort]
                frac = budget / size
                served = [s + c * frac for s, c in zip(served, cohort)]
                cohorts[0] = (size - budget, cohort, 1.0 - frac)
                backlog -= budget
                budget = 0.0
        self.backlog = backlog = backlog if backlog > 0.0 else 0.0
        total_out = 0.0
        for s in served:
            total_out += s
        self.served_bytes += total_out
        return served, dropped, marked, [backlog / self.rate] * self.n


class RedBottleneck(FifoBottleneck):
    """FIFO plus RED-style early drop/mark on an EWMA of occupancy."""

    def __init__(self, n_flows: int, rate: float, buffer_bytes: float,
                 ecn: bool = False):
        super().__init__(n_flows, rate, buffer_bytes)
        self.min_thresh = buffer_bytes / 4.0
        self.max_thresh = 3.0 * buffer_bytes / 4.0
        self.max_p = 0.1
        self.ecn = ecn
        self._avg = 0.0

    def _early_action(self, total_in: float, dt: float
                      ) -> tuple[float, float]:
        self._avg += 0.1 * (self.backlog - self._avg)
        if self._avg <= self.min_thresh:
            return 0.0, 0.0
        if self._avg >= self.max_thresh:
            p = self.max_p
        else:
            p = self.max_p * ((self._avg - self.min_thresh)
                              / (self.max_thresh - self.min_thresh))
        return (0.0, p) if self.ecn else (p, 0.0)


class CodelBottleneck(FifoBottleneck):
    """FIFO plus CoDel-style drops while sojourn exceeds the target."""

    TARGET = 0.005
    INTERVAL = 0.1

    def __init__(self, n_flows: int, rate: float, buffer_bytes: float):
        super().__init__(n_flows, rate, buffer_bytes)
        self._above_since: float | None = None
        self._drops = 0
        self._clock = 0.0

    def _early_action(self, total_in: float, dt: float
                      ) -> tuple[float, float]:
        self._clock += dt
        sojourn = self.backlog / self.rate
        if sojourn <= self.TARGET:
            self._above_since = None
            self._drops = 0
            return 0.0, 0.0
        if self._above_since is None:
            self._above_since = self._clock
            return 0.0, 0.0
        interval = self.INTERVAL / max(1.0, self._drops) ** 0.5
        if self._clock - self._above_since >= interval:
            self._above_since = self._clock
            self._drops += 1
            # Drop roughly one packet's worth out of this tick.
            return min(1.0, DEFAULT_PACKET_SIZE / total_in), 0.0
        return 0.0, 0.0


class FairBottleneck:
    """Per-flow queues served by water-filling (``fq``/``sfq``).

    Composition delay is per-flow and, for an isolated flow, identical
    to a FIFO of its own backlog, so the probe's ẑ alignment carries
    over with the flow's own queue delay: each flow's delay is its
    backlog's sojourn at its recent (smoothed) service rate.
    """

    def __init__(self, n_flows: int, rate: float, buffer_bytes: float):
        if rate <= 0 or buffer_bytes <= 0:
            raise ConfigError("need positive rate and buffer")
        self.n = n_flows
        self.rate = rate
        self.buffer_bytes = buffer_bytes
        self.queues = [0.0] * n_flows
        self._zeros = (0.0,) * n_flows
        self._svc_smoothed = [0.0] * n_flows
        self.accepted_bytes = 0.0
        self.served_bytes = 0.0
        self.dropped_bytes = 0.0
        self.marked_bytes = 0.0

    @property
    def backlog(self) -> float:
        return ordered_sum(self.queues)

    def tick(self, arrivals: list[float], dt: float):
        queues = self.queues
        dropped = self._zeros
        for i, arrived in enumerate(arrivals):
            queues[i] += arrived
        self.accepted_bytes += ordered_sum(arrivals)
        # Overflow drops from the longest queue (DRR semantics).
        overflow = ordered_sum(queues) - self.buffer_bytes
        if overflow > 1e-9:
            dropped = [0.0] * self.n
            while overflow > 1e-9:
                i = queues.index(max(queues))
                cut = min(overflow, queues[i])
                queues[i] -= cut
                dropped[i] += cut
                overflow -= cut
            drop_total = ordered_sum(dropped)
            self.dropped_bytes += drop_total
            self.accepted_bytes -= drop_total

        served = [0.0] * self.n
        budget = self.rate * dt
        # A queue a round empties stays empty: each round serves the
        # previous round's still-active queues.
        active = [i for i, q in enumerate(queues) if q > 1e-9]
        while budget > 1e-9 and active:
            share = budget / len(active)
            spent = 0.0
            for i in active:
                q = queues[i]
                take = share if share < q else q
                queues[i] = q - take
                served[i] += take
                spent += take
            if spent <= 1e-12:
                break
            budget -= spent
            active = [i for i in active if queues[i] > 1e-9]
        self.served_bytes += ordered_sum(served)
        recent = self._svc_smoothed
        for i, got in enumerate(served):
            recent[i] += 0.2 * (got / dt - recent[i])
        delays = [q / r if r > 0.0 else 0.0 for q, r in zip(queues, recent)]
        return served, dropped, self._zeros, delays


class PolicerBottleneck:
    """Rate policer: no queue, excess arrivals are dropped."""

    def __init__(self, n_flows: int, rate: float):
        if rate <= 0:
            raise ConfigError("need positive rate")
        self.n = n_flows
        self.rate = rate
        self._zeros = (0.0,) * n_flows
        self.backlog = 0.0
        self.accepted_bytes = 0.0
        self.served_bytes = 0.0
        self.dropped_bytes = 0.0
        self.marked_bytes = 0.0

    def tick(self, arrivals: list[float], dt: float):
        total = ordered_sum(arrivals)
        budget = self.rate * dt
        served, dropped = arrivals, self._zeros
        if total > budget:
            keep = budget / total
            served = [a * keep for a in arrivals]
            dropped = [a * (1.0 - keep) for a in arrivals]
            self.dropped_bytes += ordered_sum(dropped)
        got = ordered_sum(served)
        self.accepted_bytes += got
        self.served_bytes += got
        return served, dropped, self._zeros, self._zeros


class ContentionBottleneck:
    """Bianchi-style shared-medium airtime model (the fluid MAC).

    Flows are assigned to ``spec.n_stations`` stations round-robin by
    flow index (matching the packet backend's first-appearance
    order).  Each tick:

    1. Arrivals join per-flow backlogs; each *station's* backlog is
       tail-dropped at ``buffer_bytes`` (per-station buffers, matching
       the packet side's per-station qdiscs).
    2. The set of backlogged stations is the *active* contention set;
       :func:`repro.medium.bianchi.airtime_shares` for their access
       classes gives each a saturation airtime cap.  Unused capacity
       from under-loaded stations is water-filled back to the rest --
       idle stations do not burn airtime they are not contending for.
    3. Per-flow contention delay is the station's backlog sojourn at
       its airtime cap plus the Bianchi expected MAC service time for
       the active set -- the head-of-line access delay a sender feels
       even with an empty queue, which is exactly the feedback-shape
       difference from a FIFO that E16 measures.

    The per-active-set Bianchi solve is cached, so steady states cost
    one dict lookup per tick.
    """

    def __init__(self, n_flows: int, rate: float, buffer_bytes: float,
                 spec: MediumSpec):
        if rate <= 0 or buffer_bytes <= 0:
            raise ConfigError("need positive rate and buffer")
        self.n = n_flows
        self.rate = rate
        self.buffer_bytes = buffer_bytes
        self.spec = spec
        # Flow indices per station, ascending; stations past the last
        # flow carry nothing and never contend.
        self._members = [list(range(s, n_flows, spec.n_stations))
                         for s in range(min(n_flows, spec.n_stations))]
        self.queues = [0.0] * n_flows
        self._zeros = (0.0,) * n_flows
        self.accepted_bytes = 0.0
        self.served_bytes = 0.0
        self.dropped_bytes = 0.0
        self.marked_bytes = 0.0
        self._payload_time = DEFAULT_PACKET_SIZE / rate
        self._share_cache: dict[tuple, tuple] = {}

    @property
    def backlog(self) -> float:
        return ordered_sum(self.queues)

    def _solve(self, active: tuple[int, ...]) -> tuple:
        """(per-active-station rate caps, MAC access delay) -- cached."""
        cached = self._share_cache.get(active)
        if cached is None:
            classes = [self.spec.station_class(s) for s in active]
            shares = airtime_shares(classes, self._payload_time)
            caps = tuple(share * self.rate for share in shares)
            access = tuple(
                expected_service_time(classes, self._payload_time,
                                      station=k)
                for k in range(len(active)))
            cached = (caps, access)
            self._share_cache[active] = cached
        return cached

    def tick(self, arrivals: list[float], dt: float):
        queues, members, limit = self.queues, self._members, self.buffer_bytes
        for i, arrived in enumerate(arrivals):
            queues[i] += arrived
        self.accepted_bytes += ordered_sum(arrivals)
        backlogs = [ordered_sum([queues[i] for i in flows])
                    for flows in members]
        # Per-station tail drop, proportional across the station's flows;
        # ``held`` is what each station's queues then sum to.
        dropped, held = self._zeros, backlogs
        for s, backlog in enumerate(backlogs):
            if backlog > limit:
                if dropped is self._zeros:
                    dropped, held = [0.0] * self.n, list(backlogs)
                keep = limit / backlog
                for i in members[s]:
                    dropped[i] += queues[i] * (1.0 - keep)
                    queues[i] *= keep
                held[s] = ordered_sum([queues[i] for i in members[s]])
                backlogs[s] = backlog - (backlog - limit)
        if dropped is not self._zeros:
            drop_total = ordered_sum(dropped)
            self.dropped_bytes += drop_total
            self.accepted_bytes -= drop_total

        served = [0.0] * self.n
        delays = [0.0] * self.n
        active = tuple(s for s, b in enumerate(backlogs) if b > 1e-9)
        if active:
            caps, access = self._solve(active)
            waiting = [backlogs[s] for s in active]
            budgets = [cap * dt for cap in caps]
            # Water-fill: capacity a station cannot use goes back to
            # the still-backlogged ones in proportion to their shares.
            for _ in active:
                spare = weight_sum = 0.0
                busy = []
                for k, budget in enumerate(budgets):
                    wait = waiting[k]
                    hungry = wait > budget + 1e-9
                    busy.append(hungry)
                    if hungry:
                        weight_sum += caps[k]
                    spare += budget - (budget if budget < wait else wait)
                if spare <= 1e-9 or True not in busy:
                    break
                budgets = [budget + spare * cap / weight_sum if hungry
                           else (wait if wait < budget else budget)
                           for budget, cap, wait, hungry
                           in zip(budgets, caps, waiting, busy)]
            for k, s in enumerate(active):
                station_q, budget, cap = held[s], budgets[k], caps[k]
                take = budget if budget < station_q else station_q
                frac = take / station_q
                # Sojourn at the station's cap plus MAC access delay.
                delay = ((station_q - take) / (1e-9 if 1e-9 > cap else cap)
                         + access[k])
                for i in members[s]:
                    served[i] = queues[i] * frac
                    queues[i] *= 1.0 - frac
                    delays[i] = delay
        self.served_bytes += ordered_sum(served)
        return served, dropped, self._zeros, delays


def build_bottleneck(qdisc: str, n_flows: int, rate: float,
                     buffer_bytes: float, ecn: bool = False,
                     medium: MediumSpec | None = None):
    """Fluid bottleneck for one :data:`repro.qa.scenario.QDISC_NAMES`
    entry.  Returns ``(bottleneck, effective_rate)``.

    When ``medium`` names a CSMA/CA spec the bottleneck is a
    :class:`ContentionBottleneck` regardless of ``qdisc``: the fluid
    contention model approximates every per-station discipline as a
    tail-dropped buffer (AQM/shaper dynamics inside one station are
    second-order next to airtime arbitration; the packet backend keeps
    the full per-station qdisc and the agreement oracle bounds the
    gap).
    """
    if medium is not None:
        return ContentionBottleneck(n_flows, rate, buffer_bytes,
                                    medium), rate
    if qdisc in ("droptail", "htb"):
        return FifoBottleneck(n_flows, rate, buffer_bytes), rate
    if qdisc == "red":
        return RedBottleneck(n_flows, rate, buffer_bytes, ecn=ecn), rate
    if qdisc == "codel":
        return CodelBottleneck(n_flows, rate, buffer_bytes), rate
    if qdisc in ("fq", "sfq"):
        return FairBottleneck(n_flows, rate, buffer_bytes), rate
    if qdisc == "tbf":
        eff = 0.9 * rate
        return FifoBottleneck(n_flows, eff, buffer_bytes), eff
    if qdisc == "policer":
        eff = 0.9 * rate
        return PolicerBottleneck(n_flows, eff), eff
    raise ConfigError(f"no fluid model for qdisc {qdisc!r}")
