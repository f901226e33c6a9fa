"""Synthetic M-Lab NDT population.

The execution environment has no BigQuery access, so we substitute a
population model for the paper's one-month, 9,984-flow NDT query
(June 2023).  The model is calibrated to the measurement literature the
paper leans on:

* Araújo et al. (INFOCOM '14) [33]: "less than 40% of traffic was
  neither application-, host-, nor receiver-limited" -- so well over
  half the flows must be filtered by §3.1's app/receiver-limited rules.
* Flach et al. (SIGCOMM '16) [16]: traffic policing on ~7% of paths.
* §2.2: cellular is a large, variable-rate slice that §3.1 infers and
  removes.

Because the data is synthetic, each record carries hidden ground truth
(`true_class`, `true_contention`), letting experiments *validate* the
passive pipeline -- something the paper itself could not do.

Behaviour classes (defaults in :class:`PopulationModel`):

=================  ====================================================
``app_limited``     sender pauses (application pattern); AppLimited > 0
``rwnd_limited``    receive window caps throughput; RWndLimited > 0
``bulk_clean``      saturates the access link for the whole test
``bulk_contended``  a competing flow arrives/leaves mid-test: the
                    throughput level genuinely shifts (CCA contention)
``policed``         token-bucket policer: high burst rate, then a hard
                    drop to the policed rate -- a level shift *without*
                    contention (the §3.1 confounder)
=================  ====================================================

Cellular/satellite access adds random-walk rate variability on top of
any class, which is why §3.1 removes those flows first.

Scale: every flow is rendered from its **own** seed stream, derived
from the generator seed and the flow index (:class:`RngRegistry`
derivation).  Record ``i`` is therefore a pure function of
``(model, seed, i)`` -- independent of every other record -- which is
what makes the dataset streamable:
:meth:`~SyntheticNdtGenerator.generate_shard` regenerates any slice
in isolation (a worker on another machine can render flows
[start, start+count) without touching the rest), and
:meth:`~SyntheticNdtGenerator.generate` is the shard that starts at 0.
Only the draws are made flow by flow; a shard is rendered as one
``(flows, snapshots)`` array, and each field is one numpy operation
over it, converted with ``tolist()`` and handed to every record as a
tuple of plain ``int``/``float``.  Measured per flow (2-vCPU host, CPU
time, best of 9 over a 400-flow shard): stream derivation (SHA-256,
``SeedSequence``, ``PCG64``) 19 us, plan draws 16 us, rendering 38 us
including the flow's own noise draws and its record (81 us rendering
one flow at a time, 300 us as a per-snapshot loop) -- derivation and
plan are now half a record, and a shared counter-based stream would
change every record to save them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
# np.random is a lazy submodule: imported here, it is loaded before any
# pool fork instead of once in every child (DESIGN.md §10).
import numpy.random

from ..errors import ConfigError
from ..sim.rng import RngRegistry, _stream_seed
from ..units import mbps
from .schema import NdtDataset, NdtRecord

#: Access-plan mix: (rate in Mbit/s, probability), loosely following
#: the US broadband plan spread reported by Paul et al. [15].
DEFAULT_PLAN_MIX = (
    (25.0, 0.10), (50.0, 0.15), (100.0, 0.30), (200.0, 0.20),
    (500.0, 0.15), (940.0, 0.10),
)

DEFAULT_ACCESS_MIX = (
    ("cable", 0.30), ("fiber", 0.25), ("dsl", 0.10),
    ("wifi", 0.10), ("cellular", 0.22), ("satellite", 0.03),
)

#: Server-side CCA mix, calibrated to the content-provider fairness
#: study of Rüth et al. (PAPERS.md): CUBIC still carries the majority
#: of flows, BBR runs on roughly a fifth of the large providers that
#: dominate traffic, with a loss-based legacy remainder.  NDT servers
#: themselves run Cubic or BBR; "other" models CDN fronts with tuned
#: stacks.
DEFAULT_CCA_MIX = (
    ("cubic", 0.64), ("bbr", 0.22), ("reno", 0.09), ("other", 0.05),
)

#: Generation chunk size used when none is given.
DEFAULT_CHUNK_SIZE = 2000


@dataclass(frozen=True)
class PopulationModel:
    """Tunable parameters of the synthetic flow population."""

    class_mix: tuple[tuple[str, float], ...] = (
        ("app_limited", 0.45),
        ("rwnd_limited", 0.14),
        ("bulk_clean", 0.24),
        ("bulk_contended", 0.10),
        ("policed", 0.07),
    )
    plan_mix: tuple[tuple[float, float], ...] = DEFAULT_PLAN_MIX
    access_mix: tuple[tuple[str, float], ...] = DEFAULT_ACCESS_MIX
    cca_mix: tuple[tuple[str, float], ...] = DEFAULT_CCA_MIX
    test_duration: float = 10.0
    snapshot_interval: float = 0.25
    throughput_noise: float = 0.04     # relative per-snapshot noise
    cellular_volatility: float = 0.25  # random-walk sigma per sqrt(s)

    def __post_init__(self):
        for mix_name in ("class_mix", "plan_mix", "access_mix",
                         "cca_mix"):
            probs = [p for _, p in getattr(self, mix_name)]
            if abs(sum(probs) - 1.0) > 1e-9:
                raise ConfigError(f"{mix_name} probabilities must sum to 1")


def _cdf_table(mix) -> tuple[list, list[float]]:
    """(values, normalised CDF) of a mix, built once per generator."""
    cdf = np.cumsum([p for _, p in mix])
    cdf /= cdf[-1]
    return [v for v, _ in mix], cdf.tolist()


def _choice(rng: np.random.Generator, table):
    """One draw from a :func:`_cdf_table`: a uniform bisected into the
    CDF, which is what ``Generator.choice(n, p=...)`` does once it has
    validated ``p`` -- same stream, same draw, same value."""
    values, cdf = table
    return values[bisect_right(cdf, rng.random())]


@dataclass
class _FlowPlan:
    """One flow's draws, before its shard renders it.

    The rate is a two-level ``step`` ``(hi, lo, t_in, t_out, leaves)``:
    ``hi`` until ``t_in``, then ``lo`` -- and ``hi`` again from
    ``t_out`` if the flow ``leaves`` -- so one ``np.where`` renders the
    shapes of a whole shard.  A constant class has ``hi == lo``.
    """

    access_type: str
    access_rate: float       # bytes/second
    behaviour: str
    min_rtt: float
    cca: str = "cubic"
    contention: bool = False
    step: tuple = ()         # goodput bytes/s: (hi, lo, t_in, t_out, leaves)
    app_limited_frac: float = 0.0
    rwnd_limited_frac: float = 0.0


def _rows(matrix: np.ndarray) -> list[tuple]:
    """Each row of ``matrix`` as a tuple of plain Python numbers."""
    return list(map(tuple, matrix.tolist()))


class SyntheticNdtGenerator:
    """Generate an :class:`NdtDataset` from a :class:`PopulationModel`.

    >>> gen = SyntheticNdtGenerator(seed=1)
    >>> ds = gen.generate(100)
    >>> len(ds)
    100
    """

    def __init__(self, model: PopulationModel | None = None, seed: int = 0):
        self.model = model if model is not None else PopulationModel()
        self.rngs = RngRegistry(seed)
        self._mixes = {name: _cdf_table(getattr(self.model, name))
                       for name in ("access_mix", "plan_mix", "class_mix",
                                    "cca_mix")}

    # -- per-class rate shapes ----------------------------------------------

    def _plan_flow(self, rng: np.random.Generator) -> _FlowPlan:
        mixes = self._mixes
        access_type = _choice(rng, mixes["access_mix"])
        if access_type == "cellular":
            rate = mbps(float(rng.uniform(5, 150)))
        elif access_type == "satellite":
            rate = mbps(float(rng.uniform(20, 200)))
        else:
            rate = mbps(float(_choice(rng, mixes["plan_mix"])))
        behaviour = _choice(rng, mixes["class_mix"])
        cca = _choice(rng, mixes["cca_mix"])
        min_rtt = float(rng.lognormal(np.log(0.030), 0.6))
        min_rtt = min(max(min_rtt, 0.004), 0.4)
        plan = _FlowPlan(access_type=access_type, access_rate=rate,
                         behaviour=behaviour, min_rtt=min_rtt, cca=cca)
        builder = getattr(self, f"_build_{behaviour}")
        builder(plan, rng)
        return plan

    def _build_app_limited(self, plan: _FlowPlan,
                           rng: np.random.Generator) -> None:
        demand = plan.access_rate * float(rng.uniform(0.05, 0.6))
        plan.step = (demand, demand, 0.0, 0.0, False)
        plan.app_limited_frac = float(rng.uniform(0.2, 0.9))

    def _build_rwnd_limited(self, plan: _FlowPlan,
                            rng: np.random.Generator) -> None:
        # Throughput capped at rwnd / rtt, below the access rate.
        cap = plan.access_rate * float(rng.uniform(0.1, 0.7))
        plan.step = (cap, cap, 0.0, 0.0, False)
        plan.rwnd_limited_frac = float(rng.uniform(0.3, 0.95))

    def _build_bulk_clean(self, plan: _FlowPlan,
                          rng: np.random.Generator) -> None:
        level = plan.access_rate * float(rng.uniform(0.9, 0.97))
        plan.step = (level, level, 0.0, 0.0, False)

    def _build_bulk_contended(self, plan: _FlowPlan,
                              rng: np.random.Generator) -> None:
        # A competing flow arrives (and possibly leaves): the NDT flow
        # drops to a contended share, then maybe recovers.  BBR senders
        # hold more than half the link against loss-based cross traffic
        # (Rüth et al.); no share exceeds 70% of line rate, so every
        # contended drop clears the detector's 25% relative-shift floor
        # and recall measures the filters, not the share draw.
        m = self.model
        full = plan.access_rate * float(rng.uniform(0.9, 0.97))
        if plan.cca == "bbr":
            share = full * float(rng.uniform(0.45, 0.70))
        else:
            share = full * float(rng.uniform(0.30, 0.60))
        t_in = float(rng.uniform(0.15, 0.6)) * m.test_duration
        leaves = rng.random() < 0.4
        t_out = t_in + float(rng.uniform(0.25, 0.8)) \
            * (m.test_duration - t_in)
        plan.contention = True
        plan.step = (full, share, t_in, t_out, leaves)

    def _build_policed(self, plan: _FlowPlan,
                       rng: np.random.Generator) -> None:
        # Flach-style policer: line rate until the bucket empties, then
        # a hard drop to the policed rate.  A level shift with NO
        # contention.
        m = self.model
        policed = plan.access_rate * float(rng.uniform(0.1, 0.4))
        burst_until = float(rng.uniform(0.1, 0.4)) * m.test_duration

        full = plan.access_rate * 0.95
        plan.step = (full, policed, burst_until, burst_until, False)

    # -- streaming generation ------------------------------------------------

    def _flow_rng(self, index: int) -> np.random.Generator:
        """The private RNG of flow ``index``.

        Derived from (seed, index) alone, so flow ``index`` is the same
        record no matter which chunk, shard, process, or machine
        renders it.
        """
        return np.random.default_rng(
            _stream_seed(self.rngs.seed, f"flow:{index}"))

    def generate_shard(self, start: int, count: int) -> NdtDataset:
        """Generate records [start, start+count) in isolation.

        One loop makes each flow's own draws, in its stream's order
        (plan, cellular steps, noise, smoothed-RTT factor); everything
        after the draws is one numpy operation over the ``(count, n)``
        shard, along the snapshot axis, so no row depends on another.
        """
        if start < 0:
            raise ConfigError(f"shard start must be >= 0: {start}")
        if count <= 0:
            raise ConfigError(f"shard count must be positive: {count}")
        m = self.model
        n = int(round(m.test_duration / m.snapshot_interval))
        times = (np.arange(n) + 1) * m.snapshot_interval
        volatility = m.cellular_volatility * np.sqrt(m.snapshot_interval)
        plans, srtts = [], []
        # A fixed-line flow draws no steps: its wobble is exp(0) / 1.
        steps = np.zeros((count, n))
        noise = np.empty((count, n))
        for row in range(count):
            rng = self._flow_rng(start + row)
            plan = self._plan_flow(rng)
            if plan.access_type in ("cellular", "satellite"):
                steps[row] = rng.normal(0.0, volatility, n)
            noise[row] = rng.normal(0.0, m.throughput_noise, n)
            srtts.append(plan.min_rtt * float(rng.uniform(1.05, 1.8)))
            plans.append(plan)

        hi, lo, t_in, t_out, leaves = (
            np.array(column)[:, None]
            for column in zip(*(plan.step for plan in plans)))
        inst = np.where((times < t_in) | (leaves & (times >= t_out)),
                        hi, lo)
        # Cellular/satellite rate variability multiplies the base shape.
        wobble = np.exp(np.cumsum(steps, axis=1))
        wobble /= wobble.mean(axis=1, keepdims=True)
        inst *= wobble
        inst *= 1.0 + noise
        inst = np.maximum(inst, 1000.0)
        acked = np.cumsum(inst * m.snapshot_interval, axis=1).astype(int)

        # One row per record of each ``TcpInfoSnapshot`` field (the IEEE
        # operations a per-snapshot expression would do, in its order),
        # converted to Python numbers once; a column no flow varies is
        # one tuple that every record shares.
        elapsed_us = tuple((times * 1e6).tolist())
        no_cwnd_limit = (0.0,) * n
        retrans = acked * 0.002
        rwnd_frac = np.array([p.rwnd_limited_frac for p in plans])[:, None]
        app_frac = np.array([p.app_limited_frac for p in plans])[:, None]
        varying = zip(_rows(acked), _rows((acked * 1.01).astype(int)),
                      _rows(retrans.astype(int)),
                      _rows(times * rwnd_frac * 1e6),
                      _rows(times * app_frac * 1e6), _rows(inst),
                      _rows((retrans / 1448).astype(int)))
        records = []
        for row, (plan, srtt, (bytes_acked, bytes_sent, bytes_retrans,
                               rwnd_us, app_us, throughput,
                               retransmits)) in enumerate(
                zip(plans, srtts, varying)):
            records.append(NdtRecord(
                uuid=f"synth-{start + row:08d}",
                duration_s=m.test_duration,
                access_type=plan.access_type,
                access_rate_bps=plan.access_rate,
                columns=(elapsed_us, bytes_acked, bytes_sent, bytes_retrans,
                         elapsed_us,                      # busy_time_us
                         rwnd_us, app_us, no_cwnd_limit,
                         (plan.min_rtt,) * n, (srtt,) * n,
                         throughput, retransmits),
                true_class=plan.behaviour,
                true_contention=plan.contention,
                cca=plan.cca,
            ))
        return NdtDataset(
            records=records,
            description=(f"synthetic NDT shard [{start}, "
                         f"{start + count}), seed={self.rngs.seed}"))

    def generate(self, n_flows: int) -> NdtDataset:
        """Generate ``n_flows`` records (the paper used 9,984)."""
        return self.generate_shard(0, n_flows)
