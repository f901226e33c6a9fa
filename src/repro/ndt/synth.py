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
Measured per flow (2-vCPU host): stream derivation (SHA-256,
``SeedSequence``, ``PCG64``) 11 us, plan draws 8 us (30 us while
``Generator.choice`` re-validated ``p`` per draw), rendering 36 us (300
us as a per-snapshot loop, ~105 us while it built 40 frozen snapshot
objects) -- a shared counter-based stream would change every record to
save a fifth.  Each field is one numpy column, converted with
``tolist()`` and kept as the record's column of plain ``int``/``float``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

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
    """Intermediate per-flow draw before rendering snapshots."""

    access_type: str
    access_rate: float       # bytes/second
    behaviour: str
    min_rtt: float
    cca: str = "cubic"
    contention: bool = False
    rate_fn: object = None   # fn(times array) -> goodput bytes/s each
    app_limited_frac: float = 0.0
    rwnd_limited_frac: float = 0.0


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
        plan.rate_fn = lambda t: np.full(t.shape, demand)
        plan.app_limited_frac = float(rng.uniform(0.2, 0.9))

    def _build_rwnd_limited(self, plan: _FlowPlan,
                            rng: np.random.Generator) -> None:
        # Throughput capped at rwnd / rtt, below the access rate.
        cap = plan.access_rate * float(rng.uniform(0.1, 0.7))
        plan.rate_fn = lambda t: np.full(t.shape, cap)
        plan.rwnd_limited_frac = float(rng.uniform(0.3, 0.95))

    def _build_bulk_clean(self, plan: _FlowPlan,
                          rng: np.random.Generator) -> None:
        level = plan.access_rate * float(rng.uniform(0.9, 0.97))
        plan.rate_fn = lambda t: np.full(t.shape, level)

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

        plan.rate_fn = lambda t: np.where(
            (t < t_in) | (leaves & (t >= t_out)), full, share)

    def _build_policed(self, plan: _FlowPlan,
                       rng: np.random.Generator) -> None:
        # Flach-style policer: line rate until the bucket empties, then
        # a hard drop to the policed rate.  A level shift with NO
        # contention.
        m = self.model
        policed = plan.access_rate * float(rng.uniform(0.1, 0.4))
        burst_until = float(rng.uniform(0.1, 0.4)) * m.test_duration

        full = plan.access_rate * 0.95
        plan.rate_fn = lambda t: np.where(t < burst_until, full, policed)

    # -- rendering -----------------------------------------------------------

    def _render(self, plan: _FlowPlan, uuid: str,
                rng: np.random.Generator) -> NdtRecord:
        m = self.model
        n = int(round(m.test_duration / m.snapshot_interval))
        times = (np.arange(n) + 1) * m.snapshot_interval

        inst = plan.rate_fn(times)
        # Cellular/satellite rate variability multiplies the base shape.
        if plan.access_type in ("cellular", "satellite"):
            steps = rng.normal(0.0, m.cellular_volatility
                               * np.sqrt(m.snapshot_interval), n)
            wobble = np.exp(np.cumsum(steps))
            wobble /= wobble.mean()
            inst = inst * wobble
        inst *= 1.0 + rng.normal(0.0, m.throughput_noise, n)
        inst = np.maximum(inst, 1000.0)
        acked = np.cumsum(inst * m.snapshot_interval).astype(int)
        srtt = plan.min_rtt * float(rng.uniform(1.05, 1.8))

        # One column per ``TcpInfoSnapshot`` field, in field order (the
        # IEEE operations a per-snapshot expression would do, in its
        # order), each converted to Python numbers once.
        elapsed_us = (times * 1e6).tolist()
        retrans = acked * 0.002
        columns = (
            elapsed_us,                                      # elapsed_time_us
            acked.tolist(),                                  # bytes_acked
            (acked * 1.01).astype(int).tolist(),             # bytes_sent
            retrans.astype(int).tolist(),                    # bytes_retrans
            elapsed_us,                                      # busy_time_us
            (times * plan.rwnd_limited_frac * 1e6).tolist(),
            (times * plan.app_limited_frac * 1e6).tolist(),
            [0.0] * n,                                       # cwnd_limited_us
            [plan.min_rtt] * n,
            [srtt] * n,
            inst.tolist(),                                   # throughput_bps
            (retrans / 1448).astype(int).tolist(),           # retransmits
        )
        return NdtRecord(
            uuid=uuid, duration_s=m.test_duration,
            access_type=plan.access_type,
            access_rate_bps=plan.access_rate,
            columns=columns,
            true_class=plan.behaviour,
            true_contention=plan.contention,
            cca=plan.cca,
        )

    # -- streaming generation ------------------------------------------------

    def _flow_rng(self, index: int) -> np.random.Generator:
        """The private RNG of flow ``index``.

        Derived from (seed, index) alone, so flow ``index`` is the same
        record no matter which chunk, shard, process, or machine
        renders it.
        """
        return np.random.default_rng(
            _stream_seed(self.rngs.seed, f"flow:{index}"))

    def generate_record(self, index: int) -> NdtRecord:
        """Generate the single record at position ``index``."""
        if index < 0:
            raise ConfigError(f"flow index must be >= 0: {index}")
        rng = self._flow_rng(index)
        return self._render(self._plan_flow(rng),
                            f"synth-{index:08d}", rng)

    def generate_shard(self, start: int, count: int) -> NdtDataset:
        """Generate records [start, start+count) in isolation."""
        if start < 0:
            raise ConfigError(f"shard start must be >= 0: {start}")
        if count <= 0:
            raise ConfigError(f"shard count must be positive: {count}")
        records = [self.generate_record(start + i) for i in range(count)]
        return NdtDataset(
            records=records,
            description=(f"synthetic NDT shard [{start}, "
                         f"{start + count}), seed={self.rngs.seed}"))

    def generate(self, n_flows: int) -> NdtDataset:
        """Generate ``n_flows`` records (the paper used 9,984)."""
        return self.generate_shard(0, n_flows)
