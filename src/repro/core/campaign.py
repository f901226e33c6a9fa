"""Measurement campaigns: fleets of elasticity probes over a synthetic
path population.

The paper proposes "a measurement technique and study to settle this
question": point the §3.2 probe at many Internet paths and measure how
often cross traffic is elastic.  Lacking a wide-area vantage, we sample
paths (rate, RTT, qdisc, cross-traffic type) from configurable
distributions, run one simulated probe per path, and aggregate -- the
identical campaign logic a real study would run, with ground truth
attached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import ConfigError
from ..runtime import FaultPolicy, parallel_map
from ..traffic.mix import CROSS_TRAFFIC_IS_ELASTIC
from .axes import (AXES, declared, drop_defaults, preload_backend,
                   resolve_axes)
from .detector import ContentionDetector, DetectorVerdict, confusion_counts
from .path import build_packet_path
from .probe import ProbeReport


@dataclass(frozen=True)
class PathSpec:
    """One sampled path.

    Attributes:
        rate_mbps: bottleneck rate.
        rtt_ms: two-way propagation delay.
        qdisc: "droptail" or "fq".
        cross_traffic: a name from the cross-traffic registry.
        buffer_multiplier: bottleneck buffer, in BDPs.
        seed: per-path seed.
        medium: bottleneck access regime -- ``"queue"`` (a plain
            serializing link) or a CSMA/CA shared medium such as
            ``"csma-4"`` (see :func:`repro.medium.parse_medium`).
    """

    rate_mbps: float
    rtt_ms: float
    qdisc: str
    cross_traffic: str
    buffer_multiplier: float = 1.0
    seed: int = 0
    medium: str = AXES["medium"].default

    def __post_init__(self):
        if self.rate_mbps <= 0 or self.rtt_ms <= 0:
            raise ConfigError(f"invalid path spec: {self}")
        if self.qdisc not in ("droptail", "fq"):
            raise ConfigError(f"unknown qdisc {self.qdisc!r}")
        for axis in declared("path"):
            axis.validate(getattr(self, axis.name, axis.default))

    @property
    def truly_contending(self) -> bool:
        """Ground truth: elastic cross traffic behind a shared FIFO.

        Under per-flow fair queueing the probe is isolated, so even an
        elastic competitor cannot contend with it for bandwidth -- the
        paper's §2.1 argument, encoded as ground truth.
        """
        return (CROSS_TRAFFIC_IS_ELASTIC[self.cross_traffic]
                and self.qdisc == "droptail")

    @property
    def isolation_masked(self) -> bool:
        """Paths where the instrument cannot see the truth.

        A backlogged elastic competitor behind per-flow FQ pins the
        probe's delivery rate at its fair share; ẑ = μ·S/R - S then
        mirrors the probe's own pulses and the path reads as
        contending even though FQ -- not CCA dynamics -- decides the
        allocation.  The §3.2 technique cannot, by itself, distinguish
        CCA contention from fair-queue capping; a deployment of the
        paper's study must treat such paths as a separate bucket
        (see EXPERIMENTS.md, E7).
        """
        return (CROSS_TRAFFIC_IS_ELASTIC[self.cross_traffic]
                and self.qdisc == "fq")


def _spec_config(spec: PathSpec) -> dict:
    """``spec`` as a fingerprint payload.

    Hashes identically to the bare pre-axis dataclass when every late
    axis sits at its default, so older cache entries stay addressable.
    """
    return drop_defaults(
        {f.name: getattr(spec, f.name) for f in fields(spec)})


@dataclass(frozen=True)
class PathResult:
    """Probe outcome on one path."""

    spec: PathSpec
    report: ProbeReport
    verdict: DetectorVerdict


@dataclass(frozen=True)
class FailedPath:
    """A path quarantined by the fault-tolerant scheduler.

    Attributes:
        spec: the path that kept failing.
        error: the last attempt's failure message.
        error_type: the last attempt's exception class name.
        attempts: attempts consumed before quarantine.
    """

    spec: PathSpec
    error: str
    error_type: str
    attempts: int


@dataclass
class CampaignResult:
    """All per-path results plus aggregate quality measures.

    ``failed`` lists paths the fault-tolerant scheduler quarantined
    (empty on the default raising path); aggregate measures are over
    the successful ``results`` only.
    """

    results: list[PathResult] = field(default_factory=list)
    failed: list[FailedPath] = field(default_factory=list)

    @property
    def fraction_contending(self) -> float:
        """The campaign's headline number: fraction of paths where the
        probe found contending cross traffic."""
        if not self.results:
            return 0.0
        return (sum(1 for r in self.results if r.verdict.contending)
                / len(self.results))

    @property
    def true_fraction_contending(self) -> float:
        if not self.results:
            return 0.0
        return (sum(1 for r in self.results if r.spec.truly_contending)
                / len(self.results))

    def detector_quality(self) -> dict[str, float]:
        """Detector precision/recall/accuracy vs ground truth.

        Only paths the instrument can see are scored (see
        :attr:`PathSpec.isolation_masked`); the masked bucket is
        reported by :meth:`masked_summary`.
        """
        subset = [r for r in self.results if not r.spec.isolation_masked]
        if not subset:
            return confusion_counts([], [])
        return confusion_counts(
            [r.verdict.contending for r in subset],
            [r.spec.truly_contending for r in subset])

    def masked_summary(self) -> dict[str, float]:
        """How the isolation-masked paths (elastic cross behind FQ)
        actually read -- documenting the instrument artifact."""
        masked = [r for r in self.results if r.spec.isolation_masked]
        reads_contending = sum(1 for r in masked if r.verdict.contending)
        return {
            "n_masked": float(len(masked)),
            "reads_contending": float(reads_contending),
            "fraction_reads_contending":
                reads_contending / len(masked) if masked else 0.0,
        }

    def by_cross_traffic(self) -> dict[str, list[float]]:
        """Mean elasticity values grouped by cross-traffic type."""
        groups: dict[str, list[float]] = {}
        for r in self.results:
            groups.setdefault(r.spec.cross_traffic, []).append(
                r.verdict.mean_elasticity)
        return groups


def sample_paths(n_paths: int, seed: int = 0,
                 cross_traffic_mix: tuple[tuple[str, float], ...] = (
                     ("none", 0.25), ("video", 0.15), ("poisson", 0.15),
                     ("cbr", 0.10), ("reno", 0.20), ("bbr", 0.15)),
                 fq_fraction: float = 0.3,
                 **path_axes) -> list[PathSpec]:
    """Sample a path population.

    Args:
        n_paths: how many paths.
        cross_traffic_mix: (name, probability) pairs.
        fq_fraction: fraction of paths with per-flow fair queueing at
            the bottleneck (the §2.1 isolation deployment knob).
        path_axes: path-level axes (:mod:`repro.core.axes`) set on
            every path, e.g. ``medium="csma-4"`` for a last-hop WLAN
            study population.
    """
    path_axes = drop_defaults(resolve_axes(path_axes, "path"))
    if n_paths <= 0:
        raise ConfigError(f"n_paths must be positive: {n_paths}")
    probs = [p for _, p in cross_traffic_mix]
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ConfigError("cross_traffic_mix probabilities must sum to 1")
    rng = np.random.default_rng(seed)
    names = [n for n, _ in cross_traffic_mix]
    specs = []
    for i in range(n_paths):
        specs.append(PathSpec(
            rate_mbps=float(rng.choice([20, 48, 100, 200])),
            rtt_ms=float(rng.choice([20, 50, 100, 150])),
            qdisc="fq" if rng.random() < fq_fraction else "droptail",
            cross_traffic=str(names[rng.choice(len(names), p=probs)]),
            buffer_multiplier=float(rng.choice([0.5, 1.0, 2.0])),
            seed=int(rng.integers(0, 2**31)),
            **path_axes,
        ))
    return specs


def run_path(spec: PathSpec, duration: float = 30.0,
             backend: str = "packet") -> PathResult:
    """Run one probe over one path.

    ``backend`` selects the simulation engine: ``"packet"`` (the
    event-driven reference) or ``"fluid"`` (the O(flows)-per-tick
    rate-based model in :mod:`repro.fluid` -- same result types,
    20-50x faster; see DESIGN.md for its validity envelope).
    """
    if AXES["backend"].validate(backend) == "fluid":
        from ..fluid import run_path_fluid
        return run_path_fluid(spec, duration=duration)
    handles, sources = build_packet_path(spec)
    handles.sim.run(until=duration)
    report = sources["probe"].report()
    return PathResult(spec=spec, report=report,
                      verdict=ContentionDetector().verdict(
                          list(report.readings)))


#: Default sentinel: ``run(store=...)`` omitted means "use the ambient
#: store from :func:`repro.store.active_store`".
_AUTO = object()


class Campaign:
    """A full measurement study over a sampled path population.

    >>> campaign = Campaign(n_paths=10, seed=1, duration=20.0)
    >>> result = campaign.run()            # doctest: +SKIP
    >>> result.fraction_contending         # doctest: +SKIP
    """

    def __init__(self, n_paths: int = 40, seed: int = 0,
                 duration: float = 30.0, fq_fraction: float = 0.3,
                 cross_traffic_mix=None, **axes):
        """``axes`` are the run- and path-level axes of
        :mod:`repro.core.axes`: ``backend=`` for the whole campaign,
        ``medium=`` on every sampled path."""
        axes = resolve_axes(axes, "run", "path")
        path_axes = {a.name: axes.pop(a.name) for a in declared("path")}
        kwargs = {}
        if cross_traffic_mix is not None:
            kwargs["cross_traffic_mix"] = cross_traffic_mix
        self.specs = sample_paths(n_paths, seed=seed,
                                  fq_fraction=fq_fraction,
                                  **path_axes, **kwargs)
        self.duration = duration
        self.run_axes = axes

    # -- store fingerprints ----------------------------------------------

    def _config(self, **what) -> dict:
        """A fingerprint payload: ``what`` plus everything that is the
        same for every path.  Run-level axes are left out at their
        defaults, so entries cached before an axis existed stay
        addressable."""
        return drop_defaults({
            **what, "duration": self.duration,
            "detector": ContentionDetector().fingerprint_config(),
            **self.run_axes})

    def _task_config(self, spec: PathSpec) -> dict:
        return self._config(spec=_spec_config(spec))

    def path_key(self, spec: PathSpec) -> str:
        """The store fingerprint of one path's full task config."""
        from ..store import fingerprint
        return fingerprint(self._task_config(spec), kind="path")

    def fingerprint(self) -> str:
        """The whole campaign's config fingerprint (names the
        checkpoint manifest)."""
        from ..store import fingerprint
        return fingerprint(
            self._config(specs=[_spec_config(s) for s in self.specs]),
            kind="campaign")

    # -- execution -------------------------------------------------------

    def run(self, progress=None, workers: int | None = None,
            chunk_size: int | None = None, store=_AUTO,
            resume: bool = False,
            policy: FaultPolicy | None = None) -> CampaignResult:
        """Run every path, optionally across worker processes.

        Each path simulation is independent and carries its own seed,
        so the result is bit-for-bit identical for any ``workers``
        value -- and, because cached results are the pickled originals,
        also identical between fresh, cached, and resumed runs; per-path
        results stay in ``self.specs`` order.

        Args:
            progress: optional ``fn(done, total)`` completion callback.
            workers: worker processes; ``None`` defers to the
                ``REPRO_WORKERS`` environment variable, then the CPU
                count.  ``workers=1`` forces the serial path.
            chunk_size: paths per dispatched task (default: automatic;
                1 when a store is active, so every completed path
                checkpoints immediately).
            store: a :class:`repro.store.ArtifactStore`; omitted means
                the ambient store (``using_store``), ``None`` disables
                caching outright.  With a store, completed paths are
                cached and checkpointed, failures are quarantined into
                :attr:`CampaignResult.failed`, and an interrupted
                campaign re-executes only its unfinished paths.
            resume: with a store, additionally honor the prior
                checkpoint manifest's quarantine list instead of
                retrying known-failed paths.
            policy: retry/timeout policy for the fault-tolerant path
                (store runs only; default :class:`FaultPolicy`).
        """
        if store is _AUTO:
            from ..store import active_store
            store = active_store()
        if store is None:
            # Default raising path: no cache, first failure propagates.
            results = parallel_map(self._job(), self.specs,
                                   workers=workers, chunk_size=chunk_size,
                                   progress=progress)
            return CampaignResult(results=results)
        report = self.run_stored(store, range(len(self.specs)),
                                 self.fingerprint(), workers=workers,
                                 chunk_size=chunk_size, resume=resume,
                                 policy=policy, progress=progress)
        failed = [FailedPath(spec=self.specs[o.index], error=o.error,
                             error_type=o.error_type,
                             attempts=o.attempts)
                  for o in report.failed]
        return CampaignResult(
            results=[r for r in report.results if r is not None],
            failed=failed)

    def _job(self):
        """The per-path task, its backend loaded in this process before
        any pool forks."""
        preload_backend(self.run_axes["backend"])
        return functools.partial(run_path, duration=self.duration,
                                 **self.run_axes)

    def run_stored(self, store, indices, manifest_key: str, *,
                   workers=None, chunk_size=None, resume: bool = False,
                   policy: FaultPolicy | None = None, progress=None):
        """Run the paths at ``indices`` through the resumable scheduler.

        Every path is cached and checkpointed under :meth:`path_key`,
        whichever subset it runs in -- which is what lets a cluster
        node run one shard (:func:`repro.serve.jobs.execute_paths`) and
        the coordinator assemble the whole campaign from store hits.
        ``manifest_key`` names the checkpoint manifest.  Returns the
        scheduler's report, positions following ``indices``.
        """
        from ..store import ResumableScheduler
        specs = [self.specs[i] for i in indices]
        labels = [f"path[{i}] {s.cross_traffic}@{s.qdisc} "
                  f"{s.rate_mbps:g}mbps/{s.rtt_ms:g}ms seed={s.seed}"
                  for i, s in zip(indices, specs)]
        scheduler = ResumableScheduler(store, manifest_key,
                                       resume=resume, kind="path")
        return scheduler.run(
            self._job(), specs, [self.path_key(s) for s in specs],
            labels=labels, workers=workers, chunk_size=chunk_size,
            policy=policy if policy is not None else FaultPolicy(),
            progress=progress)
