"""The four workloads of the ledger.

Each workload is the thing people run, cut to a pass of two to five
CPU seconds so that a 20-second run holds at least four passes:

``paths_packet``   the packet DES and nothing else (no store, no pool)
``campaign_fluid`` a fluid campaign through the pool, cold store writes
``fig2_stream``    the streamed §3.1 NDT pipeline, out of core
``serve_mixed``    cache misses and hits through ``repro serve``

A pass is a fixed list of operations made from the seed.  What the seed
changes is each stochastic source's RNG seed, the order of operations
and (for flows) the synthetic population; what it never changes is the
*shape* of the work -- which cross-traffic types, qdiscs, rates and
durations run -- because a sampled population moves CPU per path by
60% and detector accuracy between 0.50 and 0.83 from one seed to the
next (measured with ``Campaign(n_paths=12, seed=1..10)``), which would
bury any regression.

Inputs are plain JSON (``make_inputs``); the program only ever sees
them through the public entry points in :data:`spans.ENTRY_POINTS`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import shutil
import tempfile
import time
from pathlib import Path

from spans import entry


def cpu_now() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def digest(outputs) -> str:
    """SHA-256 over the canonical JSON of a pass's outputs."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class PassTimer:
    """CPU, wall clock and host speed of each named segment of a pass.

    Every segment is bracketed by two readings of the reference loop
    (see :mod:`hostspeed`, two runs each) and carries their mean; CPU
    time divided by it is what repeats from run to run.
    """

    def __init__(self, calibrator, tracer=None):
        self.segments: dict[str, dict] = {}
        self._calibrator = calibrator
        self._tracer = tracer
        self._slowdown = self._calibrate()

    def _calibrate(self) -> float:
        aside = (self._tracer.aside("calibrate") if self._tracer is not None
                 else contextlib.nullcontext())
        with aside:
            return (self._calibrator.slowdown()
                    + self._calibrator.slowdown()) / 2

    @contextlib.contextmanager
    def segment(self, name: str, ops: int):
        before = self._slowdown
        cpu0, wall0 = cpu_now(), time.perf_counter()
        try:
            yield
        finally:
            cpu_s = cpu_now() - cpu0
            wall_s = time.perf_counter() - wall0
            self._slowdown = self._calibrate()
            self.segments[name] = {
                "ops": ops, "cpu_s": cpu_s, "wall_s": wall_s,
                "slowdown": (before + self._slowdown) / 2}

    def normalised_cpu(self) -> float:
        """CPU seconds of the whole pass at reference host speed."""
        return sum(seg["cpu_s"] / seg["slowdown"]
                   for seg in self.segments.values())


@contextlib.contextmanager
def operation(tracer):
    """All spans opened inside share one operation id (traced runs)."""
    if tracer is None:
        yield
        return
    tracer.begin_op()
    try:
        yield
    finally:
        tracer.end_op()


class PassOutput:
    """What one pass produced, before it is checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.matches = 0
        self.errors: list[str] = []
        self.outputs: list = []
        self.samples: dict[str, list[float]] = {}

    def fail(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


class Workload:
    """Base class: ``make_inputs`` -> ``__init__`` -> passes."""

    name = ""
    #: Pool workers the pass fans out to (1: everything in-process).
    workers = 1

    def __init__(self, inputs: dict, scratch: Path):
        #: Wall ms of operations re-run as plain library calls by
        #: :meth:`verify` (only ``serve_mixed`` has any).
        self.direct_ms: list[float] = []
        self.inputs = inputs
        self.scratch = scratch

    @classmethod
    def make_inputs(cls, seed: int, size: str) -> dict:
        raise NotImplementedError

    def open_pass(self) -> None:
        """Untimed preparation (fresh store, fresh server)."""

    def run_pass(self, timer: PassTimer, tracer=None) -> PassOutput:
        raise NotImplementedError

    def close_pass(self) -> None:
        """Untimed clean-up."""

    def verify(self, out: PassOutput) -> None:
        """Fill ``out.matches`` where ground truth needs extra work."""

    # -- helpers -----------------------------------------------------------

    def _fresh_store(self):
        self._store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        return entry("ArtifactStore")(self._store_dir)

    def _drop_store(self) -> None:
        shutil.rmtree(self._store_dir, ignore_errors=True)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"ledger:{name}:{seed}")


def _path_inputs(shapes, rng: random.Random, pinned=()) -> list[dict]:
    """One path document per shape, seeded and shuffled by ``rng``."""
    paths = []
    for shape in shapes:
        name, cross, qdisc, rate, rtt, buf, medium = shape
        seed = rng.randrange(2**31)
        paths.append({
            "shape": name, "cross_traffic": cross, "qdisc": qdisc,
            "rate_mbps": rate, "rtt_ms": rtt, "buffer_multiplier": buf,
            "medium": medium,
            "seed": _PINNED_SEED if name in pinned else seed})
    rng.shuffle(paths)
    return paths


def _path_spec(doc: dict):
    fields = {k: v for k, v in doc.items() if k != "shape"}
    return entry("PathSpec")(**fields)


def _verdict_row(shape: str, result) -> list:
    v = result.verdict
    return [shape, v.contending, v.category, repr(v.mean_elasticity),
            v.n_readings, repr(result.report.mean_throughput)]


_PINNED_SEED = 20230
#: Shapes whose RNG seed does not follow ``--seed``.  At an 8-second
#: probe the Poisson short-flow path reads 0.9-2.4 around the 2.0
#: threshold depending on its seed, so its verdict would be a coin
#: flip per seed; pinned, accuracy is the same number on every seed.
_PINNED_SHAPES = ("poisson-droptail",)


# ---------------------------------------------------------------------------
# paths_packet
# ---------------------------------------------------------------------------

#: name, cross traffic, qdisc, Mbit/s, RTT ms, buffer (BDPs), medium.
#: Figure 3's five cross-traffic types on droptail, BBR behind ``fq``,
#: Reno on a five-station CSMA/CA medium.  20 Mbit/s is the slowest
#: link the fixed-rate sources (12 Mbit/s CBR and Poisson) still fit.
PACKET_SHAPES = (
    ("reno-droptail", "reno", "droptail", 20.0, 50.0, 1.0, "queue"),
    ("bbr-droptail", "bbr", "droptail", 20.0, 50.0, 1.0, "queue"),
    ("video-droptail", "video", "droptail", 20.0, 50.0, 1.0, "queue"),
    ("poisson-droptail", "poisson", "droptail", 20.0, 50.0, 1.0, "queue"),
    ("cbr-droptail", "cbr", "droptail", 20.0, 50.0, 1.0, "queue"),
    ("bbr-fq", "bbr", "fq", 20.0, 50.0, 1.0, "queue"),
    ("reno-csma5", "reno", "droptail", 20.0, 20.0, 1.0, "csma-5"),
)


class PathsPacket(Workload):
    name = "paths_packet"
    #: Probe seconds per path: the probe discards its first 6 s and
    #: needs a 5 s window, so 8 s is the shortest run with readings.
    DURATION = {"full": 8.0, "quick": 7.0, "warm": 1.0}

    @classmethod
    def make_inputs(cls, seed, size):
        shapes = PACKET_SHAPES if size != "quick" else tuple(
            s for s in PACKET_SHAPES
            if s[0] in ("bbr-fq", "reno-csma5"))
        return {"duration": cls.DURATION[size],
                "paths": _path_inputs(shapes, _rng(cls.name, seed),
                                      pinned=_PINNED_SHAPES)}

    def __init__(self, inputs, scratch):
        super().__init__(inputs, scratch)
        self.ops = [(doc["shape"], _path_spec(doc))
                    for doc in inputs["paths"]]

    def run_pass(self, timer, tracer=None):
        out = PassOutput()
        run_path = entry("run_path")  # per pass: a traced pass rebinds it
        for shape, spec in self.ops:
            out.attempted += 1
            with timer.segment(shape, 1), operation(tracer):
                try:
                    result = run_path(
                        spec, duration=self.inputs["duration"],
                        backend="packet")
                except Exception as exc:
                    out.fail(shape, exc)
                    continue
            out.outputs.append(_verdict_row(shape, result))
            out.matches += (result.verdict.contending
                            == spec.truly_contending)
        return out


# ---------------------------------------------------------------------------
# campaign_fluid
# ---------------------------------------------------------------------------

#: The sampler's six cross-traffic types on droptail, three behind
#: ``fq`` (its 30% share), one CSMA/CA path (Bianchi solves).
FLUID_SHAPES = (
    ("none-droptail", "none", "droptail", 48.0, 50.0, 1.0, "queue"),
    ("video-droptail", "video", "droptail", 100.0, 100.0, 1.0, "queue"),
    ("poisson-droptail", "poisson", "droptail", 100.0, 100.0, 1.0, "queue"),
    ("cbr-droptail", "cbr", "droptail", 200.0, 150.0, 2.0, "queue"),
    ("reno-droptail", "reno", "droptail", 48.0, 50.0, 1.0, "queue"),
    ("bbr-droptail", "bbr", "droptail", 100.0, 100.0, 1.0, "queue"),
    ("reno-shallow", "reno", "droptail", 20.0, 20.0, 0.5, "queue"),
    ("reno-fq", "reno", "fq", 48.0, 50.0, 1.0, "queue"),
    ("poisson-fq", "poisson", "fq", 100.0, 100.0, 1.0, "queue"),
    ("none-fq", "none", "fq", 200.0, 150.0, 2.0, "queue"),
    ("reno-csma5", "reno", "droptail", 20.0, 50.0, 1.0, "csma-5"),
)


class CampaignFluid(Workload):
    name = "campaign_fluid"
    DURATION = {"full": 30.0, "quick": 30.0, "warm": 2.0}
    _SMALL = ("poisson-fq", "reno-csma5")
    #: Paths per ``Campaign.run`` call.  A pass is three campaigns, not
    #: one, so that no timed segment runs for seconds between two
    #: readings of the host's speed.
    CAMPAIGN_PATHS = 4

    @classmethod
    def make_inputs(cls, seed, size):
        shapes = FLUID_SHAPES if size == "full" else tuple(
            s for s in FLUID_SHAPES if s[0] in cls._SMALL)
        return {"duration": cls.DURATION[size], "workers": 2,
                "paths": _path_inputs(shapes, _rng(cls.name, seed))}

    def __init__(self, inputs, scratch):
        super().__init__(inputs, scratch)
        self.shapes = [doc["shape"] for doc in inputs["paths"]]
        self.specs = [_path_spec(doc) for doc in inputs["paths"]]
        self.workers = inputs["workers"]

    def open_pass(self):
        self.store = self._fresh_store()

    def close_pass(self):
        self._drop_store()

    def run_pass(self, timer, tracer=None):
        out = PassOutput()
        shape_of = dict(zip(self.specs, self.shapes))
        for start in range(0, len(self.specs), self.CAMPAIGN_PATHS):
            specs = self.specs[start:start + self.CAMPAIGN_PATHS]
            label = f"campaign-{start // self.CAMPAIGN_PATHS}"
            out.attempted += len(specs)
            with timer.segment(label, len(specs)):
                try:
                    campaign = entry("Campaign")(
                        n_paths=len(specs), seed=0,
                        duration=self.inputs["duration"], backend="fluid")
                    # The sampled population is replaced by the
                    # generated one; everything downstream reads
                    # ``campaign.specs``.
                    campaign.specs = list(specs)
                    result = campaign.run(workers=self.workers,
                                          store=self.store)
                except Exception as exc:
                    out.fail(label, exc)
                    out.failed += len(specs) - 1
                    continue
            out.failed += len(result.failed)
            for path in result.failed:
                out.errors.append(f"{path.spec}: {path.error_type}: "
                                  f"{path.error}")
            for r in result.results:
                out.outputs.append(_verdict_row(shape_of[r.spec], r))
                out.matches += (r.verdict.contending
                                == r.spec.truly_contending)
        return out


# ---------------------------------------------------------------------------
# fig2_stream
# ---------------------------------------------------------------------------


class Fig2Stream(Workload):
    name = "fig2_stream"
    FLOWS = {"full": (2000, 400), "quick": (600, 200), "warm": (60, 30)}

    @classmethod
    def make_inputs(cls, seed, size):
        n_flows, chunk = cls.FLOWS[size]
        return {"n_flows": n_flows, "chunk_size": chunk,
                "seed": _rng(cls.name, seed).randrange(2**31)}

    def open_pass(self):
        self.store = self._fresh_store()

    def close_pass(self):
        self._drop_store()

    def run_pass(self, timer, tracer=None):
        out = PassOutput()
        n_flows = out.attempted = self.inputs["n_flows"]
        with timer.segment("stream", n_flows):
            try:
                result = entry("run_pipeline_streaming")(
                    n_flows, seed=self.inputs["seed"],
                    chunk_size=self.inputs["chunk_size"], workers=1,
                    store=self.store)
            except Exception as exc:
                out.fail("stream", exc)
                out.failed = n_flows
                return out
        q = result.quality
        # A flow agrees with its synthetic label unless the detector
        # fired on a clean flow, missed a contended one, or the filters
        # dropped a contended one.
        out.matches = result.total - (q.false_positives + q.false_negatives
                                      + q.lost_to_filters)
        out.failed = n_flows - result.total
        out.outputs = [result.total, result.remaining_with_shifts,
                       sorted((cat.value, n)
                              for cat, n in result.counts.items()),
                       [q.true_positives, q.false_positives,
                        q.false_negatives, q.lost_to_filters],
                       len(result.shards)]
        return out


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class ServeMixed(Workload):
    name = "serve_mixed"
    #: Distinct jobs by the cross-traffic type of their one path, and
    #: resubmissions; sized so misses and hits each cost about half.
    MIX = {
        "full": ({"none": 2, "cbr": 2, "reno": 2, "poisson": 1,
                  "video": 1}, 200),
        "quick": ({"none": 1, "reno": 1}, 20),
        "warm": ({"reno": 1}, 1),
    }
    DURATION = {"full": 10.0, "quick": 10.0, "warm": 1.0}
    HIT_CHUNK = 50

    @classmethod
    def make_inputs(cls, seed, size):
        """Campaign jobs of one path each.  A job names its path only
        through the campaign seed, so candidate seeds are drawn until
        every cross-traffic quota is filled."""
        sample_paths = entry("sample_paths")
        quota, n_hits = cls.MIX[size]
        quota = dict(quota)
        rng = _rng(cls.name, seed)
        jobs = []
        while any(quota.values()):
            candidate = rng.randrange(2**31)
            cross = sample_paths(1, seed=candidate,
                                 fq_fraction=0.0)[0].cross_traffic
            if quota.get(cross, 0) > 0:
                quota[cross] -= 1
                jobs.append({"n_paths": 1, "seed": candidate,
                             "duration": cls.DURATION[size],
                             "backend": "fluid", "fq_fraction": 0.0})
        hits = [i % len(jobs) for i in range(n_hits)]
        rng.shuffle(hits)
        return {"jobs": jobs, "hits": hits}

    def __init__(self, inputs, scratch):
        super().__init__(inputs, scratch)
        self.jobs = inputs["jobs"]
        self.hits = inputs["hits"]
        self._truth: dict[int, str] = {}

    def open_pass(self):
        store = self._fresh_store()
        limiter = entry("ClientRateLimiter")(rate=0.0)
        self.server = entry("ServerThread")(
            store=store, concurrency=1, job_workers=1,
            limiter=limiter).start()
        self.client = entry("ServeClient")(port=self.server.port,
                                           timeout=60.0)

    def close_pass(self):
        self.server.stop()
        self._drop_store()

    def _request(self, out, tracer, kind, index):
        """One closed-loop request: submit, then follow the job's event
        stream to its terminal document (no status polling, whose
        count -- and CPU -- would depend on the wall clock)."""
        out.attempted += 1
        cpu0, wall0 = cpu_now(), time.perf_counter()
        with operation(tracer):
            try:
                job = self.client.submit("campaign", self.jobs[index])
                disposition = job["disposition"]
                if disposition != "cached":
                    for job in self.client.events(job["id"]):
                        pass
                if job["state"] != "done":
                    raise RuntimeError(f"job ended {job['state']}: "
                                       f"{job.get('error', '')}")
            except Exception as exc:
                out.fail(f"{kind}[{index}]", exc)
                return
        out.samples.setdefault(f"{kind}_latency_ms", []).append(
            (time.perf_counter() - wall0) * 1e3)
        out.samples.setdefault(f"{kind}_cpu_ms", []).append(
            (cpu_now() - cpu0) * 1e3)
        expected = "cached" if kind == "hit" else "queued"
        out.outputs.append([kind, index, disposition == expected,
                            job["summary"]])

    def run_pass(self, timer, tracer=None):
        out = PassOutput()
        with timer.segment("miss", len(self.jobs)):
            for index in range(len(self.jobs)):
                self._request(out, tracer, "miss", index)
        for start in range(0, len(self.hits), self.HIT_CHUNK):
            chunk = self.hits[start:start + self.HIT_CHUNK]
            with timer.segment(f"hit-{start // self.HIT_CHUNK}",
                               len(chunk)):
                for index in chunk:
                    self._request(out, tracer, "hit", index)
        return out

    def _direct_fingerprint(self, index: int) -> str:
        """The same job run as a plain library call, no server."""
        if index not in self._truth:
            params = self.jobs[index]
            wall0 = time.perf_counter()
            result = entry("Campaign")(
                n_paths=params["n_paths"], seed=params["seed"],
                duration=params["duration"], backend=params["backend"],
                fq_fraction=params["fq_fraction"]).run(workers=1,
                                                       store=None)
            self.direct_ms.append((time.perf_counter() - wall0) * 1e3)
            outcome = [{"contending": r.verdict.contending,
                        "category": r.verdict.category,
                        "mean_elasticity": r.verdict.mean_elasticity}
                       for r in result.results]
            self._truth[index] = entry("fingerprint")(
                outcome, kind="campaign-outcome")
        return self._truth[index]

    def verify(self, out):
        out.matches = sum(
            1 for _kind, index, as_expected, summary in out.outputs
            if as_expected and summary["result_fingerprint"]
            == self._direct_fingerprint(index))


WORKLOADS = {cls.name: cls for cls in
             (PathsPacket, CampaignFluid, Fig2Stream, ServeMixed)}
