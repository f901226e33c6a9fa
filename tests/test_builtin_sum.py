"""No unreviewed builtin ``sum()`` in the modules that feed results.

From Python 3.12, builtin ``sum()`` adds floats with compensation
(Neumaier), so the same float values sum to a different last bit than
on 3.11 -- and a stored fingerprint, verdict or golden moves with the
interpreter.  A float sum that feeds a result goes through
:func:`repro.units.ordered_sum` (strictly left to right, the
3.11 order).  This check parses every module of the packages below and
fails on any reference to the name ``sum`` that is not on
:data:`ALLOWED`, keyed by ``(module, enclosing function)``; each entry
says why that call is safe.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages whose values end up in results, fingerprints or goldens.
SCANNED = ("core", "fluid", "analysis", "ndt", "alloc", "medium", "cca",
           "experiments", "sim", "tcp", "qdisc", "traffic", "qa", "store",
           "serve", "runtime", "cluster")

INTS = "ints: sums of counts or booleans are exact in any order"

VALIDATION = "validation only: probabilities must sum to 1 within 1e-9"

ALLOWED = {
    ("repro.analysis.stats", "CdfSketch.fraction_below"):
        "ints: sketch bin counts",
    ("repro.cluster.coordinator", "_dispatch_missing"):
        "ints: a count of failed shard records",
    ("repro.cluster.journal", "list_journals"):
        "ints: per-status task counts",
    ("repro.cca.nimbus", "NimbusCca._mean_rate"):
        "ints: bytes per sample bin (and it runs once per bin, in the "
        "packet hot path)",
    ("repro.core.campaign", "CampaignResult.fraction_contending"): INTS,
    ("repro.core.campaign", "CampaignResult.true_fraction_contending"):
        INTS,
    ("repro.core.campaign", "CampaignResult.masked_summary"): INTS,
    ("repro.core.campaign", "sample_paths"): VALIDATION,
    ("repro.core.detector", "ContentionDetector.verdict"): INTS,
    ("repro.core.detector", "confusion_counts"): INTS,
    ("repro.experiments.cellular_robustness", "run.correctness"): INTS,
    ("repro.experiments.robustness", "_jitter_cells"): INTS,
    ("repro.experiments.subpacket", "_run_link"): INTS,
    ("repro.ndt.pipeline", "Fig2Result.from_flows"): INTS,
    ("repro.ndt.synth", "PopulationModel.__post_init__"): VALIDATION,
    ("repro.qa.oracles", "FluidPacketAgreementOracle._probe_share"):
        "ints: delivered byte counts",
    ("repro.qa.scenario", "ScenarioOutcome.total_delivered"):
        "ints: delivered byte counts",
    ("repro.qa.scenario", "run_scenario"):
        "ints: qdisc packet and byte counters",
    ("repro.serve.jobs", "execute_qa_envelope"):
        "ints: a count of failing envelope cells",
    ("repro.sim.engine", "Simulator.pending_active"):
        "ints: a count of heap entries",
    ("repro.sim.link", "_Egress.delivered_bytes"):
        "ints: per-flow delivered byte counts",
    ("repro.sim.medium", "MediumLink.queue_delay"):
        "ints: qdisc backlogs in bytes",
    ("repro.store.artifacts", "ArtifactStore.prune"):
        "ints: object sizes in bytes",
}


def _sum_sites(node, module: str, scope: str, sites: set) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = child.name if not scope else f"{scope}.{child.name}"
            _sum_sites(child, module, inner, sites)
            continue
        if isinstance(child, ast.Name) and child.id == "sum":
            sites.add((module, scope or "<module>", child.lineno))
        _sum_sites(child, module, scope, sites)


def builtin_sum_sites() -> set[tuple[str, str, int]]:
    """``(module, enclosing function, line)`` of every ``sum`` name."""
    sites: set = set()
    for package in SCANNED:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__"
                              else parts)
            _sum_sites(ast.parse(path.read_text(), str(path)), module, "",
                       sites)
    return sites


def test_every_builtin_sum_is_allow_listed():
    unlisted = sorted(f"{module}:{line} in {scope}"
                      for module, scope, line in builtin_sum_sites()
                      if (module, scope) not in ALLOWED)
    assert not unlisted, (
        "builtin sum() is compensated from Python 3.12: add floats with "
        "repro.units.ordered_sum, or allow-list the call with a "
        f"reason: {unlisted}")


def test_allow_list_has_no_stale_entries():
    used = {(module, scope) for module, scope, _ in builtin_sum_sites()}
    assert set(ALLOWED) <= used, sorted(set(ALLOWED) - used)


def test_scanner_sees_calls_and_references():
    sites: set = set()
    _sum_sites(ast.parse("class A:\n"
                         "    def f(self, x):\n"
                         "        return sum(x)\n"
                         "total = map(sum, [])\n"), "m", "", sites)
    assert sites == {("m", "A.f", 3), ("m", "<module>", 4)}
