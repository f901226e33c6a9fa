"""The paper's shapes at the paper's parameters (``-m slow``; nightly).

``tests/test_experiments.py`` runs every experiment in seconds and
checks its structure; this file runs E1-E11 at full size and asserts
what the paper says each one shows (DESIGN.md §2 has the claim behind
every row of :data:`PAPER_SCALE`), plus the ablations showing that a
shape does not hang on one design choice.  A failing test prints the
experiment's report and the ``params`` that reproduce it.
"""

import inspect
import json

import pytest

from repro.analysis import binary_segmentation, pelt
from repro.cca import RenoCca
from repro.core.probe import ElasticityProbe
from repro.experiments import EXPERIMENTS, fig2
from repro.ndt import PopulationModel, SyntheticNdtGenerator
from repro.ndt.schema import throughput_rows
from repro.sim import Simulator, dumbbell
from repro.tcp import Connection
from repro.traffic import FIGURE3_PHASES
from repro.units import mbps, ms

pytestmark = pytest.mark.slow

#: Each experiment's run() arguments at the size the paper (or the
#: work it cites) used; everything not named keeps its default.
PAPER_SCALE = {
    "fig2": dict(n_flows=9_984, seed=2023),       # the June 2023 sample
    "fig3": dict(phases=FIGURE3_PHASES),          # 5 x 45 s, 48 Mbit/s
    "fq_ablation": dict(duration=30.0),
    "tbf_jitter": dict(duration=20.0),
    "subpacket": dict(duration=120.0),            # six 20 s windows
    "fairness_matrix": dict(duration=30.0),
    "campaign_eval": dict(n_paths=36, duration=30.0, seed=1),
    "access_link": dict(duration=10.0),
    "tslp_vs_elasticity": dict(duration=30.0),
    "bwe_isolation": dict(duration=20.0),
    "cellular_robustness": dict(
        volatilities=(0.0, 0.05, 0.1, 0.2, 0.3), duration=40.0),
}


def run(name):
    result = EXPERIMENTS[name](**PAPER_SCALE[name])
    print(result.text)
    print("params:", json.dumps(result.params))
    assert set(result.params) == set(
        inspect.signature(EXPERIMENTS[name]).parameters)
    return result


# -- E1 / Figure 2 -----------------------------------------------------------

def test_fig2_most_flows_filtered_few_show_shifts():
    m = run("fig2").metrics
    # Most flows are removed by the §3.1 filters ...
    assert m["fraction_filtered"] > 0.55
    # ... and only a small residual fraction shows level shifts.
    assert m["fraction_possible_contention"] < 0.20
    # The passive signal is imperfect: precision < 1 (policed flows),
    # which is the paper's argument for the active technique.
    assert m["detector_precision"] < 0.999
    assert m["detector_recall"] > 0.9


def test_fig2_pelt_and_binary_segmentation_agree():
    """The change-point algorithm is a free choice (the paper cites a
    survey without picking): both flag about the same flows."""
    dataset = SyntheticNdtGenerator(seed=2023).generate(400)
    series = [throughput_rows([r])[0] for r in dataset.records]
    pelt_n = sum(1 for s in series if pelt(s).num_changes)
    binseg_n = sum(1 for s in series if binary_segmentation(s).num_changes)
    assert abs(pelt_n - binseg_n) <= 0.2 * max(pelt_n, binseg_n, 1)


def test_fig2_fraction_stable_across_shift_thresholds():
    fractions = [fig2.run(n_flows=800, seed=2023, min_relative_shift=s)
                 .metrics["fraction_possible_contention"]
                 for s in (0.15, 0.25, 0.35)]
    assert max(fractions) - min(fractions) < 0.10
    assert all(f < 0.2 for f in fractions)


def test_fig2_conclusion_stable_across_population_mixes():
    """Most flows filtered, small residual with shifts: not an
    artifact of the default calibration."""
    for app_limited in (0.35, 0.45, 0.55):
        rest = 1.0 - app_limited - 0.14 - 0.07
        model = PopulationModel(class_mix=(
            ("app_limited", app_limited),
            ("rwnd_limited", 0.14),
            ("bulk_clean", round(rest * 0.7, 6)),
            ("bulk_contended", round(rest * 0.3, 6)),
            ("policed", 0.07),
        ))
        m = fig2.run(n_flows=800, seed=2023, model=model).metrics
        assert m["fraction_filtered"] > 0.5
        assert m["fraction_possible_contention"] < 0.2


# -- E2 / Figure 3 -----------------------------------------------------------

def test_fig3_elasticity_separates_contending_phases():
    m = run("fig3").metrics
    # Loss-based contention is unambiguous (confidently contending).
    assert m["elasticity_reno"] > 3.0
    # Hard-inelastic traffic is confidently clean.
    assert m["elasticity_cbr"] < 1.5
    # Application-driven phases stay below the confident-contention
    # band; video's chunk transfers make it intermittently elastic, so
    # it may land in the inconclusive band but never above it.
    assert m["elasticity_poisson"] < 2.6
    assert m["elasticity_video"] < 2.6
    # BBRv1's rate-based smoothing mutes its pulse response: above the
    # confidently-clean band, typically inconclusive-or-better (the
    # documented finding in EXPERIMENTS.md).
    assert m["elasticity_bbr"] > 1.5
    # The weakest contending phase is not dominated by the strongest
    # fully-application-limited phase.
    assert min(m["elasticity_reno"], m["elasticity_bbr"]) > max(
        m["elasticity_poisson"], m["elasticity_cbr"])


# -- E3-E6 -------------------------------------------------------------------

def test_fq_makes_every_pairing_fair():
    m = run("fq_ablation").metrics
    assert m["min_jain_fq"] > 0.95         # FQ: Jain ~ 1.0 everywhere
    assert m["min_jain_droptail"] < 0.9    # DropTail: one pair skewed
    assert m["mean_jain_fq"] > m["mean_jain_droptail"]


def test_token_bucket_bursts_move_contention_to_jitter():
    result = run("tbf_jitter")
    assert result.metrics["span_amplification"] > 2.0, (
        "big token-bucket bursts should amplify the live stream's "
        "RFC 3550 jitter well beyond the smooth shaper")
    # The largest burst is the worst offender on at least one statistic.
    rows = result.tables["jitter"]
    last, others = rows[-1], rows[1:-1]
    assert (all(last["jitter_ms"] >= r["jitter_ms"] for r in others)
            or all(last["delay_p99_ms"] >= r["delay_p99_ms"]
                   for r in others))


def test_subpacket_bdp_starves_flows_by_timeout():
    m = run("subpacket").metrics
    assert m["subpacket_bdp_packets"] < 1.0
    # Starvation windows are common on the sub-packet link, driven by
    # timeouts, and (almost) absent on the healthy one.
    assert m["subpacket_starved_fraction"] > 0.1
    assert m["subpacket_timeouts"] > 10
    assert m["healthy_starved_fraction"] < 0.05


def test_fairness_matrix_matches_ware_et_al():
    m = run("fairness_matrix").metrics
    # BBR beats loss-based CCAs in deep buffers; delay-based yields.
    assert m["bbr_share_vs_loss_min"] > 0.5
    assert m["vegas_share_vs_loss_max"] < 0.5
    for cca in ("reno", "cubic"):          # same-vs-same: near 50/50
        assert abs(m[f"share_{cca}_vs_{cca}"] - 0.5) < 0.2


# -- E7: the proposed campaign, and its pulse-parameter ablation -------------

def test_campaign_detector_tracks_ground_truth():
    result = run("campaign_eval")
    m = result.metrics
    # On paths the instrument can see, it classifies well.
    assert m["detector_accuracy"] > 0.75
    # Measured contention tracks ground truth within the masked-path
    # inflation.
    assert abs(m["fraction_contending"]
               - m["true_fraction_contending"]) < 0.25
    # Idle/inelastic FQ paths read clean (isolation works when there
    # is nothing to hide) ...
    quiet_fq = [r for r in result.tables["paths"]
                if r["qdisc"] == "fq" and r["cross_traffic"] in (
                    "none", "video", "poisson", "cbr")]
    if quiet_fq:
        alarms = sum(1 for r in quiet_fq if r["verdict"])
        assert alarms <= len(quiet_fq) // 2
    # ... while elastic-cross-behind-FQ is the documented blind spot:
    # fair-share capping mirrors the probe's pulses.
    if m["n_masked"] >= 2:
        assert m["masked_reads_contending"] >= 0.5


def _mean_elasticity(cross, pulse_freq, amplitude, duration=40.0):
    sim = Simulator()
    path = dumbbell(sim, mbps(48), ms(100))
    probe = ElasticityProbe(sim, path, capacity_hint=mbps(48),
                            pulse_freq=pulse_freq,
                            pulse_amplitude=amplitude)
    probe.start()
    if cross == "reno":
        conn = Connection(sim, path, "cross", RenoCca())
        conn.sender.set_infinite_backlog()
    sim.run(until=duration)
    return probe.report().mean_elasticity


@pytest.mark.parametrize("freq,amp", [(5.0, 0.25), (5.0, 0.15),
                                      (3.0, 0.25)])
def test_separation_survives_pulse_parameter_choices(freq, amp):
    """Not a knife-edge artifact of the default pulse shape."""
    idle = _mean_elasticity("none", freq, amp)
    contended = _mean_elasticity("reno", freq, amp)
    assert contended > 1.5 * max(idle, 0.5), (idle, contended)


# -- E8-E11 ------------------------------------------------------------------

def test_access_link_allocation_equals_offered_load():
    m = run("access_link").metrics
    assert m["max_error_below_saturation"] < 0.02
    assert m["min_error_above_saturation"] > 0.05


def test_tslp_sees_congestion_only_elasticity_sees_contention():
    m = run("tslp_vs_elasticity").metrics
    # TSLP cannot discriminate: it flags both loaded paths.
    assert m["tslp_flags_contention"] == 1.0
    assert m["tslp_flags_aggregate"] == 1.0
    # The elasticity probe can (a heavy aggregate of TCP slow starts is
    # transiently elastic and may reach the inconclusive band).
    assert m["probe_flags_contention"] == 1.0
    assert m["probe_flags_aggregate"] == 0.0
    assert m["elasticity_contention"] > 1.5 * m["elasticity_aggregate"]


def test_bwe_allocation_follows_policy_not_cca():
    m = run("bwe_isolation").metrics
    # Policy says serving gets 2/3; BwE delivers it within 3 points,
    # tightly, where CCA dynamics had decided the contended split.
    assert abs(m["serving_share_managed"] - 2.0 / 3.0) < 0.03
    assert m["max_enforcement_error"] < 0.10
    assert abs(m["serving_share_contended"] - 2.0 / 3.0) > 0.03


def test_cellular_probe_reliable_until_the_volatility_boundary():
    m = run("cellular_robustness").metrics
    assert m["correctness_low_volatility"] >= 0.99
    # Measurably degraded above the boundary: this is the finding (a
    # perfectly-correct high-volatility regime would mean the paper's
    # §2.3 caution was unnecessary).
    assert m["correctness_high_volatility"] < 1.0
