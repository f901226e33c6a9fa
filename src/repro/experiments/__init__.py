"""Runnable reproductions of the paper's figures and ablations.

==============  ===========================================================
``fig2``        E1: the §3.1 M-Lab NDT passive pipeline (Figure 2)
``fig3``        E2: the §3.2 elasticity proof of concept (Figure 3)
``fq_ablation`` E3: fair queueing eliminates CCA contention (§2.1)
``tbf_jitter``  E4: token-bucket shaping causes jitter contention (§5.2)
``subpacket``   E5: sub-packet-BDP starvation (§2.3, Chen et al.)
``fairness_matrix``  E6: pairwise CCA contention matrix (intro, Ware et al.)
``campaign_eval``    E7: the proposed wide-area measurement study
``access_link``      E8: offered load vs allocation on access links (§2.2)
``tslp_vs_elasticity``  E9: TSLP finds congestion, not contention (§4)
``bwe_isolation``    E10: BwE-style central allocation eliminates contention (§2.1)
``cellular_robustness``  E11: probe robustness on variable-rate links (§2.3)
``envelope``    E12: the detector's calibrated envelope on either backend
``robustness``  E13: coverage-guided search vs random fuzzing, head to head
``fig2_scale``  E15: Figure 2 fractions + bootstrap CIs vs population size
``medium_contention``  E16: the probe question on a CSMA/CA shared medium
==============  ===========================================================
"""

import inspect

from ..core.axes import AXES
from ..errors import ConfigError
from ..traffic.mix import FIGURE3_PHASES, Phase
from . import (access_link, bwe_isolation, campaign_eval,
               cellular_robustness, envelope, fairness_matrix, fig2,
               fig2_scale, fig3, fq_ablation, medium_contention,
               robustness, subpacket, tbf_jitter, tslp_vs_elasticity)
from .runner import ExperimentResult, Stopwatch, sweep

#: Experiment registry for the CLI.
EXPERIMENTS = {
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fq_ablation": fq_ablation.run,
    "tbf_jitter": tbf_jitter.run,
    "subpacket": subpacket.run,
    "fairness_matrix": fairness_matrix.run,
    "campaign_eval": campaign_eval.run,
    "access_link": access_link.run,
    "tslp_vs_elasticity": tslp_vs_elasticity.run,
    "bwe_isolation": bwe_isolation.run,
    "cellular_robustness": cellular_robustness.run,
    "envelope": envelope.run,
    "robustness": robustness.run,
    "fig2_scale": fig2_scale.run,
    "medium_contention": medium_contention.run,
}

#: Reduced parameters so every experiment finishes in seconds (the
#: CLI's ``--smoke``, a serve job's ``"smoke": true``); keys are
#: experiment names, values are run() overrides.
SMOKE_PARAMS: dict[str, dict] = {
    "fig2": {"n_flows": 500},
    "fig3": {"phases": tuple(Phase(p.name, 15.0) for p in FIGURE3_PHASES)},
    "fq_ablation": {"duration": 10.0},
    "tbf_jitter": {"duration": 8.0, "burst_sizes_kb": (15.0, 250.0)},
    "subpacket": {"duration": 40.0, "n_flows": 8},
    "fairness_matrix": {"duration": 10.0,
                        "ccas": ("reno", "cubic", "bbr")},
    "campaign_eval": {"n_paths": 8, "duration": 15.0},
    "access_link": {"duration": 3.0},
    "tslp_vs_elasticity": {"duration": 12.0},
    "bwe_isolation": {"duration": 8.0},
    "cellular_robustness": {"duration": 20.0,
                            "volatilities": (0.0, 0.1)},
    "envelope": {"backend": "fluid"},
    "robustness": {"budget": 40},
    "medium_contention": {"backend": "fluid", "duration": 10.0,
                          "mediums": ("queue", "csma-2", "csma-4")},
    "fig2_scale": {"population_sizes": (400, 1000),
                   "chunk_size": 100},
}


def resolve(name: str, smoke: bool = False, given={}, offered={}):
    """``(run, kwargs, declined)``: experiment ``name``'s ``run()`` and
    the keyword arguments to call it with.

    ``smoke`` starts from :data:`SMOKE_PARAMS`.  ``given`` overrides
    them and must name parameters of that ``run()``.  ``offered`` (the
    CLI's optional flags, a serve job's ``workers``) is passed only
    where ``run()`` takes it -- an experiment that sweeps an axis
    (E16's ``mediums``) takes the offered value beside the axis
    default, which keeps its control cells -- and the names it does
    not take come back as ``declined``.
    """
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; "
                          f"try: {', '.join(sorted(EXPERIMENTS))}")
    run = EXPERIMENTS[name]
    accepted = inspect.signature(run).parameters
    kwargs = {**(SMOKE_PARAMS.get(name, {}) if smoke else {}), **given}
    unknown = set(kwargs) - set(accepted)
    if unknown:
        raise ConfigError(f"experiment {name} does not accept: "
                          f"{', '.join(sorted(unknown))}")
    declined = []
    for param, value in offered.items():
        if param in accepted:
            kwargs[param] = value
        elif param in AXES and param + "s" in accepted:
            kwargs[param + "s"] = tuple(dict.fromkeys(
                (AXES[param].default, value)))
        else:
            declined.append(param)
    return run, kwargs, declined


__all__ = ["EXPERIMENTS", "SMOKE_PARAMS", "ExperimentResult",
           "Stopwatch", "resolve", "sweep",
           "fig2", "fig3", "fq_ablation", "tbf_jitter", "subpacket",
           "fairness_matrix", "campaign_eval", "access_link",
           "tslp_vs_elasticity", "bwe_isolation",
           "cellular_robustness", "envelope", "robustness",
           "fig2_scale", "medium_contention"]
