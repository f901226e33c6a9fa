"""Analysis toolbox: change points, distributions, rates, fairness."""

from .changepoint import (ChangePointResult, L2Cost, binary_segmentation,
                          default_penalty, pelt, throughput_level_shift)
from .models import (mathis_throughput, padhye_throughput,
                     reno_steady_state_loss_rate)
from .fairness import (harm, jain_index, max_min_fair_allocation,
                       throughput_shares)
from .stats import Cdf, CdfSketch, bootstrap_ci, percentile, summarize
from .timeseries import DelayMeter, RateMeter, ewma, jitter_metrics

__all__ = [
    "pelt", "binary_segmentation", "throughput_level_shift",
    "ChangePointResult", "L2Cost", "default_penalty",
    "Cdf", "CdfSketch", "percentile", "bootstrap_ci", "summarize",
    "RateMeter", "DelayMeter", "ewma", "jitter_metrics",
    "jain_index", "harm", "throughput_shares", "max_min_fair_allocation",
    "mathis_throughput", "padhye_throughput",
    "reno_steady_state_loss_rate",
]
