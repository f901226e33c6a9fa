"""M-Lab NDT substrate: schema, synthetic population, collection, and
the §3.1 passive analysis pipeline."""

from .collect import NdtCollector
from .filters import (FlowCategory, categorize, infer_cellular,
                      is_app_limited, is_rwnd_limited)
from .pipeline import (Fig2Result, FlowAnalysis, QualityTally, ShardRow,
                       analyse_flow, analyse_records)
from .schema import ACCESS_TYPES, NdtDataset, NdtRecord
from .stream import (ShardSpec, analyse_shard, merge_partials,
                     run_pipeline_streaming, shard_specs)
from .synth import (DEFAULT_ACCESS_MIX, DEFAULT_CCA_MIX, DEFAULT_CHUNK_SIZE,
                    DEFAULT_PLAN_MIX, PopulationModel,
                    SyntheticNdtGenerator)

__all__ = [
    "NdtRecord", "NdtDataset", "ACCESS_TYPES",
    "PopulationModel", "SyntheticNdtGenerator",
    "DEFAULT_PLAN_MIX", "DEFAULT_ACCESS_MIX", "DEFAULT_CCA_MIX",
    "DEFAULT_CHUNK_SIZE",
    "FlowCategory", "categorize", "is_app_limited", "is_rwnd_limited",
    "infer_cellular",
    "analyse_flow", "analyse_records", "Fig2Result", "FlowAnalysis",
    "QualityTally", "ShardRow",
    "ShardSpec", "shard_specs", "analyse_shard", "merge_partials",
    "run_pipeline_streaming",
    "NdtCollector",
]
