"""repro.cluster: federated work-sharing across ``repro serve`` nodes.

A coordinator shards campaign, sweep, and qa-search workloads over a
static list of serve nodes, steals work from stragglers, and merges
results back into the local content-addressed store -- where identical
fingerprints collapse, so replayed or duplicated work is free.

The pieces:

* :mod:`~repro.cluster.membership` -- node list parsing and liveness
  probing with exponential-backoff mark-down.
* :mod:`~repro.cluster.coordinator` -- sharding, rendezvous placement,
  bounded dispatch, work stealing, and the high-level entry points
  (:func:`run_clustered_campaign`, :func:`run_clustered_search`).
* :mod:`~repro.cluster.merge` -- pulling store objects and metrics
  snapshots back from nodes.
* :mod:`~repro.cluster.journal` -- the per-run manifest of task
  transitions that ``repro cluster status`` lists.
"""

from .coordinator import (ClusterTask, Coordinator, TaskRecord,
                          cluster_evaluator, run_clustered_campaign,
                          run_clustered_fig2, run_clustered_search,
                          shard_indices, task_for)
from .journal import ClusterJournal, journal_dir, list_journals
from .membership import (DEFAULT_PORT, Membership, Node, parse_cluster)
from .merge import collect_metrics, pull_objects

__all__ = [
    "ClusterJournal",
    "ClusterTask",
    "Coordinator",
    "DEFAULT_PORT",
    "Membership",
    "Node",
    "TaskRecord",
    "cluster_evaluator",
    "collect_metrics",
    "journal_dir",
    "list_journals",
    "parse_cluster",
    "pull_objects",
    "run_clustered_campaign",
    "run_clustered_fig2",
    "run_clustered_search",
    "shard_indices",
    "task_for",
]
