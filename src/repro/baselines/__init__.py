"""Baseline systems for the recoverability-level study (§7.6)."""

from repro.baselines.cassandra import (
    CassandraCluster,
    CommitLogMode,
    CassandraNode,
)
from repro.baselines.recoverability import (
    RecoverabilityLevel,
    run_recoverability_matrix,
    supported_levels,
)

__all__ = [
    "CassandraCluster",
    "CassandraNode",
    "CommitLogMode",
    "RecoverabilityLevel",
    "run_recoverability_matrix",
    "supported_levels",
]
