"""The §7.6 recoverability-level matrix (Figure 19).

Four guarantees, three systems.  Not every system supports every level
(the paper marks those N/A); :func:`supported_levels` encodes exactly
the paper's matrix:

==========  ========================================  ==================
Level       Meaning                                   Supported by
==========  ========================================  ==================
NONE        not recoverable on failure                D-Redis, D-FASTER
EVENTUAL    ack before persistence, background flush  all three
DPR         ack immediately, asynchronous *prefix*    D-Redis, D-FASTER
            guarantees
SYNC        ack only after persistence                Cassandra, D-Redis
==========  ========================================  ==================
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from repro.baselines.cassandra import CassandraCluster, CommitLogMode
from repro.cluster.dfaster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig, RedisMode
from repro.workloads.ycsb import YCSB_A


class RecoverabilityLevel(enum.Enum):
    NONE = "none"
    EVENTUAL = "eventual"
    DPR = "dpr"
    SYNC = "sync"


_MATRIX = {
    "cassandra": {RecoverabilityLevel.EVENTUAL, RecoverabilityLevel.SYNC},
    "d-redis": {
        RecoverabilityLevel.NONE,
        RecoverabilityLevel.EVENTUAL,
        RecoverabilityLevel.DPR,
        RecoverabilityLevel.SYNC,
    },
    "d-faster": {
        RecoverabilityLevel.NONE,
        RecoverabilityLevel.EVENTUAL,
        RecoverabilityLevel.DPR,
    },
}


def supported_levels(system: str):
    """The paper's support matrix (unsupported cells print N/A)."""
    return _MATRIX[system]


def _run_cassandra(level: RecoverabilityLevel, duration: float,
                   warmup: float) -> float:
    mode = (CommitLogMode.GROUP if level is RecoverabilityLevel.SYNC
            else CommitLogMode.PERIODIC)
    cluster = CassandraCluster(mode, YCSB_A)
    stats = cluster.run(duration, warmup)
    return stats.throughput(start=warmup, end=duration,
                            duration=duration - warmup)


def _run_dredis(level: RecoverabilityLevel, duration: float,
                warmup: float) -> float:
    # NONE: plain Redis.  EVENTUAL: AOF without fsync waiting.
    # DPR: the full D-Redis stack.  SYNC: appendfsync=always.
    if level is RecoverabilityLevel.NONE:
        config = DRedisConfig(mode=RedisMode.PLAIN)
    elif level is RecoverabilityLevel.EVENTUAL:
        config = DRedisConfig(mode=RedisMode.PLAIN, aof="everysec")
    elif level is RecoverabilityLevel.DPR:
        config = DRedisConfig(mode=RedisMode.DPR)
    else:
        config = DRedisConfig(mode=RedisMode.PLAIN, aof="always")
    cluster = DRedisCluster(config)
    stats = cluster.run(duration, warmup)
    return stats.throughput(start=warmup, end=duration,
                            duration=duration - warmup)


def _run_dfaster(level: RecoverabilityLevel, duration: float,
                 warmup: float) -> float:
    # NONE: no checkpoints.  EVENTUAL: checkpoints with DPR off
    # (§7.6: "emulate eventual recoverability by turning off DPR").
    # DPR: the full stack.  SYNC: unsupported.
    if level is RecoverabilityLevel.NONE:
        config = DFasterConfig(checkpoints_enabled=False, dpr_enabled=False)
    elif level is RecoverabilityLevel.EVENTUAL:
        config = DFasterConfig(dpr_enabled=False)
    else:
        config = DFasterConfig()
    cluster = DFasterCluster(config)
    stats = cluster.run(duration, warmup)
    return stats.throughput(start=warmup, end=duration,
                            duration=duration - warmup)


_RUNNERS: Dict[str, Callable] = {
    "cassandra": _run_cassandra,
    "d-redis": _run_dredis,
    "d-faster": _run_dfaster,
}


#: Figure 19's column order.
_LEVELS = (RecoverabilityLevel.SYNC, RecoverabilityLevel.DPR,
           RecoverabilityLevel.EVENTUAL, RecoverabilityLevel.NONE)


def run_recoverability_matrix(
    duration: float = 0.4,
    warmup: float = 0.1,
) -> Dict[str, Dict[RecoverabilityLevel, Optional[float]]]:
    """Regenerate Figure 19: throughput per (system, level), None=N/A."""
    results: Dict[str, Dict[RecoverabilityLevel, Optional[float]]] = {}
    for system, run in _RUNNERS.items():
        row: Dict[RecoverabilityLevel, Optional[float]] = {}
        for level in _LEVELS:
            if level not in supported_levels(system):
                row[level] = None
                continue
            row[level] = run(level, duration, warmup)
        results[system] = row
    return results
