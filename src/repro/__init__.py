"""Reproduction of *Asynchronous Prefix Recoverability for Fast Distributed
Stores* (DPR, SIGMOD 2021).

The package is organised as:

- :mod:`repro.sim` — deterministic discrete-event simulation kernel plus
  network and storage latency models (the substitute for the paper's Azure
  testbed).
- :mod:`repro.faster` — a FASTER-style single-node key-value store with a
  HybridLog, CPR checkpointing and a THROW/PURGE rollback state machine.
- :mod:`repro.redisclone` — a Redis-style single-threaded cache-store with
  BGSAVE-style snapshots and restart-based recovery.
- :mod:`repro.core` — the DPR protocol itself: StateObjects, sessions,
  precedence graphs, cut finders, world-lines, and the libDPR wrappers.
- :mod:`repro.cluster` — the distributed layer: metadata store, ownership
  mapping, cluster manager, D-FASTER and D-Redis assemblies.
- :mod:`repro.baselines` — Cassandra-like baseline and recoverability-level
  adapters used by the Figure 19 study.
- :mod:`repro.workloads` — YCSB workload generators.
- :mod:`repro.bench` — the harness that regenerates every figure in the
  paper's evaluation section.
"""

from repro.core.cuts import DprCut, DprGuarantee
from repro.core.session import Session, SessionStatus
from repro.core.state_object import StateObject
from repro.core.versioning import Token

__all__ = [
    "DprCut",
    "DprGuarantee",
    "Session",
    "SessionStatus",
    "StateObject",
    "Token",
]

__version__ = "1.0.0"
