"""A FASTER-style single-node key-value store (the D-FASTER substrate).

Reimplements, in Python, the pieces of FASTER the paper builds on
(§5.1, §5.5):

- a hash index with collision chaining (:mod:`repro.faster.hash_index`);
- the **HybridLog** spanning memory and storage, with in-place updates
  in the mutable tail and read-copy-update across version boundaries
  (:mod:`repro.faster.hybrid_log`);
- version-stamped records (:mod:`repro.faster.record`);
- the **CPR** non-blocking checkpoint state machine and the THROW/PURGE
  non-blocking rollback state machine (:mod:`repro.faster.statemachine`);
- PENDING reads on cold records: a read below the in-memory head
  returns a :class:`~repro.faster.store.PendingMarker` its caller
  finishes with ``resolve_pending`` (sessions, and strict vs relaxed
  DPR, are :class:`repro.core.session.Session`'s job);
- fold-over checkpoints and crash recovery
  (:mod:`repro.faster.checkpoint`);
- the :class:`~repro.faster.state_object.FasterStateObject` adapter that
  plugs all of the above into the DPR protocol as a StateObject.
"""

from repro.faster.record import Record
from repro.faster.hash_index import HashIndex
from repro.faster.hybrid_log import HybridLog
from repro.faster.store import FasterKV
from repro.faster.statemachine import Phase
from repro.faster.state_object import FasterStateObject

__all__ = [
    "FasterKV",
    "FasterStateObject",
    "HashIndex",
    "HybridLog",
    "Phase",
    "Record",
]
