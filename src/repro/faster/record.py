"""HybridLog record format.

Each record carries the CPR *version stamp* of the operation that wrote
it, the back-pointer forming the per-bucket hash chain, and the flags
the non-blocking machinery needs: a tombstone bit for deletes and an
invalid bit set by the PURGE phase of rollbacks (§5.5).
"""

from __future__ import annotations

from typing import Any

#: Logical address meaning "end of chain".
NULL_ADDRESS = -1


class Record:
    """One entry on the HybridLog (slotted: the log holds one per write)."""

    __slots__ = ("key", "value", "version", "previous_address", "tombstone",
                 "invalid")

    #: Nominal serialized size, used by flush-size accounting.  The
    #: paper's YCSB records are 8-byte keys and values; header overhead
    #: brings a record to roughly this size.
    SERIALIZED_BYTES = 64

    def __init__(self, key: Any, value: Any, version: int,
                 previous_address: int = NULL_ADDRESS,
                 tombstone: bool = False):
        self.key = key
        self.value = value
        #: CPR version the writing operation executed in.
        self.version = version
        #: Previous record in this hash bucket's chain (collision or
        #: older version of the same key).
        self.previous_address = previous_address
        self.tombstone = tombstone
        #: Set during PURGE for records in a rolled-back version range;
        #: readers skip invalid records when traversing chains.
        self.invalid = False
