"""The HybridLog: a record log spanning main memory and storage (§5.1).

Address space layout (addresses grow upward)::

        0 ............ head ........ read_only ............. tail
        |-- on disk --|-- in-memory immutable --|-- mutable --|

Records in the *mutable* region are updated in place (which compresses
the log between flushes and removes tail contention); records below
``read_only_address`` are immutable and updated via read-copy-update.
A *fold-over checkpoint* shifts ``read_only_address`` to the tail and
flushes the newly immutable span; this is how D-FASTER implements
``Commit()`` as a lightweight metadata-plus-flush operation.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.faster.record import Record


class HybridLog:
    """An append-only record log with memory/storage boundaries."""

    def __init__(self, memory_budget_records: Optional[int] = None):
        self._records: List[Record] = []
        #: First address still in main memory; below this, reads go
        #: PENDING (simulated I/O).
        self.head_address = 0
        #: First address of the mutable (in-place-updatable) region.
        self.read_only_address = 0
        #: Everything below this has been durably flushed.
        self.flushed_until_address = 0
        #: Records kept in memory before the head shifts (None = all).
        self._memory_budget = memory_budget_records

    # -- addressing -----------------------------------------------------

    @property
    def tail_address(self) -> int:
        return len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def get(self, address: int) -> Record:
        if not 0 <= address < len(self._records):
            raise IndexError(f"address {address} out of range")
        return self._records[address]

    # -- appends ----------------------------------------------------------

    def append(self, record: Record) -> int:
        """Append at the tail; returns the record's logical address."""
        address = self.tail_address
        self._records.append(record)
        self._maybe_shift_head()
        return address

    def _maybe_shift_head(self) -> None:
        """Page cold immutable records out when over the memory budget.

        Only records already flushed may leave memory (an unflushed
        record paged out would be lost).
        """
        if self._memory_budget is None:
            return
        excess = (self.tail_address - self.head_address) - self._memory_budget
        if excess > 0:
            limit = min(self.read_only_address, self.flushed_until_address)
            self.head_address = min(self.head_address + excess, limit)

    # -- fold-over checkpointing --------------------------------------------

    def mark_read_only(self) -> Tuple[int, int]:
        """Fold over: freeze everything up to the current tail.

        Returns the ``(from, to)`` address span that newly became
        immutable and must be flushed.
        """
        span = (self.read_only_address, self.tail_address)
        self.read_only_address = self.tail_address
        return span

    def flush_complete(self, until_address: int) -> None:
        """Storage acknowledged durability up to ``until_address``."""
        if until_address > self.read_only_address:
            raise ValueError("cannot flush past the read-only boundary")
        if until_address > self.flushed_until_address:
            self.flushed_until_address = until_address
        self._maybe_shift_head()

    # -- traversal -----------------------------------------------------------

    def scan(self, from_address: int = 0,
             to_address: Optional[int] = None) -> Iterator[Tuple[int, Record]]:
        """Scan a log span in address order (used by recovery)."""
        end = self.tail_address if to_address is None else to_address
        for address in range(from_address, end):
            yield address, self._records[address]

    # -- rollback support -------------------------------------------------------

    def invalidate_versions(self, low: int, high: int,
                            from_address: int = 0) -> int:
        """PURGE: mark records with version in ``(low, high]`` invalid.

        Returns the number of records invalidated.  Readers skip
        invalid records while traversing chains, so this runs in the
        background without blocking operations (§5.5, Figure 8).
        """
        invalidated = 0
        for address in range(from_address, self.tail_address):
            record = self._records[address]
            if low < record.version <= high and not record.invalid:
                record.invalid = True
                invalidated += 1
        return invalidated
