"""Wire format of the DPR-specific headers libDPR adds to each batch.

D-Redis serializes operations into batches and prepends a DPR header
(Figure 9); the server wrapper reads the header before handing the
batch body to the unmodified cache-store, and appends a response header
on the way back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.core.versioning import Token


class BatchStatus(enum.Enum):
    """Server-side disposition of a batch."""

    OK = "ok"
    #: The client's world-line is behind the server's: a failure the
    #: client has not handled yet.  The batch was not executed.
    ROLLED_BACK = "rolled_back"
    #: The client is ahead (server still recovering); retry later.
    RETRY = "retry"


@dataclass(frozen=True)
class DprBatchHeader:
    """Client-to-server DPR header (one per batch).

    ``min_version`` is the session's ``Vs`` scalar; the server must not
    execute the batch in any smaller version (§3.2).  ``deps`` are the
    version tokens this batch's operations depend on (§3.3), computed
    from completions the session observed since its previous batch.
    """

    session_id: str
    world_line: int
    min_version: int
    first_seqno: int
    count: int
    deps: Tuple[Token, ...] = ()


@dataclass(frozen=True)
class DprBatchResponse:
    """Server-to-client DPR header (one per batch).

    ``versions`` has one entry per operation in batch order — the
    version each executed in.  The server executes a whole batch under
    one shared latch, so all entries are equal; the format supports
    per-operation versions for deeper integrations.
    """

    session_id: str
    status: BatchStatus
    world_line: int
    first_seqno: int = 0
    versions: Tuple[int, ...] = ()
    results: Tuple = ()
    object_id: str = ""
