"""The single-threaded Redis-clone server.

Processes one command at a time (so a batch executes atomically w.r.t.
snapshots — the property the D-Redis wrapper's shared latch provides),
takes ``BGSAVE``-style snapshot images, and restarts from one.

``BGSAVE`` forks in real Redis; here :meth:`RedisServer.bgsave` takes
the copy synchronously (the fork's copy-on-write moment).  When that
copy becomes durable is the flush layer's business, not the server's:
D-Redis only reports a version persisted once its flush finishes (§6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.redisclone.commands import execute_command
from repro.redisclone.datastore import DataStore


@dataclass(frozen=True)
class Snapshot:
    """One RDB-style snapshot image."""

    image: Dict[str, Any]
    #: Estimated on-disk size, for the storage-latency model.
    size_bytes: int


class RedisServer:
    """One Redis-clone instance."""

    #: Nominal per-key size for flush modelling.
    KEY_BYTES = 64

    def __init__(self):
        self.db = DataStore()

    def execute(self, command: Sequence) -> Any:
        """Execute one command (raises RedisError on bad input)."""
        return execute_command(self.db, command)

    def bgsave(self) -> Snapshot:
        """``BGSAVE``: capture the keyspace image now."""
        image = self.db.dump()
        return Snapshot(image, max(1, len(image)) * self.KEY_BYTES)

    def restart(self, snapshot: Optional[Snapshot]) -> None:
        """Restart the instance from ``snapshot`` (None: an empty
        keyspace).  D-Redis's ``Restore(token)`` passes the snapshot
        that seals the restored version."""
        self.db = DataStore()
        if snapshot is not None:
            self.db.load(snapshot.image)
