"""The Redis clone as a DPR StateObject — the D-Redis server side (§6).

The mapping the paper describes:

- ``Commit()``  -> ``BGSAVE`` under an exclusive latch (the snapshot is
  the sealed version's image; the version becomes durable when the
  flush layer calls ``mark_persisted``);
- ``Restore()`` -> restart the Redis instance from the snapshot that
  matches the restore token;
- operations    -> unmodified Redis commands, forwarded as-is.

Because the wrapper executes whole batches under one shared latch, all
operations of a batch land in the same version; the libDPR server
drives this class exactly like any other StateObject.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.core.state_object import StateObject
from repro.redisclone.server import RedisServer, Snapshot


class RedisStateObject(StateObject):
    """One D-Redis shard: an unmodified RedisServer behind StateObject."""

    def __init__(self, object_id: str, **kwargs):
        super().__init__(object_id, **kwargs)
        self.server = RedisServer()
        #: DPR version -> the BGSAVE snapshot that seals it.
        self._version_snapshots: Dict[int, Snapshot] = {}

    # -- storage hooks ------------------------------------------------------

    def apply(self, op: Sequence) -> Any:
        """Forward one command tuple to the unmodified server."""
        return self.server.execute(op)

    def snapshot(self, version: int) -> None:
        """Seal = BGSAVE; the image is captured at the latch boundary."""
        self._version_snapshots[version] = self.server.bgsave()

    def checkpoint_bytes(self, version: int) -> int:
        return self._version_snapshots[version].size_bytes

    def rollback_to(self, version: int) -> None:
        """Restore() = restart the instance from the matching snapshot."""
        candidates = [v for v in self._version_snapshots if v <= version]
        for stale in [v for v in self._version_snapshots if v > version]:
            del self._version_snapshots[stale]
        self.server.restart(
            self._version_snapshots[max(candidates)] if candidates else None)

    # -- convenience ----------------------------------------------------------

    def get(self, key: str) -> Any:
        return self.server.execute(("GET", key))
