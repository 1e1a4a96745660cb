"""Checkpoint durability metadata and crash recovery.

A fold-over checkpoint of version ``v`` makes the log prefix
``[0, until_address_v)`` durable.  Crash recovery rebuilds a fresh
FasterKV from that prefix, *filtering out records stamped with versions
greater than v*: because the capture boundary is fuzzy (threads enter
the new version at their own pace), new-version records may sit below
the boundary and must not resurrect (§5.5).

Live rollbacks never use this path — they run the non-blocking
THROW/PURGE machine on the running instance; this is the cold-restart
path the cluster manager uses for the *failed* node.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faster.record import Record
from repro.faster.store import CheckpointInfo, FasterKV


def durable_prefix(kv: FasterKV, version: int) -> int:
    """Log address up to which checkpoint ``version`` is durable."""
    info = kv.checkpoints.get(version)
    if info is None:
        raise KeyError(f"no checkpoint for version {version}")
    return info.until_address


def recover(kv: FasterKV, version: int,
            bucket_count: Optional[int] = None) -> FasterKV:
    """Cold-start a new FasterKV from ``kv``'s checkpoint of ``version``.

    Simulates a restarted process reading the durable log: scans the
    checkpointed prefix in address order, skips records from versions
    newer than the checkpoint, and replays the survivors (so index
    chains are rebuilt consistently).  The recovered instance resumes
    at ``version + 1``.
    """
    until = durable_prefix(kv, version)
    recovered = FasterKV(
        bucket_count=bucket_count or kv.index.bucket_count,
        start_version=version + 1,
    )
    for _address, record in kv.log.scan(0, until):
        if record.version > version or record.invalid:
            continue
        # Replay by direct append (keeps the original version stamps and
        # rebuilds each bucket's chain in address order).
        replayed = Record(key=record.key, value=record.value,
                          version=record.version, tombstone=record.tombstone)
        address = recovered.log.append(replayed)
        replayed.previous_address = recovered.index.publish(
            recovered.index.bucket_of(record.key), address)
    # The replayed state is durable by construction.
    span_from, span_to = recovered.log.mark_read_only()
    recovered.log.flush_complete(span_to)
    recovered.checkpoints[version] = CheckpointInfo(
        version=version,
        until_address=span_to,
        flush_bytes=(span_to - span_from) * Record.SERIALIZED_BYTES,
    )
    return recovered


def materialize(kv: FasterKV, version: Optional[int] = None) -> Dict:
    """The key->value map as of checkpoint ``version`` (or live state).

    A test/verification helper: walks the durable prefix (or the whole
    log) in address order applying upserts and tombstones, honouring
    version filtering and invalid marks.
    """
    if version is not None:
        until = durable_prefix(kv, version)
        ceiling = version
    else:
        until = kv.log.tail_address
        ceiling = None
    state: Dict = {}
    low, high = kv._hidden_versions()
    for _address, record in kv.log.scan(0, until):
        if record.invalid or low < record.version <= high:
            continue
        if ceiling is not None and record.version > ceiling:
            continue
        if record.tombstone:
            state.pop(record.key, None)
        else:
            state[record.key] = record.value
    return state
