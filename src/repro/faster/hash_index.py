"""FASTER's hash index, with collision chaining through the log.

The index maps a hash bucket to the *logical address* of the newest
record whose key hashes to that bucket.  Records chain backwards via
``previous_address`` — the chain interleaves different keys (hash
collisions) and older versions of the same key, exactly the structure
§5.5 exploits for non-blocking rollback: all non-garbage-collected
versions of a key remain reachable by walking the chain.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict

from repro.faster.record import NULL_ADDRESS

#: ``crc32(key.encode(), _STR_SEED)`` is ``crc32(b"s:" + key.encode())``
#: without building the prefixed bytes (crc32 continues from a seed).
_STR_SEED = zlib.crc32(b"s:")


def _stable_hash(key: Any) -> int:
    """A PYTHONHASHSEED-independent key hash (dprlint DPR-D04).

    Bucket placement feeds recovery-relevant structure (chain order,
    truncation points), so it must be identical across interpreter
    runs; the builtin ``hash()`` is salted for ``str``/``bytes``.
    Type prefixes keep ``1``, ``"1"`` and ``b"1"`` in distinct buckets,
    and tuples fold element-wise so composite keys work too.
    """
    if isinstance(key, bytes):
        return zlib.crc32(b"b:" + key)
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"), _STR_SEED)
    if isinstance(key, int):
        return zlib.crc32(b"i:%d" % key)
    if isinstance(key, tuple):
        digest = zlib.crc32(b"t:")
        for element in key:
            digest = zlib.crc32(b"%d," % _stable_hash(element), digest)
        return digest
    return zlib.crc32(b"r:" + repr(key).encode("utf-8"))


class HashIndex:
    """Bucketed hash table from key-hash to newest-record address."""

    def __init__(self, bucket_count: int = 1 << 16):
        if bucket_count < 1:
            raise ValueError("need at least one bucket")
        self.bucket_count = bucket_count
        #: bucket -> its chain's newest address (``FasterKV`` reads it).
        self._buckets: Dict[int, int] = {}

    def bucket_of(self, key: Any) -> int:
        return _stable_hash(key) % self.bucket_count

    def publish(self, bucket: int, address: int) -> int:
        """Point ``bucket`` (a key's :meth:`bucket_of`) at a freshly
        appended record.

        Returns the previous head address — the appender stores it as
        the new record's ``previous_address`` (this mirrors FASTER's
        compare-and-swap on the bucket entry).
        """
        previous = self._buckets.get(bucket, NULL_ADDRESS)
        self._buckets[bucket] = address
        return previous
