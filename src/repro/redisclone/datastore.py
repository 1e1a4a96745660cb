"""The in-memory data structures behind the Redis clone.

One :class:`DataStore` holds a flat keyspace whose values are strings
(``str``) or lists (a ``tuple`` of ``str``).  Every value is immutable:
a list command rebinds its key to a new tuple, so a snapshot image is a
shallow copy of the keyspace dict that later commands cannot reach into
(the fork's copy-on-write moment, with no per-key work).  All accesses
are strictly serial — the clone, like Redis, is single-threaded — so no
locking appears anywhere.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class RedisError(Exception):
    """A command error, rendered to clients as ``-ERR ...``."""


class WrongTypeError(RedisError):
    """Operation against a key holding the wrong kind of value."""

    def __init__(self):
        super().__init__(
            "WRONGTYPE Operation against a key holding the wrong kind of value"
        )


class DataStore:
    """The keyspace: key -> string or tuple of strings."""

    def __init__(self):
        self._values: Dict[str, Any] = {}

    def _list(self, key: str) -> Optional[Tuple[str, ...]]:
        """The list at ``key``, or None."""
        items = self._values.get(key)
        if items is not None and not isinstance(items, tuple):
            raise WrongTypeError()
        return items

    # -- strings ------------------------------------------------------------------

    def set(self, key: str, value: str) -> None:
        self._values[key] = str(value)

    def get(self, key: str) -> Optional[str]:
        value = self._values.get(key)
        if isinstance(value, tuple):
            raise WrongTypeError()
        return value

    # -- lists -----------------------------------------------------------------------

    def rpush(self, key: str, *values: str) -> int:
        items = self._values[key] = (
            (self._list(key) or ()) + tuple(map(str, values)))
        return len(items)

    def lpop(self, key: str) -> Optional[str]:
        items = self._list(key)
        if not items:
            return None
        if len(items) > 1:
            self._values[key] = items[1:]
        else:
            del self._values[key]
        return items[0]

    def lrange(self, key: str, start: int, stop: int) -> List[str]:
        items = self._list(key) or ()
        # Redis LRANGE stop is inclusive; -1 means end of list.
        if stop == -1:
            return list(items[start:])
        return list(items[start:stop + 1])

    # -- snapshot support ----------------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """The keyspace image for RDB-style snapshots (values are
        immutable, so a shallow copy is a deep one)."""
        return dict(self._values)

    def load(self, image: Dict[str, Any]) -> None:
        self._values = dict(image)
