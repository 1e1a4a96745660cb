"""The in-memory data structures behind the Redis clone.

One :class:`DataStore` holds a flat keyspace whose values are strings
(``str``) or lists (``list`` of ``str``).  All accesses are strictly
serial — the clone, like Redis, is single-threaded — so no locking
appears anywhere.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class RedisError(Exception):
    """A command error, rendered to clients as ``-ERR ...``."""


class WrongTypeError(RedisError):
    """Operation against a key holding the wrong kind of value."""

    def __init__(self):
        super().__init__(
            "WRONGTYPE Operation against a key holding the wrong kind of value"
        )


class DataStore:
    """The keyspace: key -> string or list."""

    def __init__(self):
        self._values: Dict[str, Any] = {}

    def _list(self, key: str, create: bool = False) -> Optional[List[str]]:
        """The list at ``key`` (created empty if asked), or None."""
        items = self._values.get(key)
        if items is None:
            if create:
                items = self._values[key] = []
            return items
        if not isinstance(items, list):
            raise WrongTypeError()
        return items

    # -- strings ------------------------------------------------------------------

    def set(self, key: str, value: str) -> None:
        self._values[key] = str(value)

    def get(self, key: str) -> Optional[str]:
        value = self._values.get(key)
        if isinstance(value, list):
            raise WrongTypeError()
        return value

    # -- lists -----------------------------------------------------------------------

    def rpush(self, key: str, *values: str) -> int:
        items = self._list(key, create=True)
        items.extend(str(v) for v in values)
        return len(items)

    def lpop(self, key: str) -> Optional[str]:
        items = self._list(key)
        if not items:
            return None
        value = items.pop(0)
        if not items:
            del self._values[key]
        return value

    def lrange(self, key: str, start: int, stop: int) -> List[str]:
        items = self._list(key) or []
        # Redis LRANGE stop is inclusive; -1 means end of list.
        if stop == -1:
            return list(items[start:])
        return list(items[start:stop + 1])

    # -- snapshot support ----------------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """A deep-enough copy for RDB-style snapshots."""
        return {key: list(value) if isinstance(value, list) else value
                for key, value in self._values.items()}

    def load(self, image: Dict[str, Any]) -> None:
        self._values = {key: list(value) if isinstance(value, list) else value
                        for key, value in image.items()}
