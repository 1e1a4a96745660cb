"""A Redis-style single-threaded cache-store (the D-Redis substrate, §6).

The clone reproduces the externally observable contract libDPR relies
on: strictly serial command execution, ``BGSAVE``-style snapshot
images, and restart-based recovery (D-Redis implements ``Restore()`` by
restarting the instance from a snapshot).

The command set is what the libDPR ledger, its micro-benchmark and the
examples issue: ``SET``/``GET`` over strings and ``RPUSH``/``LRANGE``/
``LPOP`` over lists.
"""

from repro.redisclone.datastore import DataStore, RedisError, WrongTypeError
from repro.redisclone.commands import COMMANDS, execute_command
from repro.redisclone.server import RedisServer, Snapshot
from repro.redisclone.state_object import RedisStateObject

__all__ = [
    "COMMANDS",
    "DataStore",
    "RedisError",
    "RedisServer",
    "RedisStateObject",
    "Snapshot",
    "WrongTypeError",
    "execute_command",
]
