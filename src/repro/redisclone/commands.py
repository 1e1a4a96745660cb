"""The command table: name -> (arity, handler).

Commands arrive as ``(NAME, arg, ...)`` tuples (the simulated cluster
skips RESP text framing; batching and headers live in libDPR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence

from repro.redisclone.datastore import DataStore, RedisError


@dataclass(frozen=True)
class CommandSpec:
    """Arity is the minimum argument count; ``variadic`` allows more."""

    arity: int
    handler: Callable[..., Any]
    variadic: bool = False


COMMANDS: Dict[str, CommandSpec] = {}


def _register(name: str, arity: int, variadic: bool = False):
    def decorate(handler):
        COMMANDS[name] = CommandSpec(arity, handler, variadic)
        return handler
    return decorate


def _integer(value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise RedisError("value is not an integer or out of range") from None


@_register("SET", 2)
def _set(db: DataStore, key, value):
    db.set(key, value)
    return "OK"


@_register("GET", 1)
def _get(db: DataStore, key):
    return db.get(key)


@_register("RPUSH", 2, variadic=True)
def _rpush(db: DataStore, key, *values):
    return db.rpush(key, *values)


@_register("LPOP", 1)
def _lpop(db: DataStore, key):
    return db.lpop(key)


@_register("LRANGE", 3)
def _lrange(db: DataStore, key, start, stop):
    return db.lrange(key, _integer(start), _integer(stop))


def execute_command(db: DataStore, command: Sequence) -> Any:
    """Dispatch one ``(NAME, arg, ...)`` tuple against the store."""
    if not command:
        raise RedisError("empty command")
    # The table's own spelling hits at once; anything else is normalised.
    name = command[0]
    spec = COMMANDS.get(name) if type(name) is str else None
    if spec is None:
        name = str(name).upper()
        spec = COMMANDS.get(name)
        if spec is None:
            raise RedisError(f"unknown command '{name}'")
    args = command[1:]
    if len(args) < spec.arity or (len(args) > spec.arity and not spec.variadic):
        raise RedisError(f"wrong number of arguments for '{name.lower()}' command")
    return spec.handler(db, *args)
