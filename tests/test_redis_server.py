"""Tests for command dispatch, snapshots, and the server lifecycle."""

import pytest

from repro.redisclone.commands import COMMANDS, execute_command
from repro.redisclone.datastore import DataStore, RedisError
from repro.redisclone.server import RedisServer
from repro.redisclone.state_object import RedisStateObject


class TestCommandDispatch:
    def test_case_insensitive(self):
        db = DataStore()
        execute_command(db, ("set", "k", "v"))
        assert execute_command(db, ("GET", "k")) == "v"

    def test_unknown_command(self):
        with pytest.raises(RedisError, match="unknown command"):
            execute_command(DataStore(), ("NOPE",))

    def test_arity_too_few(self):
        with pytest.raises(RedisError, match="wrong number"):
            execute_command(DataStore(), ("SET", "k"))

    def test_arity_too_many_non_variadic(self):
        with pytest.raises(RedisError, match="wrong number"):
            execute_command(DataStore(), ("GET", "k", "extra"))

    def test_variadic_accepts_more(self):
        assert execute_command(DataStore(), ("RPUSH", "l", "a", "b", "c")) == 3

    def test_empty_command(self):
        with pytest.raises(RedisError):
            execute_command(DataStore(), ())

    def test_command_table_coverage(self):
        # The contract libDPR's callers use: strings and a FIFO list.
        assert set(COMMANDS) == {"SET", "GET", "RPUSH", "LRANGE", "LPOP"}

    @pytest.mark.parametrize("start, stop", [("x", "1"), ("0", "1.5"),
                                             (None, "1")])
    def test_malformed_lrange_bound_is_a_redis_error(self, start, stop):
        server = RedisServer()
        server.execute(("RPUSH", "l", "a", "b"))
        with pytest.raises(RedisError, match="not an integer"):
            server.execute(("LRANGE", "l", start, stop))
        assert server.execute(("LRANGE", "l", "0", "-1")) == ["a", "b"]


class TestServerLifecycle:
    def test_crash_without_persistence_loses_all(self):
        server = RedisServer()
        server.execute(("SET", "k", "v"))
        server.restart(None)
        assert server.execute(("GET", "k")) is None

    def test_snapshot_recovers_prefix(self):
        server = RedisServer()
        server.execute(("SET", "k", "v1"))
        server.execute(("RPUSH", "l", "a"))
        snapshot = server.bgsave()
        server.execute(("SET", "k", "v2"))
        server.execute(("RPUSH", "l", "b"))
        server.restart(snapshot)
        assert server.execute(("GET", "k")) == "v1"
        assert server.execute(("LRANGE", "l", 0, -1)) == ["a"]
        # The image outlives a restart: writes after it do not leak in.
        server.execute(("LPOP", "l"))
        server.restart(snapshot)
        assert server.execute(("LRANGE", "l", 0, -1)) == ["a"]


class TestRedisStateObject:
    def test_commit_restore_cycle(self):
        shard = RedisStateObject("R0")
        shard.execute(("SET", "k", "committed"))
        descriptor = shard.commit()
        shard.execute(("SET", "k", "volatile"))
        shard.restore(descriptor.token.version)
        assert shard.get("k") == "committed"

    def test_restore_to_zero_flushes(self):
        shard = RedisStateObject("R0")
        shard.execute(("SET", "k", "v"))
        shard.commit()
        shard.restore(0)
        assert shard.get("k") is None

    def test_versions_map_to_snapshots(self):
        shard = RedisStateObject("R0")
        shard.execute(("SET", "k", "a"))
        shard.commit()  # version 1
        shard.execute(("SET", "k", "b"))
        shard.commit()  # version 2
        shard.execute(("SET", "k", "c"))
        shard.restore(2)
        assert shard.get("k") == "b"
        shard.restore(1)
        assert shard.get("k") == "a"

    def test_checkpoint_bytes_positive(self):
        shard = RedisStateObject("R0")
        shard.execute(("SET", "k", "v"))
        descriptor = shard.commit()
        assert shard.checkpoint_bytes(descriptor.token.version) > 0
