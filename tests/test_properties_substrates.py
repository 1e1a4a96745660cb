"""Property-based tests for the Redis-clone substrate."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.redisclone.commands import execute_command
from repro.redisclone.datastore import DataStore
from repro.redisclone.persistence import AofPolicy
from repro.redisclone.server import RedisServer

SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

keys = st.sampled_from(["k0", "k1", "k2", "k3"])
redis_command = st.one_of(
    st.tuples(st.just("SET"), keys, st.integers(0, 99).map(str)),
    st.tuples(st.just("INCR"), keys),
    st.tuples(st.just("DEL"), keys),
    st.tuples(st.just("APPEND"), keys, st.sampled_from(["x", "yz"])),
    st.tuples(st.just("RPUSH"), st.just("list"), st.integers(0, 9).map(str)),
    st.tuples(st.just("LPOP"), st.just("list")),
    st.tuples(st.just("SADD"), st.just("set"), keys),
)


def _state_of(db: DataStore):
    def copied(value):
        if isinstance(value, (list, set)):
            return type(value)(value)
        if isinstance(value, dict):
            return dict(value)
        return value

    return {key: copied(db._values[key]) for key in sorted(db.keys())}


class TestRedisDurabilityProperties:
    @SETTINGS
    @given(commands=st.lists(redis_command, min_size=1, max_size=40))
    def test_aof_always_crash_recovers_everything(self, commands):
        """With appendfsync=always, a crash loses nothing."""
        server = RedisServer(aof_policy=AofPolicy.ALWAYS)
        reference = DataStore()
        for command in commands:
            try:
                server.execute(command)
            except Exception:
                continue
            execute_command(reference, command)
        server.crash()
        server.restart()
        assert _state_of(server.db) == _state_of(reference)

    @SETTINGS
    @given(
        commands=st.lists(redis_command, min_size=2, max_size=40),
        snapshot_at=st.integers(0, 39),
    )
    def test_snapshot_plus_suffix_equals_full_replay(self, commands,
                                                     snapshot_at):
        """Recovery from RDB + AOF suffix equals replaying everything."""
        snapshot_at = min(snapshot_at, len(commands) - 1)
        server = RedisServer(aof_policy=AofPolicy.ALWAYS)
        reference = DataStore()
        for index, command in enumerate(commands):
            try:
                server.execute(command)
            except Exception:
                continue
            execute_command(reference, command)
            if index == snapshot_at:
                server.save()
        server.crash()
        server.restart()
        assert _state_of(server.db) == _state_of(reference)

    @SETTINGS
    @given(commands=st.lists(redis_command, min_size=1, max_size=40))
    def test_no_aof_crash_recovers_last_snapshot(self, commands):
        """Without the AOF, recovery lands exactly on the last SAVE."""
        server = RedisServer(aof_policy=AofPolicy.NO)
        reference = DataStore()
        snapshot_state = {}
        for index, command in enumerate(commands):
            try:
                server.execute(command)
            except Exception:
                continue
            execute_command(reference, command)
            if index == len(commands) // 2:
                server.save()
                snapshot_state = _state_of(reference)
        if not snapshot_state and len(commands) == 1:
            server.save()
            snapshot_state = _state_of(reference)
        server.crash()
        server.restart(replay_aof=False)
        assert _state_of(server.db) == snapshot_state
