"""Property-based tests for the Redis-clone substrate."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.redisclone.commands import execute_command
from repro.redisclone.datastore import DataStore
from repro.redisclone.server import RedisServer

SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

keys = st.sampled_from(["k0", "k1", "k2", "k3"])
redis_command = st.one_of(
    st.tuples(st.just("SET"), keys, st.integers(0, 99).map(str)),
    st.tuples(st.just("RPUSH"), st.just("list"), st.integers(0, 9).map(str)),
    st.tuples(st.just("LPOP"), st.just("list")),
)


class TestRedisDurabilityProperties:
    @SETTINGS
    @given(commands=st.lists(redis_command, min_size=1, max_size=40))
    def test_no_aof_crash_recovers_last_snapshot(self, commands):
        """A restart from a snapshot lands exactly on its BGSAVE."""
        server = RedisServer()
        reference = DataStore()
        snapshot = None
        snapshot_state = {}
        for index, command in enumerate(commands):
            server.execute(command)
            execute_command(reference, command)
            if index == len(commands) // 2:
                snapshot = server.bgsave()
                snapshot_state = reference.dump()
        server.restart(snapshot)
        assert server.db.dump() == snapshot_state
