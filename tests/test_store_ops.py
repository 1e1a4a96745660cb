"""The libDPR stores' ops against the op bodies they replaced.

``FasterKV``'s ops used to return an ``OpOutcome(status, value, version,
pending_address)`` and to reach the index, the log and the thread
table through one accessor call each; the Redis clone used to keep
lists as ``list`` values and deep-copy them into every snapshot.
``ReferenceKV`` and ``ReferenceDataStore`` below keep those bodies, as
the reference models.  ``ReferenceKV`` carries one fix the store also
got (a cold RMW reads its record and appends the update instead of
dropping it), and ``reference_op`` maps its outcomes to the values the
store's ops return.  The properties drive a store and its reference
through the same random history and compare, after every step, what
each returned and everything of their state.
"""

import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faster.hash_index import _STR_SEED, _stable_hash
from repro.faster.record import NULL_ADDRESS, Record
from repro.faster.statemachine import Phase
from repro.faster.store import FasterKV, PendingMarker
from repro.redisclone.commands import execute_command
from repro.redisclone.datastore import DataStore, RedisError, WrongTypeError

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- FASTER ---------------------------------------------------------------------


class OpStatus:
    OK = "ok"
    NOT_FOUND = "not_found"
    PENDING = "pending"


class OpOutcome:
    __slots__ = ("status", "value", "version", "pending_address")

    def __init__(self, status, value=None, version=0,
                 pending_address=NULL_ADDRESS):
        self.status = status
        self.value = value
        self.version = version
        self.pending_address = pending_address


def _reference_hash(key):
    if isinstance(key, str):
        return zlib.crc32(b"s:" + key.encode("utf-8"))
    return _stable_hash(key)


class ReferenceKV(FasterKV):
    """The op bodies as they were, one accessor call per field read."""

    def _thread_version(self, thread_id):
        return self.epoch._threads[thread_id].version

    def _bucket_of(self, key):
        return _reference_hash(key) % self.index.bucket_count

    def _head_address(self, bucket):
        return self.index._buckets.get(bucket, NULL_ADDRESS)

    def _in_memory(self, address):
        return address >= self.log.head_address

    def _mutable(self, address):
        return address >= self.log.read_only_address

    def _find(self, key):
        bucket = self._bucket_of(key)
        address = self._head_address(bucket)
        low, high = self._hidden_versions()
        get = self.log.get
        while address != NULL_ADDRESS:
            record = get(address)
            if (record.key == key and not record.invalid
                    and not low < record.version <= high):
                return bucket, address, record
            address = record.previous_address
        return bucket, NULL_ADDRESS, None

    def read(self, key, thread_id=FasterKV.DEFAULT_THREAD):
        version = self._thread_version(thread_id)
        _, address, record = self._find(key)
        if record is None:
            return OpOutcome(OpStatus.NOT_FOUND, version=version)
        if not self._in_memory(address):
            self.reads_pending += 1
            return OpOutcome(OpStatus.PENDING, version=version,
                             pending_address=address)
        if record.tombstone:
            return OpOutcome(OpStatus.NOT_FOUND, version=version)
        return OpOutcome(OpStatus.OK, value=record.value, version=version)

    def resolve_pending_read(self, key, address,
                             thread_id=FasterKV.DEFAULT_THREAD):
        record = self.log.get(address)
        version = self._thread_version(thread_id)
        low, high = self._hidden_versions()
        if (record.tombstone or record.invalid
                or low < record.version <= high or record.key != key):
            return OpOutcome(OpStatus.NOT_FOUND, version=version)
        return OpOutcome(OpStatus.OK, value=record.value, version=version)

    def upsert(self, key, value, thread_id=FasterKV.DEFAULT_THREAD):
        version = self._thread_version(thread_id)
        bucket, address, record = self._find(key)
        if (
            record is not None
            and self._mutable(address)
            and record.version == version
            and not record.tombstone
        ):
            record.value = value
            self.in_place_updates += 1
            return OpOutcome(OpStatus.OK, version=version)
        self._append(bucket, key, value, version, tombstone=False)
        if record is not None:
            self.rcu_appends += 1
        return OpOutcome(OpStatus.OK, version=version)

    def rmw(self, key, update, initial=None,
            thread_id=FasterKV.DEFAULT_THREAD):
        version = self._thread_version(thread_id)
        bucket, address, record = self._find(key)
        if record is None or record.tombstone:
            value = update(initial)
            self._append(bucket, key, value, version, tombstone=False)
            return OpOutcome(OpStatus.OK, value=value, version=version)
        if not self._in_memory(address):
            # The fix: read the cold record, then fall through to RCU.
            self.reads_pending += 1
        elif self._mutable(address) and record.version == version:
            record.value = update(record.value)
            self.in_place_updates += 1
            return OpOutcome(OpStatus.OK, value=record.value, version=version)
        value = update(record.value)
        self._append(bucket, key, value, version, tombstone=False)
        self.rcu_appends += 1
        return OpOutcome(OpStatus.OK, value=value, version=version)

    def delete(self, key, thread_id=FasterKV.DEFAULT_THREAD):
        version = self._thread_version(thread_id)
        bucket, _, record = self._find(key)
        if record is None or record.tombstone:
            return OpOutcome(OpStatus.NOT_FOUND, version=version)
        self._append(bucket, key, None, version, tombstone=True)
        return OpOutcome(OpStatus.OK, version=version)

    def _append(self, bucket, key, value, version, tombstone):
        record = Record(key, value, version, tombstone=tombstone)
        address = self.log.append(record)
        record.previous_address = self.index.publish(bucket, address)
        return address


def reference_op(kv, kind, key, value):
    """One op on the reference, its outcome mapped to the store's value."""
    if kind == "read":
        outcome = kv.read(key)
        if outcome.status == OpStatus.PENDING:
            return PendingMarker(key, outcome.pending_address)
        return outcome.value
    if kind == "resolve":
        return kv.resolve_pending_read(key, value).value
    if kind == "upsert":
        kv.upsert(key, value)
        return None
    if kind == "upsert-t1":
        kv.upsert(key, value, thread_id="t1")
        return None
    if kind == "rmw":
        return kv.rmw(key, lambda v, a=value: (v or 0) * 2 + a).value
    if kind == "incr":
        return kv.rmw(key, lambda v, a=value: (v or 0) + a, initial=0).value
    return kv.delete(key).status == OpStatus.OK


def store_op(kv, kind, key, value):
    if kind == "read":
        return kv.read(key)
    if kind == "resolve":
        return kv.resolve_pending_read(key, value)
    if kind == "upsert":
        return kv.upsert(key, value)
    if kind == "upsert-t1":
        return kv.upsert(key, value, thread_id="t1")
    if kind == "rmw":
        return kv.rmw(key, lambda v, a=value: (v or 0) * 2 + a)
    if kind == "incr":
        return kv.rmw(key, lambda v, a=value: (v or 0) + a, initial=0)
    return kv.delete(key)


def control(kv, kind, value):
    """Step a checkpoint or rollback machine, where the phase allows.

    ``checkpoint`` and ``rollback`` leave t0 in the new version and t1
    behind it, so the next ops meet a fuzzy boundary (and, in THROW, a
    hidden range); ``refresh`` moves one thread on; ``commit`` runs a
    whole checkpoint, whose flush lets the head page records out.
    """
    epoch = kv.epoch
    phase = epoch.global_state.phase
    if kind == "checkpoint" and phase is Phase.REST:
        kv.begin_checkpoint()
        for thread_id in ("t0", "t1", "t0"):
            epoch.refresh(thread_id)
    elif kind == "rollback" and phase is Phase.REST:
        kv.begin_rollback(max(0, kv.current_version - 1 - value % 3))
        epoch.refresh("t0")
    elif kind == "refresh":
        epoch.refresh("t1" if value & 1 else "t0")
    elif kind == "commit" and phase is Phase.REST:
        kv.run_checkpoint_synchronously()
    elif kind == "flush" and phase is Phase.WAIT_FLUSH:
        kv.complete_flush()
    elif kind == "purge" and phase is Phase.PURGE:
        kv.purge_invalid()
        kv.complete_purge()


def observe(kv):
    log, state = kv.log, kv.epoch.global_state
    return {
        "counters": (kv.in_place_updates, kv.rcu_appends, kv.reads_pending),
        "records": [(r.key, r.value, r.version, r.previous_address,
                     r.tombstone, r.invalid) for r in log._records],
        "buckets": dict(kv.index._buckets),
        "log": (log.head_address, log.read_only_address,
                log.flushed_until_address),
        "epoch": (state.phase, state.version, state.safe_version,
                  state.boundary_version),
        "checkpoints": sorted(kv.checkpoints),
    }


OPS = ("read", "upsert", "upsert-t1", "rmw", "incr", "delete")
CONTROLS = ("checkpoint", "rollback", "refresh", "commit", "flush", "purge")
#: Str keys take the inline crc32 path, the others ``_stable_hash``.
KEYS = ("a", "b", "ключ", 1, 2, ("t", 1))

faster_history = st.lists(
    st.tuples(st.sampled_from(OPS * 2 + CONTROLS + ("refresh",) * 2),
              st.sampled_from(KEYS), st.integers(0, 9)),
    min_size=30, max_size=100)


class TestFasterOpsMatchReference:
    @SETTINGS
    @given(bucket_count=st.sampled_from([1, 16]),
           budget=st.sampled_from([None, 2, 4]),
           history=faster_history)
    def test_same_values_counters_and_log(self, bucket_count, budget,
                                          history):
        store = FasterKV(bucket_count=bucket_count,
                         memory_budget_records=budget)
        reference = ReferenceKV(bucket_count=bucket_count,
                                memory_budget_records=budget)
        for kv in (store, reference):
            kv.epoch.register_thread("t1")
        for kind, key, value in history:
            if kind in CONTROLS:
                for kv in (store, reference):
                    control(kv, kind, value)
            else:
                got = store_op(store, kind, key, value)
                expected = reference_op(reference, kind, key, value)
                assert got == expected, (kind, key)
                if isinstance(got, PendingMarker):
                    assert (store_op(store, "resolve", key, got.address)
                            == reference_op(reference, "resolve", key,
                                            got.address))
            assert observe(store) == observe(reference)

    @SETTINGS
    @given(key=st.text())
    def test_str_bucket_hash_is_the_prefixed_crc(self, key):
        assert (zlib.crc32(key.encode(), _STR_SEED)
                == zlib.crc32(b"s:" + key.encode("utf-8"))
                == _stable_hash(key))

    def test_a_dangling_chain_address_raises(self):
        kv = FasterKV(bucket_count=1)
        kv.upsert("a", 1)
        for dangling in (7, -5):  # past the tail; negative, not NULL
            kv.log._records[0].previous_address = dangling
            with pytest.raises(IndexError):
                kv.read("b")


# -- Redis clone ------------------------------------------------------------------------


class ReferenceDataStore:
    """The keyspace as it was: lists as mutable ``list`` values, and a
    snapshot that copies every list."""

    def __init__(self):
        self._values = {}

    def _list(self, key, create=False):
        items = self._values.get(key)
        if items is None:
            if create:
                items = self._values[key] = []
            return items
        if not isinstance(items, list):
            raise WrongTypeError()
        return items

    def set(self, key, value):
        self._values[key] = str(value)

    def get(self, key):
        value = self._values.get(key)
        if isinstance(value, list):
            raise WrongTypeError()
        return value

    def rpush(self, key, *values):
        items = self._list(key, create=True)
        items.extend(str(v) for v in values)
        return len(items)

    def lpop(self, key):
        items = self._list(key)
        if not items:
            return None
        value = items.pop(0)
        if not items:
            del self._values[key]
        return value

    def lrange(self, key, start, stop):
        items = self._list(key) or []
        if stop == -1:
            return list(items[start:])
        return list(items[start:stop + 1])

    def dump(self):
        return {key: list(value) if isinstance(value, list) else value
                for key, value in self._values.items()}

    def load(self, image):
        self._values = {key: list(value) if isinstance(value, list)
                        else value for key, value in image.items()}


def _as_tuples(values):
    return {key: tuple(value) if isinstance(value, list) else value
            for key, value in values.items()}


def _outcome(call):
    try:
        return "ok", call()
    except RedisError as error:
        return "error", (type(error), str(error))


def _name(name):
    """A command name as the table spells it, or in lower case."""
    return st.sampled_from([name, name.lower()])


redis_keys = st.sampled_from(["k", "l"])
redis_step = st.one_of(
    st.tuples(_name("SET"), redis_keys, st.integers(0, 9).map(str)),
    st.tuples(_name("GET"), redis_keys),
    st.tuples(_name("RPUSH"), redis_keys,
              st.lists(st.integers(0, 9).map(str), min_size=1, max_size=3)),
    st.tuples(_name("LPOP"), redis_keys),
    st.tuples(_name("LRANGE"), redis_keys, st.integers(-2, 2),
              st.integers(-2, 2)),
    st.tuples(_name("NOPE"), redis_keys),
    st.tuples(st.sampled_from(["dump", "load"]), st.integers(0, 3)),
)


class TestRedisOpsMatchReference:
    @SETTINGS
    @given(history=st.lists(redis_step, min_size=20, max_size=60))
    def test_same_replies_state_and_images(self, history):
        store, reference = DataStore(), ReferenceDataStore()
        #: (store image, reference image, both as they read when taken)
        images = []
        for step in history:
            if step[0] == "dump":
                image, expected = store.dump(), reference.dump()
                assert image == _as_tuples(expected)
                images.append((image, expected, dict(image)))
            elif step[0] == "load":
                if images:
                    image, expected, _ = images[step[1] % len(images)]
                    store.load(image)
                    reference.load(expected)
            else:
                name, key, *args = step
                if name.upper() == "RPUSH":
                    args = args[0]
                command = (name, key, *args)
                got = _outcome(lambda: execute_command(store, command))
                want = _outcome(lambda: execute_command(reference, command))
                assert got == want, command
            assert store._values == _as_tuples(reference._values)
            # Nothing done after a dump or a load reaches into an image.
            for image, expected, taken in images:
                assert image == taken == _as_tuples(expected)
