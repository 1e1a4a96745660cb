"""Tests for the Redis-clone data structures."""

import pytest

from repro.redisclone.datastore import DataStore, WrongTypeError


@pytest.fixture
def db():
    return DataStore()


class TestStrings:
    def test_set_get(self, db):
        db.set("k", "v")
        assert db.get("k") == "v"

    def test_get_missing(self, db):
        assert db.get("k") is None

    def test_values_coerced_to_str(self, db):
        db.set("k", 42)
        assert db.get("k") == "42"


class TestGeneric:
    def test_wrong_type_errors(self, db):
        db.set("k", "string")
        with pytest.raises(WrongTypeError):
            db.rpush("k", "x")
        with pytest.raises(WrongTypeError):
            db.lpop("k")
        db.rpush("l", "x")
        with pytest.raises(WrongTypeError):
            db.get("l")


class TestLists:
    def test_push_pop_both_ends(self, db):
        # RPUSH appends at the tail, LPOP takes from the head: a FIFO.
        assert db.rpush("l", "a", "b") == 2
        assert db.rpush("l", "c") == 3
        assert db.lrange("l", 0, -1) == ["a", "b", "c"]
        assert db.lpop("l") == "a"
        assert db.lrange("l", 0, -1) == ["b", "c"]

    def test_pop_empty(self, db):
        assert db.lpop("l") is None

    def test_llen_and_cleanup(self, db):
        db.rpush("l", "x")
        assert len(db.lrange("l", 0, -1)) == 1
        db.lpop("l")
        # The emptied list is gone: the key may hold a string again.
        assert "l" not in db.dump()
        assert db.get("l") is None

    def test_lrange_inclusive_stop(self, db):
        db.rpush("l", "a", "b", "c", "d")
        assert db.lrange("l", 1, 2) == ["b", "c"]


class TestSnapshotSupport:
    def test_dump_load_round_trip(self, db):
        db.set("s", "v")
        db.rpush("l", "a", "b")
        image = db.dump()
        other = DataStore()
        other.load(image)
        assert other.get("s") == "v"
        assert other.lrange("l", 0, -1) == ["a", "b"]

    def test_dump_is_deep(self, db):
        db.rpush("l", "a")
        image = db.dump()
        db.rpush("l", "b")
        assert image["l"] == ("a",)
        other = DataStore()
        other.load(image)
        other.rpush("l", "c")
        assert image["l"] == ("a",)
