"""Tests for tokens and commit descriptors."""

import pytest

from repro.core.versioning import (
    NEVER_COMMITTED,
    CommitDescriptor,
    Token,
    merge_dependencies,
)


class TestToken:
    def test_str_matches_paper_notation(self):
        assert str(Token("A", 2)) == "A-2"

    def test_parse_round_trips(self):
        token = Token("worker-3", 17)
        assert Token.parse(str(token)) == token

    def test_parse_handles_dashes_in_name(self):
        assert Token.parse("my-shard-5") == Token("my-shard", 5)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Token.parse("nodash")

    def test_ordering_is_tuple_like(self):
        assert Token("A", 1) < Token("A", 2) < Token("B", 1)

    def test_never_committed_is_zero(self):
        assert NEVER_COMMITTED == 0


class TestMergeDependencies:
    def test_keeps_max_per_object(self):
        merged = merge_dependencies(frozenset({
            Token("A", 1), Token("A", 3), Token("B", 2),
        }))
        assert merged == frozenset({Token("A", 3), Token("B", 2)})

    def test_empty(self):
        assert merge_dependencies(frozenset()) == frozenset()

    def test_single(self):
        single = frozenset({Token("X", 5)})
        assert merge_dependencies(single) == single


class TestCommitDescriptor:
    def test_frozen(self):
        descriptor = CommitDescriptor(token=Token("A", 1))
        with pytest.raises(AttributeError):
            descriptor.token = Token("A", 2)
