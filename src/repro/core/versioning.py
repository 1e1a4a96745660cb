"""Version tokens and commit descriptors.

A :class:`Token` names one committed version of one StateObject, written
``A-2`` in the paper.  Versions are *cumulative prefixes*: token ``A-2``
captures every operation ``A`` executed in versions ``<= 2``, so restoring
a StateObject to a token restores a prefix of that object's history.  This
is what makes the approximate min-version algorithm (§3.4) correct: if
``B-n`` depends on ``A-m`` then ``m <= n`` (monotonicity), so any cut at a
version floor ``V >= n`` necessarily covers ``A-m``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, NamedTuple, Tuple


class Token(NamedTuple):
    """A committed version of one StateObject (``A-2`` in the paper)."""

    object_id: str
    version: int

    def __str__(self) -> str:
        return f"{self.object_id}-{self.version}"

    @classmethod
    def parse(cls, text: str) -> "Token":
        """Parse the paper's ``A-2`` notation (last dash splits)."""
        object_id, _, version = text.rpartition("-")
        if not object_id:
            raise ValueError(f"not a token: {text!r}")
        return cls(object_id, int(version))


#: Version number of a StateObject that has never committed.
NEVER_COMMITTED = 0


@dataclass(frozen=True)
class CommitDescriptor:
    """Everything a ``Commit()`` reports to the DPR layer.

    Attributes:
        token: the new committed version.
        deps: cross-shard dependencies of this version, i.e. tokens this
            version must not be recovered without (§3.1).  Only the
            version-granularity edges are tracked, per the paper.
        session_watermarks: for each client session, the largest
            SessionOrder sequence number whose operation is captured by
            this version at this object.
        exceptions: relaxed-DPR exception lists (§5.4): per session, the
            sequence numbers *below* the watermark that went PENDING and
            are NOT captured by this version.
    """

    token: Token
    deps: FrozenSet[Token] = frozenset()
    session_watermarks: Dict[str, int] = field(default_factory=dict)
    exceptions: Dict[str, Tuple[int, ...]] = field(default_factory=dict)


def merge_dependencies(deps: FrozenSet[Token]) -> FrozenSet[Token]:
    """Collapse a dependency set to the max version per object.

    Because tokens are cumulative prefixes, depending on ``A-1`` and
    ``A-3`` is the same as depending on ``A-3`` alone.
    """
    strongest: Dict[str, int] = {}
    for token in sorted(deps):
        current = strongest.get(token.object_id)
        if current is None or token.version > current:
            strongest[token.object_id] = token.version
    return frozenset(Token(obj, ver) for obj, ver in strongest.items())
