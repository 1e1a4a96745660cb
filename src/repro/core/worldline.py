"""World-line tracking for non-blocking recovery (§4.2).

Every failure is assigned a serial id by the cluster manager; the id
names the *world-line* the system evolves on after the corresponding
rollback.  Requests carry the issuer's world-line and a StateObject
executes a request only when world-lines match:

- object ahead of client  -> the client missed a failure; REJECT so it
  can compute its surviving prefix and advance;
- client ahead of object  -> the object has not finished rolling back;
  DELAY the request until it has;
- equal                   -> EXECUTE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class WorldLineDecision(enum.Enum):
    """Outcome of comparing a request's world-line with an object's."""

    EXECUTE = "execute"
    REJECT = "reject"  # object is ahead: client must handle the failure
    DELAY = "delay"    # client is ahead: object must finish recovery


def gate(object_world_line: int, request_world_line: int) -> WorldLineDecision:
    """Apply the §4.2 gating rule."""
    if object_world_line == request_world_line:
        return WorldLineDecision.EXECUTE
    if object_world_line > request_world_line:
        return WorldLineDecision.REJECT
    return WorldLineDecision.DELAY


@dataclass
class WorldLine:
    """A mutable world-line counter held by sessions and StateObjects."""

    current: int = field(default=0, init=False)

    def advance_to(self, world_line: int) -> bool:
        """Move forward to ``world_line``; returns True if we moved.

        World-lines never move backwards — a smaller value is ignored,
        which makes redundant rollback notifications idempotent.
        """
        if world_line > self.current:
            self.current = world_line
            return True
        return False

    def gate(self, request_world_line: int) -> WorldLineDecision:
        return gate(self.current, request_world_line)
