"""Tests for the runtime invariant auditor."""

import pytest

from repro.core import InMemoryStateObject
from repro.core.audit import (
    InvariantViolation,
    audit_cut,
    audit_deployment,
    audit_durability_order,
    audit_monotonicity,
    audit_world_lines,
)
from repro.core.finder import ApproximateDprFinder, ExactDprFinder
from repro.core.libdpr import DprClientSession, DprServer
from repro.core.recovery import RecoveryController
from repro.core.versioning import Token


def healthy_deployment():
    finder = ExactDprFinder()
    objects = {name: InMemoryStateObject(name) for name in "AB"}
    servers = {name: DprServer(obj, finder)
               for name, obj in objects.items()}
    session = DprClientSession("s")
    for index in range(6):
        target = "A" if index % 2 == 0 else "B"
        header = session.prepare_batch(target, 1)
        session.absorb_response(
            servers[target].process_batch(header, [("incr", "n")]))
        if index % 2 == 1:
            servers[target].commit()
    servers["A"].commit()
    servers["B"].commit()
    finder.tick()
    return finder, objects, servers


class TestHealthyDeployment:
    def test_all_audits_pass(self):
        finder, objects, _ = healthy_deployment()
        assert audit_deployment(finder, objects) == [
            "monotonicity", "durability-order", "cut", "world-lines",
        ]

    def test_audits_pass_after_recovery(self):
        finder, objects, _ = healthy_deployment()
        RecoveryController(finder).recover(objects)
        audit_deployment(finder, objects)

    def test_audits_pass_mid_uncommitted_work(self):
        finder, objects, _ = healthy_deployment()
        objects["A"].execute(("set", "x", 1), deps=[Token("B", 2)])
        audit_deployment(finder, objects)


class TestViolationsDetected:
    def test_monotonicity_violation(self):
        obj = InMemoryStateObject("A")
        # Forge a non-monotone descriptor by injecting a dep directly.
        obj._pending_deps.add(Token("B", 99))
        obj.execute(("set", "k", 1))
        obj.commit()
        with pytest.raises(InvariantViolation, match="monotonicity"):
            audit_monotonicity({"A": obj})

    def test_durability_order_violation(self):
        obj = InMemoryStateObject("A")
        obj.execute(("set", "k", 1))
        obj.commit()
        obj._persisted_versions.append(1)  # corrupt: duplicate entry
        with pytest.raises(InvariantViolation, match="durability"):
            audit_durability_order({"A": obj})

    def test_cut_closure_violation(self):
        finder = ApproximateDprFinder()
        objects = {name: InMemoryStateObject(name) for name in "AB"}
        for name, obj in objects.items():
            finder.register_object(name)
        # B-1 depends on A-2 being covered -- forge a bad published cut.
        objects["B"].execute(("set", "k", 1), deps=[Token("A", 1)])
        objects["B"].commit()
        objects["A"].commit()
        finder.report_persisted(Token("B", 1))
        finder.report_persisted(Token("A", 1))
        from repro.core.cuts import DprCut
        finder.table.publish_cut(DprCut({"B": 1}))  # A missing: not closed
        with pytest.raises(InvariantViolation, match="closure"):
            audit_cut(finder, objects)

    def test_world_line_violation(self):
        finder, objects, _ = healthy_deployment()
        objects["A"].world_line.advance_to(9)  # ahead of anything published
        with pytest.raises(InvariantViolation, match="world-line"):
            audit_world_lines(finder, objects)

    def test_world_line_skipped_while_halted(self):
        finder, objects, _ = healthy_deployment()
        finder.halted = True
        objects["A"].world_line.advance_to(9)
        audit_world_lines(finder, objects)  # no raise mid-recovery
