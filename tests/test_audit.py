"""Tests for the DPR oracle (``repro.core.audit``)."""

import pytest

from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig, RedisMode
from repro.core import InMemoryStateObject
from repro.core.audit import (
    InvariantViolation,
    audit_cut,
    audit_deployment,
    audit_durability_order,
    audit_monotonicity,
    audit_rollback,
    audit_sessions,
    audit_world_lines,
)
from repro.core.cuts import DprCut
from repro.core.finder import ApproximateDprFinder, ExactDprFinder
from repro.core.libdpr import DprClientSession, DprServer
from repro.core.recovery import RecoveryController
from repro.core.session import RollbackError, Session
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

    def test_cut_covering_an_unpersisted_version(self):
        # The old durability half compared max_persisted_version with
        # latest_persisted_at_or_below(position), which cannot differ.
        finder = ApproximateDprFinder()
        obj = InMemoryStateObject("A")
        obj.execute(("set", "k", 1))
        obj.commit()                      # A-1 durable
        obj.execute(("set", "k", 2))
        obj.seal_version()                # A-2 sealed, flush pending
        finder.table.publish_cut(DprCut({"A": 2}))
        with pytest.raises(InvariantViolation, match="durability"):
            audit_cut(finder, {"A": obj})

    def test_cut_covering_the_dirty_in_progress_version(self):
        finder = ApproximateDprFinder()
        obj = InMemoryStateObject("A")
        obj.execute(("set", "k", 1))      # runs in version 1, unsealed
        finder.table.publish_cut(DprCut({"A": 1}))
        with pytest.raises(InvariantViolation, match="durability"):
            audit_cut(finder, {"A": obj})

    def test_world_line_trailing_violation(self):
        # Recovery finished (finder un-halted) but A never moved on.
        finder, objects, _ = healthy_deployment()
        finder.table.publish_world_line(1)
        objects["B"].world_line.advance_to(1)
        with pytest.raises(InvariantViolation, match="A is at 0, behind"):
            audit_world_lines(finder, objects)


def committed_session():
    """A session with one span committed in A-1 and one in flight."""
    session = Session("s")
    session.issue("A", count=2)
    session.complete(1, version=1)
    session.refresh_commit(DprCut({"A": 1}))
    session.issue("B", count=1)
    return session


class TestClientChecks:
    def test_balanced_ledger_passes(self):
        audit_sessions([committed_session()])

    def test_over_counted_ledger(self):
        session = committed_session()
        session.aborted_ops += 2          # the committed span, twice
        with pytest.raises(InvariantViolation, match="ledger"):
            audit_sessions([session])

    def test_outstanding_ops_disagree_with_the_window(self):
        session = committed_session()
        session.outstanding_ops = 0       # the in-flight span forgotten
        with pytest.raises(InvariantViolation, match="outstanding"):
            audit_sessions([session])

    def test_observed_rollback_passes(self):
        session = committed_session()
        session.complete(3, version=2)
        cut = DprCut({"A": 1, "B": 1})
        error = session.observe_failure(1, cut)
        assert (error.survived_seqno, error.lost) == (2, (3,))
        audit_rollback(error, cut, [(1, "A", 1), (2, "A", 1), (3, "B", 2)], 0)

    def test_rollback_losing_a_covered_op(self):
        cut = DprCut({"A": 1})
        error = RollbackError("s", 2, (2,), 1)
        with pytest.raises(InvariantViolation, match="lost seqno 2"):
            audit_rollback(error, cut, [(1, "A", 1), (2, "A", 1)], 0)

    def test_recovery_cut_regressing_below_a_committed_span(self):
        session = committed_session()
        regressed = DprCut({"A": 0})
        error = session.observe_failure(1, regressed)
        with pytest.raises(InvariantViolation, match="rollback"):
            audit_rollback(error, regressed, [(1, "A", 1), (2, "A", 1)], 0)

    def test_floor_is_the_previous_rollback(self):
        # Nothing executed since a rollback that kept seqno 2: the
        # guarantee is still the old prefix.
        error = RollbackError("s", 2, (3,), 2)
        audit_rollback(error, DprCut({"A": 1}), [], 2)


class TestRunEndAudit:
    SMALL = dict(n_workers=2, vcpus=2, n_client_machines=1,
                 client_threads=1, batch_size=16, checkpoint_interval=0.05)

    def test_run_ends_with_the_audit(self):
        cluster = DFasterCluster(DFasterConfig(**self.SMALL))
        session = next(iter(cluster.clients[0].sessions.values())).session

        def corrupt():
            yield 0.1
            session.committed_ops += 10 ** 9

        cluster.env.process(corrupt())
        with pytest.raises(InvariantViolation, match="ledger"):
            cluster.run(0.2)

    def test_deployment_without_dpr_services_is_not_audited(self):
        cluster = DRedisCluster(DRedisConfig(
            n_shards=2, mode=RedisMode.PROXY, n_client_machines=1,
            client_threads=1, batch_size=16))
        assert cluster.manager is None
        cluster.run(0.1)
