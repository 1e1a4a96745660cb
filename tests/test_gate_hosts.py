"""One DPR server gate, four hosts.

The server-side mirror of ``test_session_drivers.py``:

- a conformance test pushing one request script — ok, duplicate of a
  served batch, duplicate while in service, ``Vs`` ahead of the shard,
  a Commit(), a RollbackCommand landing between admit and execute, a
  stale and a future world-line, an ownership bounce — through a bare
  :class:`DprServer`, a D-FASTER worker, a DPR-mode D-Redis proxy and a
  promoted replica, and requiring identical status / version /
  world-line replies and identical seal/persist report sequences;
- the regression test for the hole that conformance closes: D-Redis
  used to gate a batch at ingress only and execute it at egress on
  whatever world-line the shard had reached meanwhile;
- a property test over random execute / commit / persisted / restore /
  crash / duplicate interleavings on the bare gate: its reports replay
  into a fresh finder that passes ``audit_deployment``, and no batch is
  ever applied twice;
- misrouted payloads: every cluster receiver (the three networked
  hosts, a standby replica, the finder service and the cluster
  manager) raises ``TypeError`` on a payload it has no arm for, instead
  of dropping it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import CostModel
from repro.cluster.dfaster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig, RedisMode
from repro.cluster.messages import (
    BatchReply,
    BatchRequest,
    CutBroadcast,
    Heartbeat,
    PersistReport,
    RollbackCommand,
    RollbackDone,
    SealReport,
)
from repro.cluster.metadata import MetadataStore
from repro.cluster.modeled import ModeledStore
from repro.cluster.ownership import OwnershipView
from repro.cluster.replication import ReplicaNode
from repro.cluster.shell import FINDER_ADDRESS, MANAGER_ADDRESS
from repro.cluster.stats import ClusterStats
from repro.cluster.worker import DFasterWorker
from repro.core import InMemoryStateObject
from repro.core.audit import audit_deployment
from repro.core.cuts import DprCut
from repro.core.finder import ApproximateDprFinder, ExactDprFinder
from repro.core.libdpr import DprServer
from repro.core.libdpr.server import IN_SERVICE
from repro.core.versioning import Token
from repro.sim.kernel import Environment
from repro.sim.storage import StorageDevice, StorageKind
from tests.test_sim_network import QuietNetwork

SHARD = "proxy-0"  # every host's engine carries this object id
SETTLE = 0.05      # long enough for any host to serve, flush and report


def request(batch_id, world_line=0, min_version=0, count=16, partition=None):
    return BatchRequest(
        batch_id=batch_id, session_id="s", reply_to="tester",
        world_line=world_line, min_version=min_version,
        first_seqno=1 + 2048 * batch_id, op_count=count,
        write_count=count // 2, partition=partition)


class BareGate:
    """The reference driver: the gate with no network around it."""

    name = "bare DprServer"

    def __init__(self):
        self.engine = ModeledStore(SHARD, effective_keys=1000)
        #: ("seal" | "persist" | "reply", ...) in the order it happened.
        self.log = []
        self.gate = DprServer(self.engine, self)
        self.cached_cut = DprCut()
        self._owned = True

    # the gate's report interface
    def register_object(self, object_id):
        pass

    def report_seal(self, descriptor):
        self.log.append(("seal", descriptor.token.version))

    def report_persisted(self, token):
        self.log.append(("persist", token.version))

    def push(self, *requests, rollback=None):
        """Admit every request, apply the rollback, then execute."""
        gate = self.gate
        admitted = []
        for req in requests:
            key = (req.session_id, req.batch_id)
            cached = gate.admit(key)
            if cached is None:
                admitted.append(req)
            elif cached is not IN_SERVICE:
                self.log.append(("reply",) + cached)
        if rollback is not None:
            gate.restore(rollback.cut.version_of(SHARD), rollback.world_line)
            self.cached_cut = rollback.cut
        for req in admitted:
            key = (req.session_id, req.batch_id)
            if req.partition is not None and not self._owned:
                gate.release(key)
                self.log.append(("reply", "not_owner", 0, gate.world_line))
                continue
            status, version = gate.execute(
                ("batch", req.op_count, req.write_count), req.session_id,
                req.first_seqno + req.op_count - 1, req.world_line,
                req.min_version, req.deps)
            reply = (status, version, gate.world_line)
            gate.remember(key, reply)
            self.log.append(("reply",) + reply)

    def commit(self):
        self.gate.commit()

    def broadcast(self, cut):
        self.cached_cut = cut

    def own_partitions(self, owned):
        self._owned = owned


class NetworkedHost:
    """A GateHost on a simulated network, spied on at ``net.send``."""

    def __init__(self, name, env, net, host):
        self.name = name
        self.env = env
        self.net = net
        self.host = host
        self.gate = host.gate
        self.engine = host.engine
        self.log = []
        self.reply_cuts = []
        net.register("tester")
        send = net.send

        def spy(src, dst, payload, **kwargs):
            if src == host.address:
                if isinstance(payload, SealReport):
                    self.log.append(("seal", payload.descriptor.token.version))
                elif isinstance(payload, PersistReport):
                    self.log.append(("persist", payload.version))
                elif isinstance(payload, BatchReply):
                    self.log.append(("reply", payload.status, payload.version,
                                     payload.world_line))
                    self.reply_cuts.append(payload.cut)
            return send(src, dst, payload, **kwargs)

        net.send = spy
        self._view = OwnershipView(host.address, lease_duration=10.0,
                                   clock=lambda: env.now)

    @property
    def cached_cut(self):
        return self.host.cached_cut

    def _settle(self):
        self.env.run(until=self.env.now + SETTLE)

    def push(self, *requests, rollback=None):
        address = self.host.address
        for req in requests:
            self.net.send("tester", address, req, size_ops=req.op_count)
        if rollback is not None:
            def late():
                # After the request is admitted, before it executes.
                yield 40e-6
                self.net.send("tester", address, rollback)
            self.env.process(late())
        self._settle()

    def commit(self):
        assert self.host.request_checkpoint()
        self._settle()

    def broadcast(self, cut):
        self.net.send("tester", self.host.address,
                      CutBroadcast(cut=cut, world_line=0, max_version=0))
        self._settle()

    def own_partitions(self, owned):
        self.host.ownership = self._view
        if owned:
            self._view.grant(3)
        else:
            self._view.renounce(3)


def quiet_network(env):
    net = QuietNetwork(env, rng=random.Random(0))
    net.register("finder")
    net.register("manager")
    return net


def worker_host():
    env = Environment()
    net = quiet_network(env)
    worker = DFasterWorker(
        env, net, "w0", engine=ModeledStore(SHARD, effective_keys=1000),
        device=StorageDevice(env, StorageKind.LOCAL_SSD, rng=random.Random(1)), cost=CostModel(),
        stats=ClusterStats(), finder_address="finder",
        manager_address="manager", vcpus=2, checkpoints_enabled=False)
    return NetworkedHost("DFasterWorker", env, net, worker)


def proxy_host():
    cluster = DRedisCluster(DRedisConfig(
        n_shards=1, mode=RedisMode.DPR, n_client_machines=0,
        checkpoints_enabled=False))
    cluster.net.JITTER_STDDEV = 0.0
    return NetworkedHost("_DRedisProxy", cluster.env, cluster.net,
                         cluster.proxies[0])


def _replica_host(promoted):
    env = Environment()
    net = quiet_network(env)
    metadata = MetadataStore(env, rng=random.Random(2))
    node = ReplicaNode(
        env, net, "replica:w0:0", "w0",
        engine=ModeledStore(SHARD, effective_keys=1000),
        device=StorageDevice(env, StorageKind.LOCAL_SSD, rng=random.Random(1)), cost=CostModel(),
        stats=ClusterStats(), metadata=metadata, vcpus=2,
        checkpoint_interval=1e6)
    if promoted:
        node.promote("finder", "manager")
    return NetworkedHost(("promoted" if promoted else "standby")
                         + " ReplicaNode", env, net, node)


def promoted_replica_host():
    return _replica_host(promoted=True)


def standby_replica_host():
    """A replica that was never promoted: its dispatch falls through to
    the host's control arms for anything but the replication stream."""
    return _replica_host(promoted=False)


HOSTS = [BareGate, worker_host, proxy_host, promoted_replica_host]


def run_script(host):
    """The one request script; returns what the host made of it."""
    ops = lambda: host.engine.total_ops  # noqa: E731
    admitted_on = []
    admit = host.gate.admit

    def recording_admit(key):
        admitted_on.append((key, host.gate.world_line))
        return admit(key)

    host.gate.admit = recording_admit

    host.push(request(1))                       # ok
    served = ops()
    host.push(request(1))                       # duplicate of a served batch
    assert ops() == served, "a duplicate was re-executed"
    host.push(request(2), request(2))           # duplicate while in service
    assert ops() == served + 16
    host.push(request(3, min_version=5))        # Vs ahead: autoseal, then ok
    host.commit()                               # Commit(): seal 5
    cut = DprCut.of(Token(SHARD, 5))
    host.broadcast(DprCut.of(Token(SHARD, 1)))
    before = ops()
    host.push(request(4, count=1024),           # rollback between admit
              rollback=RollbackCommand(world_line=1, cut=cut))  # and execute
    assert ops() == before, "a batch ran on a world-line it was not sent on"
    assert admitted_on[-1] == (("s", 4), 0)
    assert host.cached_cut == cut
    host.push(request(5))                       # stale world-line
    host.push(request(6, world_line=6))         # future world-line
    host.push(request(7, world_line=1))         # ok on the new world-line
    host.own_partitions(False)
    host.push(request(8, world_line=1, partition=3))   # bounced ...
    host.own_partitions(True)
    host.push(request(8, world_line=1, partition=3))   # ... not memoized
    return host.log


EXPECTED = [
    ("reply", "ok", 1, 0),
    ("reply", "ok", 1, 0),            # from the memo
    ("reply", "ok", 1, 0),            # one reply for two copies
    ("seal", 1),                      # the fast-forward's autoseal is
    ("reply", "ok", 5, 0),            # reported before the reply
    ("persist", 1),
    ("seal", 5),
    ("persist", 5),
    ("reply", "rolled_back", 0, 1),   # gated at execution, not admission
    ("reply", "rolled_back", 0, 1),
    ("reply", "retry", 0, 1),
    ("reply", "ok", 7, 1),
    ("reply", "not_owner", 0, 1),
    ("reply", "ok", 7, 1),
]


def _normalized(log):
    """Hosts differ only in *when* a flush completes relative to the
    reply that follows its seal; compare per stream."""
    return ([entry for entry in log if entry[0] == "reply"],
            [entry for entry in log if entry[0] != "reply"])


class TestOneScriptFourHosts:
    @pytest.mark.parametrize("build", HOSTS, ids=lambda b: b.__name__)
    def test_host_conforms(self, build):
        host = build()
        assert isinstance(host.gate, DprServer)
        log = run_script(host)
        assert _normalized(log) == _normalized(EXPECTED), host.name
        # The autoseal's report precedes the reply that caused it.
        assert log.index(("seal", 1)) < log.index(("reply", "ok", 5, 0))
        assert host.gate.rejected_batches == 2
        assert host.gate.delayed_batches == 1
        assert host.gate.duplicate_batches == 2

    def test_refusals_carry_the_cached_cut(self):
        for build in HOSTS[1:]:
            host = build()
            run_script(host)
            rolled_back = [cut for entry, cut
                           in zip(_normalized(host.log)[0], host.reply_cuts)
                           if entry[1] == "rolled_back"]
            assert rolled_back == [host.cached_cut] * 2, host.name


class TestDRedisWorldLineAtExecution:
    def test_no_ok_reply_on_a_world_line_other_than_its_requests(self):
        """Two failures under closed-loop load: a RollbackCommand that
        lands while a batch waits in Redis must not let it run (and be
        acked "ok") on the new world-line with its old-world-line
        ``Vs``/deps.  122 of 6,549 batches did before the gate moved to
        execution time."""
        cluster = DRedisCluster(DRedisConfig(
            n_shards=2, mode=RedisMode.DPR, n_client_machines=2,
            client_threads=2, batch_size=64, checkpoint_interval=0.05))
        sent_on = {}
        crossed = []
        oks = [0]
        send = cluster.net.send

        def spy(src, dst, payload, **kwargs):
            if isinstance(payload, BatchRequest):
                sent_on[(payload.session_id, payload.batch_id)] = \
                    payload.world_line
            elif isinstance(payload, BatchReply) and payload.status == "ok":
                oks[0] += 1
                key = (payload.session_id, payload.batch_id)
                if sent_on[key] != payload.world_line:
                    crossed.append((key, sent_on[key], payload.world_line))
            return send(src, dst, payload, **kwargs)

        cluster.net.send = spy
        cluster.schedule_failure(0.15)
        cluster.schedule_failure(0.25)
        cluster.run(0.4)
        assert cluster.manager.controller.world_line == 2
        assert oks[0] > 1000
        assert crossed == []


# -- the property ------------------------------------------------------------

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: One step: (action, shard, pick).  0-4 execute a new batch, 5 re-send
#: an old one, 6 Commit(), 7 finish the oldest flush, 8 roll back to
#: the cut, 9 crash + restart at the cut.
steps = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 1), st.integers(0, 15)),
    min_size=1, max_size=80)


class Recorder:
    """Stands where the finder stands; keeps the report stream."""

    def __init__(self):
        self.reports = []

    def register_object(self, object_id):
        pass

    def report_seal(self, descriptor):
        self.reports.append(descriptor)

    def report_persisted(self, token):
        self.reports.append(token)

    def replay(self, finder_cls, objects, world_line):
        finder = finder_cls()
        for name in objects:
            finder.register_object(name)
        for report in self.reports:
            if isinstance(report, Token):
                finder.report_persisted(report)
            else:
                finder.report_seal(report)
        finder.table.publish_world_line(world_line)
        finder.tick()
        return finder


class TestGateProperty:
    @SETTINGS
    @given(history=steps)
    def test_reports_audit_clean_and_nothing_applies_twice(self, history):
        recorder = Recorder()
        objects = {name: InMemoryStateObject(name) for name in "AB"}
        flushing = {name: [] for name in objects}
        gates = {name: DprServer(obj, recorder, flushing[name].append)
                 for name, obj in objects.items()}
        world_line = 0
        vs = 0
        last = None  # token of the previous execution: the next one's dep
        issued = []  # (shard, key, header fields) of every batch sent

        def execute(shard, key, header):
            gate = gates[shard]
            if gate.admit(key) is not None:
                return  # duplicate: answered from the memo, not re-run
            status, versions, _ = gate.execute_ops(
                [("incr", key)], "s", key, *header)
            gate.remember(key, (status, versions))
            if status == "ok":
                return Token(shard, versions[0])

        def restore(crashed):
            nonlocal world_line, vs, last
            cut = recorder.replay(ExactDprFinder, objects,
                                  world_line).current_cut()
            world_line += 1
            for name, gate in gates.items():
                if crashed:
                    gate.forget()
                gate.restore(cut.version_of(name), world_line)
                flushing[name].clear()
            vs, last = 0, None

        for action, shard_index, pick in history:
            shard = "AB"[shard_index]
            gate = gates[shard]
            if action <= 4:
                key = len(issued) + 1
                header = (world_line, vs, (last,) if last else ())
                issued.append((shard, key, header))
                token = execute(shard, key, header)
                if token is not None:
                    vs, last = max(vs, token.version), token
            elif action == 5 and issued:
                execute(*issued[pick % len(issued)])
            elif action == 6:
                gate.commit(max(obj.version for obj in objects.values()))
            elif action == 7 and flushing[shard]:
                descriptor = flushing[shard].pop(0)
                gate.persisted(descriptor.token.version)
            elif action >= 8:
                restore(crashed=action == 9)
            for shard_name, key, _ in issued:
                assert objects[shard_name].get(key) in (None, 1), (
                    f"batch {key} applied twice on {shard_name}")

        for finder_cls in (ExactDprFinder, ApproximateDprFinder):
            finder = recorder.replay(finder_cls, objects, world_line)
            audit_deployment(finder, objects)


class Foreign:
    """A payload no cluster receiver knows."""


class TestMisroutedPayloadsFailLoudly:
    """A receiver with no arm for a payload raises instead of dropping
    it: a message a new protocol step sends to the wrong place shows up
    as the first failing run, not as a silently missing step."""

    @pytest.mark.parametrize("build", [worker_host, proxy_host,
                                       promoted_replica_host,
                                       standby_replica_host])
    @pytest.mark.parametrize("payload", [RollbackDone("w0", 1), Foreign()],
                             ids=["RollbackDone", "Foreign"])
    def test_gate_host_raises(self, build, payload):
        host = build()
        host.net.send("tester", host.host.address, payload)
        with pytest.raises(TypeError, match=(
                f"{host.host.address} cannot handle a "
                f"{type(payload).__name__} message")):
            host._settle()

    @pytest.mark.parametrize("address, payload, receiver", [
        (FINDER_ADDRESS, Heartbeat("worker-0"), "finder service"),
        (FINDER_ADDRESS, Foreign(), "finder service"),
        (MANAGER_ADDRESS, PersistReport("worker-0", 1), "cluster manager"),
        (MANAGER_ADDRESS, Foreign(), "cluster manager"),
    ], ids=["finder-Heartbeat", "finder-Foreign", "manager-PersistReport",
            "manager-Foreign"])
    def test_service_raises(self, address, payload, receiver):
        cluster = DFasterCluster(DFasterConfig(n_workers=1,
                                               n_client_machines=0))
        cluster.net.register("tester")
        cluster.net.send("tester", address, payload)
        with pytest.raises(TypeError, match=(
                f"{receiver} {address} cannot handle a "
                f"{type(payload).__name__} message")):
            cluster.env.run(until=SETTLE)
