"""Per-layer micro-benchmarks: one public function in isolation.

Each entry of ``spec.MICRO`` calls into exactly one layer, with no
simulator or cluster around it unless that *is* the layer, so a change
to one layer has a number that moves when nothing else does.  Sizes
are chosen so one repeat takes ~0.1 s on the dev container; the value
reported is the median over ``--repeats`` (default 5) fresh repeats
that follow one discarded warm-up repeat (first-call allocator and
cache effects are otherwise worth 10-20% on the kernel entries).
The two multi-second entries (``analysis.lint_s``, a whole-tree dprlint
run, and ``obs.tracer_overhead_ratio``, one 8-VM fig10 cell with and
without a tracer) run once.

Prints one JSON line: ``{name: {"unit", "median", "q1", "q3", "n",
"values"}}``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

_clock = time.perf_counter


def calibrate(iterations: int = 1_000_000) -> float:
    """The fixed pure-Python calibration loop, in iterations/s.

    Touches nothing of the repository: it prices the host (and its
    current noise), so two result files can be told apart by machine
    speed before their metrics are compared.
    """
    started = _clock()
    acc = 0
    for index in range(iterations):
        acc = (acc * 31 + index) % 1_000_003
    return iterations / (_clock() - started)


def _rate(count: int, body: Callable[[], None]) -> float:
    started = _clock()
    body()
    return count / (_clock() - started)


# -- sim -------------------------------------------------------------------


def kernel_dispatch() -> float:
    from repro.sim.kernel import Environment
    env = Environment()
    count = 100_000
    sink = [].append
    for index in range(count):
        env.call_later(index * 1e-6, sink, index)
    return _rate(count, env.run)


def kernel_sleep() -> float:
    from repro.sim.kernel import Environment
    env = Environment()
    count = 100_000

    def sleeper():
        for _ in range(count):
            yield 1e-6

    env.process(sleeper())
    return _rate(count, env.run)


def network_send() -> float:
    from repro.sim.kernel import Environment
    from repro.sim.network import Network
    env = Environment()
    net = Network(env, rng=random.Random(1))
    net.register("a")
    net.register("b").inbox.set_handler([].append)
    count = 50_000

    def body():
        send = net.send
        for index in range(count):
            send("a", "b", index, 64)
        env.run()

    return _rate(count, body)


def queue_handoff() -> float:
    from repro.sim.kernel import Environment
    from repro.sim.queues import Queue
    env = Environment()
    queue = Queue(env, name="micro")
    queue.set_handler([].append)
    count = 100_000

    def body():
        put = queue.put
        for index in range(count):
            put(index)
        env.run()

    return _rate(count, body)


def queue_bounded_put() -> float:
    from repro.sim.kernel import Environment
    from repro.sim.queues import BoundedQueue
    env = Environment()
    shed = []
    queue = BoundedQueue(env, capacity=1024, name="micro",
                         policy="shed-oldest", on_shed=shed.append)
    for index in range(1024):
        queue.put(index)
    count = 200_000

    def body():
        put = queue.put
        for index in range(count):
            put(index)

    return _rate(count, body)


# -- core ------------------------------------------------------------------


def _objects(n: int = 64) -> List[str]:
    return [f"obj-{index:02d}" for index in range(n)]


def finder_approx_tick() -> float:
    from repro.core.finder import ApproximateDprFinder
    from repro.core.versioning import Token
    finder = ApproximateDprFinder()
    objects = _objects()
    for name in objects:
        finder.register_object(name)
    count = 20_000

    def body():
        for index in range(count):
            finder.report_persisted(
                Token(objects[index % 64], 1 + index // 64))
            finder.tick()

    return _rate(count, body)


def finder_exact_cut() -> float:
    from repro.core.finder import ExactDprFinder
    from repro.core.versioning import CommitDescriptor, Token
    finder = ExactDprFinder()
    objects = _objects()
    for name in objects:
        finder.register_object(name)
    rounds = 40

    def body():
        for version in range(1, rounds + 1):
            for index, name in enumerate(objects):
                token = Token(name, version)
                deps = frozenset(
                    {Token(objects[(index + 1) % 64], version - 1)}
                    if version > 1 else ())
                finder.report_seal(CommitDescriptor(token=token, deps=deps))
                finder.report_persisted(token)
            finder.tick()

    return _rate(rounds, body)


def session_batch() -> float:
    from repro.core.cuts import DprCut
    from repro.core.session import Session
    session = Session("micro")
    count = 4_000

    def body():
        for index in range(count):
            version = 1 + index // 8
            header = session.issue("obj", count=64)
            session.complete(header.seqno, version)
            if index % 8 == 7:
                session.refresh_commit(DprCut({"obj": version}))

    return _rate(count, body)


def client_batch() -> float:
    from repro.cluster.client import BatchSession
    from repro.cluster.messages import BatchReply
    from repro.cluster.stats import ClusterStats
    from repro.core.cuts import DprCut
    session = BatchSession("micro", ClusterStats())
    count = 20_000

    def body():
        for index in range(count):
            version = 1 + index // 8
            request = session.new_batch("obj", 64, 32, 0.0, "client")
            session.complete(
                BatchReply(request.batch_id, "micro", "obj", "ok", 0,
                           version, 64), 0.0)
            if index % 8 == 7:
                session.refresh_commit(DprCut({"obj": version}), 0.0)

    return _rate(count, body)


def state_object_execute() -> float:
    from repro.cluster.modeled import ModeledStore
    store = ModeledStore("obj")
    count = 50_000

    def body():
        execute = store.execute
        op = ("batch", 64, 32)
        for index in range(count):
            execute(op, session_id="micro", seqno=64 * index,
                    min_version=1, world_line=0)

    return _rate(count, body)


# -- store substrates ----------------------------------------------------------


def faster_op() -> float:
    from repro.faster.store import FasterKV
    kv = FasterKV(bucket_count=1 << 12)
    rng = random.Random(3)
    keys = [f"k{rng.randrange(5000)}" for _ in range(40_000)]

    def body():
        upsert, read = kv.upsert, kv.read
        for index, key in enumerate(keys):
            if index & 1:
                read(key)
            else:
                upsert(key, index)

    return _rate(len(keys), body)


def faster_checkpoint() -> float:
    """Seconds per fold-over checkpoint of 100 dirty records."""
    from repro.faster.store import FasterKV
    kv = FasterKV(bucket_count=1 << 12)
    cycles = 500
    started = _clock()
    for cycle in range(cycles):
        for index in range(100):
            kv.upsert(f"k{index}", cycle)
        kv.run_checkpoint_synchronously()
    return (_clock() - started) / cycles


def redis_command() -> float:
    from repro.redisclone.server import RedisServer
    server = RedisServer()
    rng = random.Random(3)
    commands = []
    for index in range(40_000):
        key = f"k{rng.randrange(5000)}"
        commands.append(("GET", key) if index & 1
                        else ("SET", key, f"v{index}"))

    def body():
        execute = server.execute
        for command in commands:
            execute(command)

    return _rate(len(commands), body)


# -- obs / workloads / cluster models ------------------------------------------------


def obs_span() -> float:
    from repro.obs import Tracer
    tracer = Tracer()
    count = 100_000

    def body():
        span = tracer.span
        for index in range(count):
            span("micro.phase", index * 1e-6, 1e-6, worker="w0")

    return _rate(count, body)


def obs_merge_samples() -> float:
    from repro.obs import weighted_sample_merge
    rng = random.Random(5)
    mine = [rng.random() for _ in range(20_000)]
    theirs = [rng.random() for _ in range(20_000)]
    picks = 20_000
    return _rate(picks, lambda: weighted_sample_merge(
        mine, 60_000, theirs, 40_000, picks, random.Random(7)))


def zipfian_sample() -> float:
    from repro.workloads import ZipfianGenerator
    generator = ZipfianGenerator(100_000, rng=random.Random(9),
                                 scramble=True)
    count = 100_000

    def body():
        sample = generator.sample
        for _ in range(count):
            sample()

    return _rate(count, body)


def poisson_sample() -> float:
    from repro.workloads import poisson_draw
    rng = random.Random(11)
    count = 100_000

    def body():
        for index in range(count):
            poisson_draw(rng, 5.0 if index & 1 else 500.0)

    return _rate(count, body)


def costmodel_batch_time() -> float:
    from repro.cluster.costmodel import CostModel
    cost = CostModel()
    count = 100_000

    def body():
        batch_time = cost.server_batch_time
        for index in range(count):
            batch_time(1024, 0.5, (index % 97) / 97.0, 1.0)

    return _rate(count, body)


def reservoir_add() -> float:
    from repro.cluster.stats import Reservoir
    reservoir = Reservoir()
    count = 100_000

    def body():
        add = reservoir.add
        for index in range(count):
            add(index * 1e-6)

    return _rate(count, body)


def analysis_lint() -> float:
    from repro.analysis import run_lint
    started = _clock()
    run_lint([str(SRC)])
    return _clock() - started


def tracer_overhead() -> float:
    from repro.bench.harness import run_dfaster_experiment
    from repro.obs import Tracer
    from repro.sim.storage import StorageKind
    from repro.workloads import YCSB_A_ZIPFIAN

    def cell(tracer) -> float:
        started = _clock()
        run_dfaster_experiment(
            "micro tracer", duration=0.105, warmup=0.05, n_workers=8,
            n_client_machines=8, workload=YCSB_A_ZIPFIAN,
            storage=StorageKind.CLOUD_SSD, tracer=tracer)
        return _clock() - started

    cell(None)  # fill the Zipfian / CostModel memos both runs share
    untraced = cell(None)
    return cell(Tracer()) / untraced


#: name -> (function, runs once?)
SUITE: Dict[str, Tuple[Callable[[], float], bool]] = {
    "sim.kernel.dispatch_per_s": (kernel_dispatch, False),
    "sim.kernel.sleep_per_s": (kernel_sleep, False),
    "sim.network.send_per_s": (network_send, False),
    "sim.queues.handoff_per_s": (queue_handoff, False),
    "sim.queues.bounded_put_per_s": (queue_bounded_put, False),
    "core.finder.approx_tick_per_s": (finder_approx_tick, False),
    "core.finder.exact_cut_per_s": (finder_exact_cut, False),
    "core.session.batch_per_s": (session_batch, False),
    "cluster.client.batch_per_s": (client_batch, False),
    "core.state_object.execute_per_s": (state_object_execute, False),
    "faster.op_per_s": (faster_op, False),
    "faster.checkpoint_s": (faster_checkpoint, False),
    "redisclone.command_per_s": (redis_command, False),
    "obs.span_per_s": (obs_span, False),
    "obs.merge_samples_per_s": (obs_merge_samples, False),
    "workloads.zipfian_per_s": (zipfian_sample, False),
    "workloads.poisson_per_s": (poisson_sample, False),
    "cluster.costmodel.batch_time_per_s": (costmodel_batch_time, False),
    "cluster.stats.reservoir_add_per_s": (reservoir_add, False),
    "analysis.lint_s": (analysis_lint, True),
    "obs.tracer_overhead_ratio": (tracer_overhead, True),
    "host.calib_per_s": (calibrate, False),
}


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and n of one metric's repeats."""
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"ledger: {SRC}/repro not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import spec
    units = {name: unit for name, unit, _better in spec.MICRO}
    out = {}
    for name, (function, once) in SUITE.items():
        if not once:
            function()  # warm-up, discarded
        repeats = 1 if once else args.repeats
        out[name] = dict(summarize([function() for _ in range(repeats)]),
                         unit=units[name])
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
