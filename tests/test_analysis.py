"""dprlint: per-rule good/bad fixtures, suppressions, baseline, CLI.

Every rule gets at least one fixture that must trigger it and one that
must stay clean.  Fixture trees are laid out as real ``repro.*``
packages under a tmp dir so the module-scoping logic (protocol packages
vs. the bench allowlist) is exercised, not bypassed.  The CLI tests at
the bottom are the acceptance criteria: the shipped tree lints clean,
and injecting a wall-clock call, an unsorted-set iteration, or an
unhandled message dataclass makes ``python -m repro.analysis`` fail.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.framework import (
    all_rules,
    load_baseline,
    module_name_for,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def write_tree(root, files):
    """Write fixture files, creating ``__init__.py`` package chains."""
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
        parent = path.parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            parent = parent.parent


def lint_fixture(tmp_path, files, **kwargs):
    write_tree(tmp_path, files)
    return run_lint([str(tmp_path)], **kwargs)


def rules_found(findings):
    return {finding.rule for finding in findings}


def run_cli(args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis"] + args,
        capture_output=True, text=True, env=env, cwd=str(cwd),
    )


class TestFramework:
    def test_module_names_resolve_through_package_chain(self, tmp_path):
        write_tree(tmp_path, {"repro/core/probe.py": "x = 1\n"})
        assert module_name_for(tmp_path / "repro/core/probe.py") == \
            "repro.core.probe"

    def test_syntax_error_is_reported_not_fatal(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/broken.py": "def f(:\n",
        })
        assert rules_found(findings) == {"DPR-E01"}

    def test_line_suppression(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/clock.py": """\
                import time

                def stamp():
                    return time.time()  # dprlint: disable=DPR-D01
            """,
        })
        assert "DPR-D01" not in rules_found(findings)

    def test_file_suppression(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/clock.py": """\
                # dprlint: disable-file=DPR-D01
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert "DPR-D01" not in rules_found(findings)

    def test_baseline_suppresses_recorded_findings(self, tmp_path):
        files = {
            "repro/core/clock.py": """\
                \"\"\"Fixture.\"\"\"
                import time

                def stamp():
                    return time.time()
            """,
        }
        first = lint_fixture(tmp_path, files)
        assert rules_found(first) == {"DPR-D01"}
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), first)
        fingerprints = load_baseline(str(baseline_path))
        again = run_lint([str(tmp_path)], baseline=fingerprints)
        assert again == []

    def test_select_and_ignore(self, tmp_path):
        files = {
            "repro/core/multi.py": """\
                import time

                def f(acc=[]):
                    acc.append(time.time())
                    return acc
            """,
        }
        write_tree(tmp_path, files)
        only_clock = run_lint([str(tmp_path)], select=["DPR-D01"])
        assert rules_found(only_clock) == {"DPR-D01"}
        no_clock = run_lint([str(tmp_path)], ignore=["DPR-D01"])
        assert "DPR-D01" not in rules_found(no_clock)
        assert "DPR-H01" in rules_found(no_clock)

    def test_rule_catalog_is_complete(self):
        expected = {
            "DPR-A01", "DPR-A02",
            "DPR-D01", "DPR-D02", "DPR-D03", "DPR-D04",
            "DPR-P01", "DPR-P02", "DPR-P03", "DPR-P04",
            "DPR-H01", "DPR-H02", "DPR-H03", "DPR-H04",
            "DPR-O01",
        }
        assert {rule.id for rule in all_rules()} == expected

    def test_severity_tiers(self):
        severities = {rule.id: rule.severity for rule in all_rules()}
        assert severities["DPR-A01"] == "error"
        assert severities["DPR-D01"] == "error"
        for hygiene in ("DPR-H01", "DPR-H02", "DPR-H03", "DPR-H04"):
            assert severities[hygiene] == "warning"


class TestDeterminismRules:
    def test_d01_flags_wall_clock_and_global_random(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/bad.py": """\
                import os
                import random
                import time
                from datetime import datetime

                def noisy():
                    return (time.time(), datetime.now(), os.urandom(8),
                            random.randint(0, 9))
            """,
        })
        d01 = [f for f in findings if f.rule == "DPR-D01"]
        assert len(d01) == 4

    def test_d01_allows_seeded_rng_and_sim_clock(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/good.py": """\
                import random

                def sample(env):
                    rng = random.Random(42)
                    return env.now + rng.random()
            """,
        })
        assert "DPR-D01" not in rules_found(findings)

    def test_d01_monotonic_timer_banned_in_protocol_code(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/timer.py": """\
                import time

                def elapsed(start):
                    return time.perf_counter() - start
            """,
        })
        assert "DPR-D01" in rules_found(findings)

    def test_d01_bench_allowlist_permits_monotonic_timer(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/bench/timer.py": """\
                import time

                def elapsed(start):
                    return time.perf_counter() - start
            """,
        })
        assert "DPR-D01" not in rules_found(findings)

    def test_d01_bench_still_cannot_use_wall_clock(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/bench/wall.py": """\
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert "DPR-D01" in rules_found(findings)

    def test_d02_flags_set_param_iteration(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/closure.py": """\
                def closure(deps: frozenset):
                    out = []
                    for dep in deps:
                        out.append(dep)
                    return out
            """,
        })
        assert "DPR-D02" in rules_found(findings)

    def test_d02_tracks_set_fields_across_modules(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/kinds.py": """\
                from dataclasses import dataclass
                from typing import FrozenSet

                @dataclass(frozen=True)
                class Descriptor:
                    deps: FrozenSet[str] = frozenset()
            """,
            "repro/cluster/uses.py": """\
                def first_deps(descriptor):
                    return [dep for dep in descriptor.deps]
            """,
        })
        d02 = [f for f in findings if f.rule == "DPR-D02"]
        assert len(d02) == 1
        assert "uses.py" in d02[0].path

    def test_d02_sorted_iteration_and_aggregates_are_clean(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/ok.py": """\
                def closure(deps: frozenset):
                    biggest = max(dep for dep in deps)
                    present = any(dep for dep in deps)
                    ordered = [dep for dep in sorted(deps)]
                    return biggest, present, ordered
            """,
        })
        assert "DPR-D02" not in rules_found(findings)

    def test_d02_does_not_apply_outside_protocol_packages(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/workloads/ok.py": """\
                def spread(keys: set):
                    return [key for key in keys]
            """,
        })
        assert "DPR-D02" not in rules_found(findings)

    def test_d03_flags_sleep_open_and_sockets(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/sim/bad.py": """\
                import socket
                import time

                def process(env):
                    time.sleep(0.1)
                    handle = open("/tmp/x")
                    conn = socket.socket()
                    return handle, conn
            """,
        })
        d03 = [f for f in findings if f.rule == "DPR-D03"]
        assert len(d03) == 3

    def test_d03_sim_primitives_are_clean(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/sim/good.py": """\
                def process(env, device):
                    yield 0.1
                    yield device.write(4096)
            """,
        })
        assert "DPR-D03" not in rules_found(findings)

    def test_d04_flags_builtin_hash_in_protocol_code(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/place.py": """\
                def partition_of(key, n):
                    return hash(key) % n
            """,
        })
        d04 = [f for f in findings if f.rule == "DPR-D04"]
        assert len(d04) == 1
        assert "place.py" in d04[0].path

    def test_d04_stable_digest_is_clean(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/place.py": """\
                import zlib

                def partition_of(key, n):
                    return zlib.crc32(key.encode("utf-8")) % n
            """,
        })
        assert "DPR-D04" not in rules_found(findings)

    def test_d04_does_not_apply_outside_protocol_packages(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/workloads/spread.py": """\
                def spread(key, n):
                    return hash(key) % n
            """,
        })
        assert "DPR-D04" not in rules_found(findings)


PROTOCOL_FIXTURE = {
    # A miniature repro.core.state_object so P02/P03 registries resolve.
    "repro/core/state_object.py": """\
        class StateObject:
            def __init__(self):
                self._version = 1
                self._sealed = {}

            def seal_version(self):
                self._sealed[self._version] = object()
                self._version += 1

            def sealed_descriptors(self):
                return dict(self._sealed)
    """,
}


class TestProtocolRules:
    def test_p01_flags_unhandled_message_dataclass(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/messages.py": """\
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Known:
                    x: int

                @dataclass(frozen=True)
                class Orphan:
                    y: int
            """,
            "repro/cluster/worker.py": """\
                from repro.cluster.messages import Known

                def dispatch(payload):
                    if isinstance(payload, Known):
                        return "ok"
            """,
        })
        p01 = [f for f in findings if f.rule == "DPR-P01"]
        assert len(p01) == 1
        assert "Orphan" in p01[0].message

    def test_p01_all_messages_handled_is_clean(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/messages.py": """\
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Known:
                    x: int
            """,
            "repro/cluster/worker.py": """\
                from repro.cluster.messages import Known

                def dispatch(payload):
                    if isinstance(payload, Known):
                        return "ok"
            """,
        })
        assert "DPR-P01" not in rules_found(findings)

    def test_p02_flags_cross_module_private_access(self, tmp_path):
        files = dict(PROTOCOL_FIXTURE)
        files["repro/cluster/probe.py"] = """\
            def peek(engine):
                return engine._sealed
        """
        findings = lint_fixture(tmp_path, files)
        assert "DPR-P02" in rules_found(findings)

    def test_p02_flags_getattr_string_probe(self, tmp_path):
        files = dict(PROTOCOL_FIXTURE)
        files["repro/cluster/probe.py"] = """\
            def peek(engine):
                return getattr(engine, "_sealed", {})
        """
        findings = lint_fixture(tmp_path, files)
        assert "DPR-P02" in rules_found(findings)

    def test_p02_accessor_and_owner_module_are_clean(self, tmp_path):
        files = dict(PROTOCOL_FIXTURE)
        files["repro/cluster/probe.py"] = """\
            def peek(engine):
                return engine.sealed_descriptors()
        """
        findings = lint_fixture(tmp_path, files)
        assert "DPR-P02" not in rules_found(findings)

    def test_p03_flags_subclass_writing_version_state(self, tmp_path):
        files = dict(PROTOCOL_FIXTURE)
        files["repro/faster/hacky.py"] = """\
            from repro.core.state_object import StateObject

            class HackyStore(StateObject):
                def skip_ahead(self):
                    self._version = 99
                    self._sealed.clear()
        """
        findings = lint_fixture(tmp_path, files)
        p03 = [f for f in findings if f.rule == "DPR-P03"]
        assert len(p03) == 2

    def test_p03_subclass_using_hooks_is_clean(self, tmp_path):
        files = dict(PROTOCOL_FIXTURE)
        files["repro/faster/good.py"] = """\
            from repro.core.state_object import StateObject

            class GoodStore(StateObject):
                def checkpoint(self):
                    self.seal_version()
                    return self.sealed_descriptors()
        """
        findings = lint_fixture(tmp_path, files)
        assert "DPR-P03" not in rules_found(findings)

    def test_p04_flags_direct_inbox_put(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/shortcut.py": """\
                def fast_path(net, payload):
                    target = net.endpoint("worker-0")
                    target.inbox.put(payload)

                def aliased(endpoint, payload):
                    inbox = endpoint.inbox
                    inbox.put(payload)
            """,
        })
        p04 = [f for f in findings if f.rule == "DPR-P04"]
        assert len(p04) == 2

    def test_p04_network_send_and_other_queues_are_clean(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/proper.py": """\
                def send(net, payload):
                    net.send("a", "b", payload, size_ops=1)

                def local_work(worker, item):
                    worker.work.put(item)
            """,
        })
        assert "DPR-P04" not in rules_found(findings)

    def test_p04_sim_network_itself_is_exempt(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/sim/network.py": """\
                def deliver(target, message):
                    target.inbox.put(message)
            """,
        })
        assert "DPR-P04" not in rules_found(findings)


class TestHygieneRules:
    def test_h01_mutable_default(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/util.py": """\
                def collect(item, acc=[]):
                    acc.append(item)
                    return acc

                def safe(item, acc=None):
                    acc = list(acc or ())
                    acc.append(item)
                    return acc
            """,
        })
        h01 = [f for f in findings if f.rule == "DPR-H01"]
        assert len(h01) == 1

    def test_h02_bare_and_swallowing_excepts(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/util.py": """\
                def swallow(fn):
                    try:
                        fn()
                    except:
                        pass
                    try:
                        fn()
                    except Exception:
                        return None
                    try:
                        fn()
                    except Exception:
                        raise
                    try:
                        fn()
                    except ValueError:
                        return None
            """,
        })
        h02 = [f for f in findings if f.rule == "DPR-H02"]
        assert len(h02) == 2

    def test_h03_shadowed_builtin_parameter_and_assignment(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/util.py": """\
                def pick(list):
                    hash = 7
                    return list, hash
            """,
        })
        h03 = [f for f in findings if f.rule == "DPR-H03"]
        assert len(h03) == 2

    def test_h03_class_attributes_and_methods_exempt(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/util.py": """\
                class Commands:
                    id = "redis"

                    def set(self, key, value):
                        return (key, value)

                    def get(self, key):
                        return key
            """,
        })
        assert "DPR-H03" not in rules_found(findings)

    def test_h04_missing_module_docstring(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/util.py": "def f():\n    return 1\n",
        })
        h04 = [f for f in findings if f.rule == "DPR-H04"]
        assert len(h04) == 1
        assert "no docstring" in h04[0].message

    def test_h04_empty_init_is_exempt(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/util.py": '"""Documented."""\n',
        })
        assert "DPR-H04" not in rules_found(findings)

    def test_h04_stale_dotted_reference(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/probe.py": """\
                \"\"\"Drives :class:`~repro.core.engine.Engine`.\"\"\"
            """,
            "repro/core/other.py": """\
                \"\"\"Defines :func:`helper` and uses
                :class:`~repro.core.other.Gone`.\"\"\"

                def helper():
                    return 1
            """,
        })
        h04 = [f for f in findings if f.rule == "DPR-H04"]
        messages = " | ".join(f.message for f in h04)
        assert "repro.core.engine" in messages   # module gone
        assert "`Gone`" in messages              # name gone
        assert "`helper`" not in messages        # still defined

    def test_h04_stale_bare_reference(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/probe.py": """\
                \"\"\"Builds on :class:`Removed`.\"\"\"

                class Kept:
                    \"\"\"See :meth:`Kept.run` and :meth:`run`.\"\"\"

                    def run(self):
                        return 1
            """,
        })
        h04 = [f for f in findings if f.rule == "DPR-H04"]
        assert len(h04) == 1
        assert "`Removed`" in h04[0].message

    def test_h04_resolvable_references_are_clean(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/core/engine.py": """\
                \"\"\"Defines :class:`Engine`.\"\"\"

                class Engine:
                    def start(self):
                        self.started = True
            """,
            "repro/core/probe.py": """\
                \"\"\"Uses :class:`~repro.core.engine.Engine`,
                :meth:`~repro.core.engine.Engine.start`,
                :attr:`~repro.core.engine.Engine.started`,
                :class:`random.Random`, :exc:`ValueError`, and the
                imported :class:`Engine` alias.\"\"\"

                from repro.core.engine import Engine

                class Sub(Engine):
                    \"\"\"Inherits :meth:`Sub.start` from the base.\"\"\"
            """,
        })
        assert "DPR-H04" not in rules_found(findings)


class TestObservabilityRules:
    def test_o01_obs_module_importing_protocol_code(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/obs/probe.py": """\
                import json

                from repro.sim.kernel import Environment

                def snapshot(env):
                    return json.dumps({"now": env.now})
            """,
        })
        o01 = [f for f in findings if f.rule == "DPR-O01"]
        assert len(o01) == 1
        assert "repro.sim.kernel" in o01[0].message

    def test_o01_obs_internal_and_stdlib_imports_are_clean(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/obs/probe.py": """\
                import random

                from repro.obs.tracer import Tracer
                from .tracer import PhaseStats

                def fresh():
                    return Tracer(), PhaseStats(), random.Random(1)
            """,
        })
        assert "DPR-O01" not in rules_found(findings)

    def test_o01_hook_result_consumed(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/sim/pump.py": """\
                def drain(tracer, items):
                    marker = tracer.counter("pump.drained", len(items))
                    return marker
            """,
        })
        o01 = [f for f in findings if f.rule == "DPR-O01"]
        assert len(o01) == 1
        assert "discarded" in o01[0].message

    def test_o01_walrus_in_hook_argument(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/sim/pump.py": """\
                def drain(env, items):
                    if env.tracer is not None:
                        env.tracer.gauge("pump.depth", (n := len(items)))
                    return items
            """,
        })
        o01 = [f for f in findings if f.rule == "DPR-O01"]
        assert len(o01) == 1
        assert "walrus" in o01[0].message

    def test_o01_mutator_call_in_hook_argument(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/sim/pump.py": """\
                def drain(env, items):
                    if env.tracer is not None:
                        env.tracer.queue_depth("pump", items.pop())
                    return items
            """,
        })
        o01 = [f for f in findings if f.rule == "DPR-O01"]
        assert len(o01) == 1
        assert ".pop()" in o01[0].message

    def test_o01_guarded_pure_hook_sites_are_clean(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/sim/pump.py": """\
                def drain(env, self_tracer, items):
                    tracer = env.tracer
                    if tracer is not None:
                        tracer.counter("pump.drained", len(items))
                        tracer.queue_depth("pump", len(items))
                        tracer.span("pump.drain", env.now, 0.0, src="p")
                    if self_tracer is not None:
                        self_tracer.end_spans(
                            "pump.lag", env.now, lambda key: key >= 0)
                    return items
            """,
        })
        assert "DPR-O01" not in rules_found(findings)

    def test_o01_non_tracer_receivers_are_ignored(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/sim/pump.py": """\
                def drain(registry, items):
                    handle = registry.counter("pump")
                    return handle.update(items)
            """,
        })
        assert "DPR-O01" not in rules_found(findings)


class TestCli:
    def test_shipped_tree_is_clean(self):
        """Tier-1 acceptance: ``python -m repro.analysis src`` exits 0."""
        result = run_cli(["src"])
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_json_format(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/clock.py": """\
                \"\"\"Fixture.\"\"\"
                import time

                def stamp():
                    return time.time()
            """,
            "repro/util/clocks.py": """\
                \"\"\"Fixture: laundered source for a trace-carrying finding.\"\"\"
                import time

                def stamp():
                    \"\"\"Wall-clock helper.\"\"\"
                    return time.perf_counter()
            """,
            "repro/cluster/node.py": """\
                \"\"\"Fixture.\"\"\"
                from repro.util.clocks import stamp

                class Node:
                    \"\"\"Fixture.\"\"\"

                    def handle(self):
                        \"\"\"Interprocedural taint finding.\"\"\"
                        return stamp()
            """,
        })
        result = run_cli(["--format", "json", str(tmp_path)])
        assert result.returncode == 1
        by_rule = {entry["rule"]: entry
                   for entry in json.loads(result.stdout)}
        assert by_rule["DPR-D01"]["path"].endswith("clock.py")
        # Interprocedural context travels with the finding: call chain
        # plus the source location.
        taint = by_rule["DPR-A02"]
        assert taint["trace"] == ["repro.cluster.node.Node.handle",
                                  "repro.util.clocks.stamp"]
        assert taint["related"][0]["path"].endswith("clocks.py")

    def test_list_rules(self):
        result = run_cli(["--list-rules"])
        assert result.returncode == 0
        for rule_id in ("DPR-D01", "DPR-P01", "DPR-H03"):
            assert rule_id in result.stdout

    def test_unknown_rule_id_is_usage_error(self):
        result = run_cli(["--select", "DPR-XX", "src"])
        assert result.returncode == 2

    def _copy_src(self, tmp_path):
        target = tmp_path / "src"
        shutil.copytree(SRC, target)
        return target

    def test_injected_wall_clock_fails(self, tmp_path):
        target = self._copy_src(tmp_path)
        victim = target / "repro/core/precedence.py"
        victim.write_text(
            victim.read_text(encoding="utf-8")
            + "\n\nimport time\n\n\ndef _injected_stamp():\n"
              "    return time.time()\n",
            encoding="utf-8",
        )
        result = run_cli([str(target)])
        assert result.returncode == 1
        assert "DPR-D01" in result.stdout

    def test_injected_unsorted_set_iteration_fails(self, tmp_path):
        target = self._copy_src(tmp_path)
        victim = target / "repro/core/precedence.py"
        victim.write_text(
            victim.read_text(encoding="utf-8")
            + "\n\ndef _injected_closure(deps: frozenset):\n"
              "    return [dep for dep in deps]\n",
            encoding="utf-8",
        )
        result = run_cli([str(target)])
        assert result.returncode == 1
        assert "DPR-D02" in result.stdout

    def test_injected_unhandled_message_fails(self, tmp_path):
        target = self._copy_src(tmp_path)
        victim = target / "repro/cluster/messages.py"
        victim.write_text(
            victim.read_text(encoding="utf-8")
            + "\n\n@dataclass(frozen=True)\nclass InjectedProbe:\n"
              "    flag: int = 0\n",
            encoding="utf-8",
        )
        result = run_cli([str(target)])
        assert result.returncode == 1
        assert "DPR-P01" in result.stdout
        assert "InjectedProbe" in result.stdout


class TestYieldAtomicityRule:
    """DPR-A01: yield-point atomicity (stale snapshots, RMW spans,
    while-guard check-then-act)."""

    def test_stale_guard_snapshot_across_yield(self, tmp_path):
        """The exact PR-5 lease bug: metadata hoisted across yields."""
        findings = lint_fixture(tmp_path, {
            "repro/cluster/leases.py": '''\
                """Fixture."""


                class Worker:
                    """Fixture."""

                    def _lease_renewal_loop(self, view):
                        """Metadata snapshot trusted after the yield."""
                        period = view.lease_duration / 3.0
                        metadata = self.lease_metadata
                        while self.running:
                            yield period
                            view.refresh_against(metadata.owner_of)
            ''',
        })
        stale = [f for f in findings if f.rule == "DPR-A01"
                 and "snapshots self.lease_metadata" in f.message]
        assert stale, findings
        # The finding carries both the snapshot line and the yield.
        labels = {label for _, _, label in stale[0].related}
        assert any("snapshotted here" in label for label in labels)
        assert any("preemption point" in label for label in labels)

    def test_read_modify_write_spanning_yield(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/rmw.py": '''\
                """Fixture."""


                class Worker:
                    """Fixture."""

                    def bump_seals(self):
                        """Lost update: RMW spans a timed device write."""
                        count = self.seal_count
                        yield self.device.write(1)
                        self.seal_count = count + 1
            ''',
        })
        assert any(f.rule == "DPR-A01"
                   and "read-modify-write" in f.message
                   for f in findings), findings

    def test_while_guard_check_then_act(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/beat.py": '''\
                """Fixture."""


                class Worker:
                    """Fixture."""

                    def heartbeat(self):
                        """Acts after the yield without re-checking."""
                        while self.running:
                            yield self.interval
                            self.net.send(self.address, "manager")
            ''',
        })
        assert any(f.rule == "DPR-A01"
                   and "loop guarded by self.running" in f.message
                   for f in findings), findings

    def test_revalidated_patterns_stay_clean(self, tmp_path):
        """The sanctioned re-validation shapes must not be flagged:
        a fresh-guard comparison, a guard-call in an if-test, and a
        guard re-check between the yield and the effect."""
        findings = lint_fixture(tmp_path, {
            "repro/cluster/ok.py": '''\
                """Fixture."""


                class Worker:
                    """Fixture."""

                    def renewal(self, view):
                        """Re-tests the loop guard and compares the
                        snapshot against a fresh guard read."""
                        while self.running:
                            yield 1.0
                            metadata = self.lease_metadata
                            yield metadata.access()
                            if (not self.running
                                    or metadata is not self.lease_metadata):
                                continue
                            view.refresh_against(metadata.owner_of)

                    def flusher(self, version):
                        """Guard-token call re-validates the local."""
                        yield self.device.write(1)
                        if not self.engine.is_sealed(version):
                            return
                        self.engine.mark_persisted(version)

                    def heartbeat(self):
                        """Re-checks the loop guard before acting."""
                        while self.running:
                            yield self.interval
                            if not self.running:
                                break
                            self.net.send(self.address, "manager")
            ''',
        })
        assert "DPR-A01" not in rules_found(findings), findings

    def test_non_protocol_scope_is_ignored(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/bench/tool.py": '''\
                """Fixture: bench code is outside DPR-A01 scope."""


                class Driver:
                    """Fixture."""

                    def loop(self):
                        """Same shape, but not protocol state."""
                        owner = self.owner_of
                        yield 1.0
                        return owner
            ''',
        })
        assert "DPR-A01" not in rules_found(findings), findings


class TestInterproceduralTaintRule:
    """DPR-A02: nondeterminism sources laundered through call chains."""

    def test_wall_clock_behind_utility_wrapper(self, tmp_path):
        """A monotonic clock wrapped in a non-protocol helper reaches
        protocol code: the per-file rules are silent, A02 is not."""
        findings = lint_fixture(tmp_path, {
            "repro/util/timing.py": '''\
                """Fixture: utility module outside protocol scope."""

                import time


                def stamp():
                    """Wall-clock helper."""
                    return time.perf_counter()
            ''',
            "repro/cluster/proto.py": '''\
                """Fixture."""

                from repro.util.timing import stamp


                class Node:
                    """Fixture."""

                    def handle(self):
                        """Calls the laundered clock."""
                        return stamp()
            ''',
        })
        taint = [f for f in findings if f.rule == "DPR-A02"]
        assert len(taint) == 1, findings
        finding = taint[0]
        assert finding.path.endswith("proto.py")
        # The call chain from protocol code to the source is attached.
        assert finding.trace == (
            "repro.cluster.proto.Node.handle", "repro.util.timing.stamp")
        assert finding.related and finding.related[0][1] == 8

    def test_suppressed_source_still_propagates(self, tmp_path):
        """A line-suppressed D01 source is uncovered: callers that
        reach it through the graph still get flagged."""
        findings = lint_fixture(tmp_path, {
            "repro/cluster/wall.py": '''\
                """Fixture."""

                import time


                def now():
                    """Suppressed direct source."""
                    return time.time()  # dprlint: disable=DPR-D01


                class Proto:
                    """Fixture."""

                    def act(self):
                        """Reaches the suppressed source."""
                        return now()
            ''',
        })
        assert "DPR-D01" not in rules_found(findings)
        taint = [f for f in findings if f.rule == "DPR-A02"]
        assert len(taint) == 1, findings
        assert taint[0].trace[-1] == "repro.cluster.wall.now"

    def test_covered_source_is_not_double_reported(self, tmp_path):
        """When D01 already fires on the source, A02 stays silent —
        one finding per root cause."""
        findings = lint_fixture(tmp_path, {
            "repro/cluster/direct.py": '''\
                """Fixture."""

                import time


                def now():
                    """Unsuppressed direct source: D01 covers it."""
                    return time.time()


                class Proto:
                    """Fixture."""

                    def act(self):
                        """Calls the covered source."""
                        return now()
            ''',
        })
        assert "DPR-D01" in rules_found(findings)
        assert "DPR-A02" not in rules_found(findings), findings


class TestSuppressionEdgeCases:
    def test_disable_inside_decorated_generator(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/dec.py": '''\
                """Fixture."""

                import functools


                def traced(fn):
                    """Fixture decorator."""
                    @functools.wraps(fn)
                    def wrap(*args, **kwargs):
                        """Wrapper."""
                        return fn(*args, **kwargs)
                    return wrap


                class Worker:
                    """Fixture."""

                    @traced
                    def decorated_loop(self):
                        """Stale snapshot suppressed on its own line."""
                        owner = self.owner_of
                        yield 1.0
                        return owner  # dprlint: disable=DPR-A01
            ''',
        })
        assert "DPR-A01" not in rules_found(findings), findings

    def test_disable_on_multiline_statement(self, tmp_path):
        """Findings anchor on the load's physical line; the disable
        comment goes on that (continuation) line."""
        findings = lint_fixture(tmp_path, {
            "repro/cluster/multi.py": '''\
                """Fixture."""


                class Worker:
                    """Fixture."""

                    def multiline(self):
                        """Stale use inside a statement spanning lines."""
                        lease = self.lease_map
                        yield 1.0
                        self.apply(
                            lease,  # dprlint: disable=DPR-A01
                            "arg")
            ''',
        })
        assert "DPR-A01" not in rules_found(findings), findings

    def test_disable_on_yield_from_line(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/cluster/dele.py": '''\
                """Fixture."""


                class Worker:
                    """Fixture."""

                    def flagged(self):
                        """Unsuppressed twin: proves the rule fires."""
                        sink = self.owner_sink
                        yield 1.0
                        yield from self.send_all(sink)

                    def suppressed(self):
                        """Same shape, disabled on the yield-from."""
                        sink = self.owner_sink
                        yield 1.0
                        yield from self.send_all(sink)  # dprlint: disable=DPR-A01
            ''',
        })
        flagged = [f for f in findings if f.rule == "DPR-A01"]
        assert len(flagged) == 1, findings
        assert flagged[0].line == 11


class TestBaselineRoundTrip:
    FILES = {
        "repro/cluster/two.py": '''\
            """Fixture with two findings for ordering tests."""

            import time


            def first():
                """Direct source one."""
                return time.time()


            def second():
                """Direct source two."""
                return time.perf_counter()
        ''',
    }

    def test_cli_write_then_read_is_clean(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        baseline = tmp_path / "baseline.json"
        written = run_cli(["--write-baseline", str(baseline),
                           str(tmp_path)])
        assert written.returncode == 0, written.stdout + written.stderr
        clean = run_cli(["--baseline", str(baseline), str(tmp_path)])
        assert clean.returncode == 0, clean.stdout + clean.stderr

    def test_baseline_matches_under_either_ordering(self, tmp_path):
        """Fingerprint matching is order-independent: a baseline file
        with its entries reversed suppresses the same findings."""
        write_tree(tmp_path, self.FILES)
        baseline = tmp_path / "baseline.json"
        run_cli(["--write-baseline", str(baseline), str(tmp_path)])
        entries = json.loads(baseline.read_text(encoding="utf-8"))
        assert len(entries) >= 2
        baseline.write_text(json.dumps(list(reversed(entries))),
                            encoding="utf-8")
        clean = run_cli(["--baseline", str(baseline), str(tmp_path)])
        assert clean.returncode == 0, clean.stdout + clean.stderr


class TestExplainAndListRules:
    def test_explain_prints_docs_section(self):
        result = run_cli(["--explain", "DPR-A01"])
        assert result.returncode == 0
        assert result.stdout.startswith("### DPR-A01")
        assert "preemption point" in result.stdout

    def test_explain_works_for_every_rule(self):
        for rule in all_rules():
            result = run_cli(["--explain", rule.id])
            assert result.returncode == 0, (rule.id, result.stderr)
            assert rule.id in result.stdout

    def test_explain_unknown_rule_is_usage_error(self):
        result = run_cli(["--explain", "DPR-XX"])
        assert result.returncode == 2
        assert "unknown rule" in result.stderr

    def test_list_rules_shows_severity_tiers(self):
        result = run_cli(["--list-rules"])
        assert result.returncode == 0
        lines = {line.split()[0]: line
                 for line in result.stdout.splitlines() if line}
        assert "[error]" in lines["DPR-A01"]
        assert "[error]" in lines["DPR-A02"]
        assert "[warning]" in lines["DPR-H01"]


class TestAnalysisPerformance:
    def test_full_tree_under_ten_seconds(self):
        """The CI budget: whole-program analysis of src/ (call graph,
        dataflow, and all per-file rules) stays interactive."""
        import time
        started = time.perf_counter()
        findings = run_lint([str(SRC)])
        elapsed = time.perf_counter() - started
        assert findings == []
        assert elapsed < 10.0, f"dprlint took {elapsed:.1f}s on src/"
