"""dprlint: per-rule good/bad fixtures, suppressions, CLI.

Every rule gets at least one fixture that must trigger it and one that
must stay clean.  Fixture trees are laid out as real ``repro.*``
packages under a tmp dir so the module-scoping logic (protocol packages
vs. the bench allowlist) is exercised, not bypassed.  The CLI tests are
the acceptance criteria: the shipped tree lints clean, and injecting a
wall-clock call and an unsorted-set iteration into a ``repro.workloads``
helper, plus a cluster-side poke at ``StateObject._sealed``, makes
``python -m repro.analysis`` fail at exactly those lines.  The whole tree is
analysed twice per session: once in process (shared by the clean and
the timing checks) and once by the injected CLI run.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.framework import all_rules, module_name_for

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


def lint_fixture(tmp_path, files):
    write_tree(tmp_path, files)
    return run_lint([str(tmp_path)])


def rules_found(findings):
    return {finding.rule for finding in findings}


@pytest.fixture(scope="session")
def shipped_lint():
    """One whole-tree ``run_lint`` over ``src/``: (findings, seconds)."""
    started = time.perf_counter()
    findings = run_lint([str(SRC)])
    return findings, time.perf_counter() - started


def run_cli(args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis"] + args,
        capture_output=True, text=True, env=env, cwd=str(cwd),
    )


@pytest.fixture(scope="module")
def injected_cli(tmp_path_factory):
    """One CLI run over a copy of ``src/`` carrying three injections.

    A wall-clock read and an unsorted-set loop go into a
    ``repro.workloads`` helper that cluster code calls, and a read of
    ``StateObject._sealed`` from outside its owner goes into
    ``repro.cluster.messages`` (a project-scope finding).
    Returns ({rule: [(file name, line)]}, {rule: injected line}).
    """
    target = tmp_path_factory.mktemp("injected") / "src"
    shutil.copytree(SRC, target)
    helper = target / "repro/workloads/ycsb.py"
    anchor = "        wf = self.write_fraction\n"
    text = helper.read_text(encoding="utf-8")
    assert text.count(anchor) == 1
    text = text.replace(anchor, anchor + (
        "        import time\n"
        "        wf += 0 * time.time()\n"
        "        for _ in set(range(batch_size)):\n"
        "            pass\n"))
    helper.write_text(text, encoding="utf-8")
    first = text[:text.index(anchor)].count("\n") + 1
    messages = target / "repro/cluster/messages.py"
    text = messages.read_text(encoding="utf-8") + (
        "\n\ndef injected_probe(engine):\n    return engine._sealed\n")
    messages.write_text(text, encoding="utf-8")
    lines = {"DPR-D01": first + 2, "DPR-D02": first + 3,
             "DPR-P02": text.count("\n")}

    result = run_cli(["--format", "json", str(target)])
    assert result.returncode == 1, result.stderr
    found = {}
    for entry in json.loads(result.stdout):
        found.setdefault(entry["rule"], []).append(
            (Path(entry["path"]).name, entry["line"]))
    return found, lines


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
        # A suppression is final: nothing resurfaces at the callers of
        # the suppressed line, in its own module or in another package.
        findings = lint_fixture(tmp_path, {
            "repro/workloads/clock.py": """\
                import time

                def stamp():
                    return time.time()  # dprlint: disable=DPR-D01

                def act():
                    return stamp()
            """,
            "repro/cluster/proto.py": """\
                from repro.workloads.clock import stamp

                class Proto:
                    def act(self):
                        return stamp()
            """,
        })
        assert "DPR-D01" not in rules_found(findings)

    def test_select(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/multi.py": """\
                import time

                def f(key):
                    return time.time(), hash(key)
            """,
        })
        assert rules_found(run_lint([str(tmp_path)])) == {"DPR-D01",
                                                          "DPR-D04"}
        only_clock = run_lint([str(tmp_path)], select=["DPR-D01"])
        assert rules_found(only_clock) == {"DPR-D01"}
        only_hash = run_lint([str(tmp_path)], select=["DPR-D04"])
        assert rules_found(only_hash) == {"DPR-D04"}

    def test_rule_catalog_is_complete(self):
        expected = {"DPR-A01", "DPR-D01", "DPR-D02", "DPR-D04", "DPR-P02"}
        assert {rule.id for rule in all_rules()} == expected


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
        d01 = [(Path(f.path).name, f.line) for f in findings
               if f.rule == "DPR-D01"]
        assert d01 == [("timer.py", 4)]

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
            # A workloads helper iterating a set for cluster code.
            "repro/workloads/spread.py": """\
                def spread(keys: set):
                    return [key for key in keys]
            """,
            "repro/cluster/route.py": """\
                from repro.workloads.spread import spread

                def route(keys):
                    return spread(keys)
            """,
        })
        d02 = sorted((Path(f.path).name, f.line) for f in findings
                     if f.rule == "DPR-D02")
        assert d02 == [("closure.py", 3), ("spread.py", 2)]

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
        source = """\
            def spread(keys: set):
                return [key for key in keys]
        """
        findings = lint_fixture(tmp_path, {
            "repro/workloads/checked.py": source,
            "repro/bench/unchecked.py": source,
        })
        assert [Path(f.path).name for f in findings
                if f.rule == "DPR-D02"] == ["checked.py"]

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
        source = """\
            def spread(key, n):
                return hash(key) % n
        """
        findings = lint_fixture(tmp_path, {
            "repro/workloads/checked.py": source,
            "repro/bench/unchecked.py": source,
        })
        assert [Path(f.path).name for f in findings
                if f.rule == "DPR-D04"] == ["checked.py"]


PROTOCOL_FIXTURE = {
    # A miniature repro.core.state_object so the P02 registry resolves.
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

class TestCli:
    def test_shipped_tree_is_clean(self, shipped_lint):
        """Tier-1 acceptance: the shipped ``src/`` lints clean."""
        findings, _ = shipped_lint
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_json_format(self, tmp_path):
        write_tree(tmp_path, {
            "repro/core/clock.py": """\
                \"\"\"Fixture.\"\"\"
                import time

                def stamp():
                    return time.time()
            """,
            "repro/cluster/node.py": """\
                \"\"\"Fixture.\"\"\"


                class Node:
                    \"\"\"Fixture.\"\"\"

                    def loop(self):
                        \"\"\"Stale owner snapshot.\"\"\"
                        owner = self.owner_of
                        yield 1.0
                        return owner
            """,
        })
        result = run_cli(["--format", "json", str(tmp_path)])
        assert result.returncode == 1
        by_rule = {entry["rule"]: entry
                   for entry in json.loads(result.stdout)}
        assert set(by_rule) == {"DPR-D01", "DPR-A01"}
        assert by_rule["DPR-D01"]["path"].endswith("clock.py")
        assert "related" not in by_rule["DPR-D01"]
        # Supporting locations travel with the finding.
        assert [(entry["line"], entry["label"])
                for entry in by_rule["DPR-A01"]["related"]] == [
            (9, "owner snapshotted here"), (10, "preemption point (yield)")]

    def test_list_rules(self):
        result = run_cli(["--list-rules"])
        assert result.returncode == 0
        listed = [line.split()[0] for line in result.stdout.splitlines()]
        assert listed == sorted(rule.id for rule in all_rules())

    def test_unknown_rule_id_is_usage_error(self):
        result = run_cli(["--select", "DPR-XX", "src"])
        assert result.returncode == 2

    def test_missing_path_is_input_error(self, tmp_path):
        result = run_cli([str(tmp_path / "nosuchdir")])
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "nosuchdir" in result.stderr

    def test_path_without_python_files_is_input_error(self, tmp_path):
        (tmp_path / "notes.txt").write_text("no code here\n")
        result = run_cli([str(tmp_path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "no Python files" in result.stderr

    def test_injected_wall_clock_fails(self, injected_cli):
        found, lines = injected_cli
        assert found["DPR-D01"] == [("ycsb.py", lines["DPR-D01"])]

    def test_injected_unsorted_set_iteration_fails(self, injected_cli):
        found, lines = injected_cli
        assert found["DPR-D02"] == [("ycsb.py", lines["DPR-D02"])]

    def test_injected_private_state_poke_fails(self, injected_cli):
        found, lines = injected_cli
        assert found["DPR-P02"] == [("messages.py", lines["DPR-P02"])]
        # Nothing but the three injections is reported.
        assert sorted(found) == ["DPR-D01", "DPR-D02", "DPR-P02"]


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
    """Nondeterminism sources behind a call into another package.

    Every runtime package is in scope of the per-file rules, so a source
    wrapped in a ``repro.workloads`` helper is reported once, at the line
    in the helper where it is written, and not again at its callers.
    """

    def test_wall_clock_behind_utility_wrapper(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/workloads/timing.py": """\
                import time

                def stamp():
                    return time.perf_counter()
            """,
            "repro/cluster/node.py": """\
                from repro.workloads.timing import stamp

                class Node:
                    def handle(self):
                        return stamp()
            """,
        })
        d01 = [(Path(f.path).name, f.line) for f in findings
               if f.rule == "DPR-D01"]
        assert d01 == [("timing.py", 4)]

    def test_covered_source_is_not_double_reported(self, tmp_path):
        findings = lint_fixture(tmp_path, {
            "repro/workloads/direct.py": """\
                import time

                def now():
                    return time.time()

                def relay():
                    return now()
            """,
            "repro/cluster/proto.py": """\
                from repro.workloads.direct import now

                class Proto:
                    def act(self):
                        return now()
            """,
        })
        d01 = [(Path(f.path).name, f.line) for f in findings
               if f.rule == "DPR-D01"]
        assert d01 == [("direct.py", 4)]


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


class TestAnalysisPerformance:
    def test_full_tree_under_five_seconds(self, shipped_lint):
        """The CI budget: analysis of the whole src/ tree (per-generator
        dataflow and all per-file rules) stays interactive."""
        findings, elapsed = shipped_lint
        assert findings == []
        assert elapsed < 5.0, f"dprlint took {elapsed:.1f}s on src/"
