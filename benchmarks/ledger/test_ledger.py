"""Self-tests of the perf ledger (not tier-1; run explicitly, ~2 min):

    python -m pytest -q benchmarks/ledger/test_ledger.py

They drive the real commands on the ``--smoke`` shrink and hold the
ledger to its contract: declared names and limits, every declared
metric emitted, the layer bucketer's ``other`` share, wrong outputs
failing the command, the comparison verdicts, and the refusal to run
without the repository's source.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def ledger(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / spec.LEDGER_DIR / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the declared contract ----------------------------------------------------


def test_benchmark_json_is_generated_from_spec():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}


def test_names_units_and_limits():
    declared = spec.benchmark_json()
    assert len(declared["workloads"]) <= 4
    assert len(declared["end_to_end"]) <= 12
    assert len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in declared["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in declared["end_to_end"]:
        assert 0 <= entry["bound"] <= 0.25
    setup = next(e for e in declared["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in declared["end_to_end"])


def test_every_source_file_maps_to_a_layer():
    import tracing
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        assert tracing.layer_of_file(str(path)) is not None, path
    assert tracing.layer_of_file(str(HERE / "workloads.py")) == "ledger"
    assert tracing.layer_of_file("~") is None
    assert tracing.layer_of_file("/usr/lib/python3.11/random.py") is None
    assert spec.layer_of_module("cluster", "elastic") == "cluster"
    assert spec.layer_of_module("faster", "store") == "faster"


# -- a full smoke set -------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    out = tmp / "smoke.json"
    history = tmp / "history.jsonl"
    proc = ledger("--smoke", "--seed", "7", "--out", str(out),
                  "--append-history", str(history))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), out, history, proc.stdout


def test_smoke_set_emits_every_declared_metric(smoke_result):
    result, _out, _history, printed = smoke_result
    assert result["smoke"] is True and result["schema"] == spec.SCHEMA
    assert set(result["workloads"]) == set(spec.WORKLOADS)
    for name, record in result["workloads"].items():
        assert record["correct"], (name, record["checks"])
        assert record["failed"] == 0 and record["attempted"] >= 1
        for metric, unit, *_rest in spec.END_TO_END:
            entry = record["end_to_end"][metric]
            assert entry["unit"] == unit and entry["median"] > 0, (
                name, metric)
            assert f"  {metric:26s} {unit:8s}" in printed
        assert set(record["sim"]) == {m[0] for m in spec.SIM_RESULTS}
        assert re.fullmatch(r"[0-9a-f]{64}", record["sim_digest"])
        assert len(record["top_functions"]) == 20
    assert set(result["micro"]) == {m[0] for m in spec.MICRO}
    assert "fig10_baseline" in " ".join(
        result["workloads"]["fig10_sweep"]["skipped"])


def test_layer_bucketer_leaves_little_in_other(smoke_result):
    result = smoke_result[0]
    for name, record in result["workloads"].items():
        assert record["other_share"] < 0.02, (name, record["other_share"])
        assert set(record["layers"]) - {"other"} <= set(spec.LAYERS) | {
            "cluster", "repro", "analysis", "baselines", "logstore"}


def test_workloads_separate_the_layers(smoke_result):
    """The separation the workloads were chosen for, on the traced pass
    (README.md reports the full-size shares)."""
    result = smoke_result[0]

    def share(workload, *layers):
        table = result["workloads"][workload]["layers"]
        total = sum(entry["self_s"] for entry in table.values())
        return sum(table.get(layer, {"self_s": 0.0})["self_s"]
                   for layer in layers) / total

    assert share("libdpr_stores", "sim.kernel", "sim.network") == 0
    assert share("fig10_sweep", "cluster.replication", "sim.faults") == 0
    assert share("fig10_sweep", "sim.kernel", "sim.network") >= 0.25
    assert share("chaos_recovery", "cluster.replication", "sim.faults") > 0.05
    assert share("openloop_knee", "sim.queues", "workloads.openloop") >= 0.4
    assert share("libdpr_stores", "core.session", "core.state_object",
                 "core.finder", "core.recovery", "faster",
                 "redisclone") >= 0.6


def test_history_line_and_smoke_refused_by_compare(smoke_result):
    _result, out, history, _printed = smoke_result
    [line] = history.read_text().splitlines()
    entry = json.loads(line)
    assert set(entry["workloads"]) == set(spec.WORKLOADS)
    assert entry["workloads"]["fig10_sweep"]["wall_s"] > 0
    proc = ledger("--compare", str(out), str(out))
    assert proc.returncode == 2
    assert "smoke" in proc.stderr


# -- driver mode ---------------------------------------------------------------------


def test_driver_end_to_end_line():
    proc = ledger("--workload", "openloop_knee", "--seed", "3",
                  "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m[0] for m in spec.END_TO_END}
    for entry in line["metrics"].values():
        assert set(entry) == {"value", "unit"} and entry["value"] > 0


def test_driver_per_layer_line():
    proc = ledger("--workload", "libdpr_stores", "--seed", "3",
                  "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = last_json(proc)
    declared = {m["name"]: m["unit"] for m in spec.per_layer_metrics()}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert line["metrics"]["sim.kernel.self_s"]["value"] == 0
    assert line["metrics"]["faster.self_s"]["value"] > 0
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 1
    trace = json.loads((HERE / "out" / "trace_libdpr_stores.json").read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"leg", "session.prepare", "server.process_batch",
            "session.absorb", "server.commit", "finder.tick",
            "session.refresh_commit", "recovery.recover"} <= names
    by_id = {span["id"]: span for span in trace["spans"]}
    for span in trace["spans"]:
        assert span["end"] >= span["start"]
        assert span["parent"] == 0 or span["parent"] in by_id


@pytest.mark.parametrize("workload,tamper", [
    ("fig10_sweep", "artifact"), ("libdpr_stores", "replay")])
def test_wrong_output_fails_the_command(workload, tamper):
    proc = ledger("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--smoke", "--tamper", tamper)
    assert proc.returncode == 1
    assert last_json(proc)["correct"] is False
    assert "FAILED" in proc.stderr


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(HERE, tmp_path / spec.LEDGER_DIR,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    proc = ledger("--workload", "fig10_sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert proc.stdout.strip() == ""
    assert "src/repro not found" in proc.stderr


# -- comparison verdicts ---------------------------------------------------------------


def _result(wall=(5.0, 4.9, 5.1), recovery=60.0, failed=0):
    def entry(median, q1, q3, unit):
        return {"median": median, "q1": q1, "q3": q3, "n": 5, "unit": unit,
                "values": [median] * 5}
    e2e = {name: entry(1.0, 1.0, 1.0, unit)
           for name, unit, *_rest in spec.END_TO_END}
    e2e["wall_s"] = entry(*wall, "s")
    sim = {name: 0.0 for name, *_rest in spec.SIM_RESULTS}
    sim["sim.recovery_ms"] = recovery
    return {
        "schema": spec.SCHEMA, "commit": "c" * 40, "smoke": False,
        "host": {"calib_per_s": [1e7, 1e7], "noisy": False},
        "workloads": {"chaos_recovery": {
            "correct": True, "failed": failed, "attempted": 10,
            "end_to_end": e2e, "sim": sim, "counts": {}, "sim_digest": "d",
            "layers": {"sim.kernel": {"self_s": 1.0, "calls": 7}}}},
    }


def test_compare_verdicts(capsys):
    base = _result()
    assert run.compare(base, copy.deepcopy(base), exact=True) == 0
    assert "same" in capsys.readouterr().out
    assert run.compare(base, _result(wall=(5.6, 5.5, 5.7))) == 0
    assert "  worse" not in capsys.readouterr().out
    assert run.compare(base, _result(wall=(6.5, 6.4, 6.6))) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "1.3000x of base 5.0000" in out
    assert run.compare(base, _result(wall=(3.5, 3.4, 3.6))) == 0
    assert "better" in capsys.readouterr().out
    noisy_base = _result(wall=(5.0, 4.3, 5.7))
    assert run.compare(noisy_base, _result(wall=(6.5, 6.4, 6.6))) == 0
    assert "unresolved" in capsys.readouterr().out
    assert run.compare(base, _result(recovery=70.0)) == 1
    assert run.compare(_result(recovery=0.0), base) == 1
    assert run.compare(base, _result(failed=1)) == 1
    drifted = _result()
    drifted["workloads"]["chaos_recovery"]["layers"]["sim.kernel"][
        "calls"] = 8
    assert run.compare(base, drifted) == 0
    assert run.compare(base, drifted, exact=True) == 1
