"""The perf ledger: four workloads, end-to-end + per-layer metrics.

Two ways in, one code path underneath (``unit.py`` children, started
one at a time, each a fresh process with ``PYTHONHASHSEED=0``):

**Driver mode** — what ``BENCHMARK.json`` declares::

    python3 benchmarks/ledger/run.py --workload fig10_sweep --seed 42 \\
        --seconds 20 --trace 0

starts fresh children until ``--seconds`` have passed, checks their
outputs, and prints as the last line of stdout one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the median of
every end-to-end metric (``--trace 0``), or every per-layer metric from
one untraced child, one child under cProfile and the micro-benchmarks
(``--trace 1``).

**Ledger mode** — the full result file a human or a later PR reads::

    python3 benchmarks/ledger/run.py [--workload W|micro] [--seed 42]
        [--repeats 5] [--smoke] [--out FILE] [--append-history FILE]
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --selfcheck

runs every workload ``--repeats`` times plus one traced pass each, the
micro-benchmarks, and a calibration loop at start and end (the file is
flagged ``noisy`` when the two differ by more than 10%).  It prints
every metric by name with its unit, median, quartiles and n.  A failed
correctness gate marks the workload invalid and makes the command exit
non-zero.  See README.md for definitions and protocols.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (sibling modules, need HERE on sys.path)
from micro import calibrate, summarize  # noqa: E402

#: A child that takes longer than this is hung, not slow.
CHILD_TIMEOUT_S = 170


class LedgerError(RuntimeError):
    """A child crashed or the ledger cannot run here."""


# -- children ---------------------------------------------------------------


def _child_json(command: Sequence[str]) -> Dict[str, Any]:
    """Run one child to completion and parse its last stdout line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        raise LedgerError(f"child timed out: {' '.join(command)}") from expired
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise LedgerError(
            f"child failed (exit {proc.returncode}): {' '.join(command)}\n"
            f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def spawn_unit(workload: str, seed: int, smoke: bool = False,
               profile: bool = False, trace_out: Optional[Path] = None,
               tamper: Optional[str] = None) -> Dict[str, Any]:
    """One fresh child running one (workload, seed) unit."""
    command = [sys.executable, str(HERE / "unit.py"),
               "--workload", workload, "--seed", str(seed),
               "--spawned-at", repr(time.perf_counter())]
    if smoke:
        command.append("--smoke")
    if profile:
        command.append("--profile")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if tamper is not None:
        command += ["--tamper", tamper]
    return _child_json(command)


def spawn_micro(repeats: int) -> Dict[str, Dict[str, Any]]:
    return _child_json([sys.executable, str(HERE / "micro.py"),
                        "--repeats", str(repeats)])


def require_source() -> None:
    if not (SRC / "repro").is_dir():
        raise LedgerError(
            f"{SRC}/repro not found: the ledger measures the repository "
            f"it sits in and cannot run without it")


# -- folding repeats ------------------------------------------------------------


def fold_units(units: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold same-seed repeats of one workload into one record.

    Host metrics become median + quartiles.  Everything simulated must
    repeat *exactly* — the simulator is a pure function of its seeds —
    so a repeat that disagrees on a sim result, a count or the digest
    fails the ``determinism`` gate.
    """
    first = units[0]
    unit_of = {name: unit for name, unit, *_rest in spec.END_TO_END}
    end_to_end = {
        name: dict(summarize([u["end_to_end"][name] for u in units]),
                   unit=unit_of[name])
        for name in unit_of}
    checks = list(first["checks"])
    exact_keys = ("sim", "counts", "sim_digest", "attempted", "work_units")
    drifted = [key for key in exact_keys
               if any(u[key] != first[key] for u in units[1:])]
    drifted += [name for name in first["sim_time_metrics"]
                if len(set(end_to_end[name]["values"])) > 1]
    checks.append({"name": "determinism", "passed": not drifted,
                   "detail": (f"differs between same-seed repeats: {drifted}"
                              if drifted else
                              f"{len(units)} repeat(s) agree exactly")})
    return {
        "correct": all(u["correct"] for u in units) and not drifted,
        "attempted": first["attempted"],
        "failed": max(u["failed"] for u in units),
        "checks": checks,
        "skipped": first["skipped"],
        "end_to_end": end_to_end,
        "sim": {name: first["sim"].get(name, 0.0)
                for name, *_rest in spec.SIM_RESULTS},
        "counts": first["counts"],
        "sim_digest": first["sim_digest"],
    }


def per_layer_values(plain: Dict[str, Any], traced: Dict[str, Any],
                     micro: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Every ``spec.per_layer_metrics()`` value for one workload."""
    layers = traced["profile"]["layers"]
    values: Dict[str, float] = {}
    for layer in spec.LAYERS:
        entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.calls"] = entry["calls"]
    plain_wall = plain["end_to_end"]["wall_s"]
    values["trace.overhead_ratio"] = (
        traced["end_to_end"]["wall_s"] / plain_wall)
    for name, *_rest in spec.SIM_RESULTS:
        values[name] = plain["sim"].get(name, 0.0)
    for name, _unit, _better in spec.COUNTS:
        values[name] = plain["counts"].get(name, 0.0)
    values["sim.kernel.events_per_s"] = (
        values["sim.kernel.events"] / plain_wall)
    for name, _unit, _better in spec.MICRO:
        values[name] = micro[name]["median"]
    return values


# -- driver mode -------------------------------------------------------------------


def driver_run(workload: str, seed: int, seconds: float, trace: int,
               smoke: bool = False, tamper: Optional[str] = None) -> int:
    """One driver run; ``smoke`` / ``tamper`` exist for test_ledger.py."""
    require_source()
    if workload not in spec.WORKLOADS:
        raise LedgerError(f"unknown workload {workload!r}; "
                          f"known: {', '.join(spec.WORKLOADS)}")
    if trace == 0:
        started = time.perf_counter()
        units = [spawn_unit(workload, seed, smoke=smoke, tamper=tamper)]
        while time.perf_counter() - started < seconds:
            units.append(spawn_unit(workload, seed, smoke=smoke,
                                    tamper=tamper))
        folded = fold_units(units)
        metrics = {name: {"value": entry["median"], "unit": entry["unit"]}
                   for name, entry in folded["end_to_end"].items()}
    else:
        OUT_DIR.mkdir(exist_ok=True)
        plain = spawn_unit(workload, seed, smoke=smoke, tamper=tamper)
        traced = spawn_unit(workload, seed, smoke=smoke, tamper=tamper,
                            profile=True,
                            trace_out=OUT_DIR / f"trace_{workload}.json")
        folded = fold_units([plain])
        folded["correct"] = folded["correct"] and traced["correct"]
        values = per_layer_values(plain, traced,
                                  spawn_micro(repeats=1 if smoke else 3))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec.per_layer_metrics()}
    for check in folded["checks"]:
        if not check["passed"]:
            print(f"FAILED {check['name']}: {check['detail']}",
                  file=sys.stderr)
    print(json.dumps({"correct": folded["correct"],
                      "attempted": folded["attempted"],
                      "failed": folded["failed"], "metrics": metrics}))
    return 0 if folded["correct"] else 1


# -- ledger mode -------------------------------------------------------------------


def _calibrate() -> float:
    return summarize([calibrate() for _ in range(5)])["median"]


def ledger_run(workloads: Sequence[str], seed: int, repeats: int,
               smoke: bool, with_micro: bool) -> Dict[str, Any]:
    """One full set: every workload, traced passes, micro, calibration."""
    require_source()
    sys.path.insert(0, str(SRC))
    from repro.bench.artifacts import git_commit
    OUT_DIR.mkdir(exist_ok=True)
    calib_start = _calibrate()
    result: Dict[str, Any] = {
        "schema": spec.SCHEMA,
        "commit": git_commit(REPO_ROOT),
        "date": datetime.date.today().isoformat(),
        "seed": seed,
        "repeats": repeats,
        "smoke": smoke,
        "workloads": {},
        "micro": (spawn_micro(1 if smoke else repeats)
                  if with_micro else {}),
    }
    for name in workloads:
        print(f"[{name}] {repeats} repeat(s) + 1 traced pass ...",
              file=sys.stderr)
        units = [spawn_unit(name, seed, smoke=smoke) for _ in range(repeats)]
        traced = spawn_unit(name, seed, smoke=smoke, profile=True,
                            trace_out=OUT_DIR / f"trace_{name}.json")
        record = fold_units(units)
        record["correct"] = record["correct"] and traced["correct"]
        plain_wall = record["end_to_end"]["wall_s"]["median"]
        profile = traced["profile"]
        record["layers"] = profile["layers"]
        record["other_share"] = profile["other_share"]
        record["top_functions"] = profile["top_functions"]
        record["span_self_times"] = traced["span_self_times"]
        record["trace_overhead_ratio"] = (
            traced["end_to_end"]["wall_s"] / plain_wall)
        record["events_per_s"] = (
            record["counts"].get("sim.kernel.events", 0.0) / plain_wall)
        result["workloads"][name] = record
    calib_end = _calibrate()
    result["host"] = {
        "calib_per_s": [calib_start, calib_end],
        "noisy": abs(calib_end - calib_start) > 0.10 * calib_start,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    return result


def print_result(result: Dict[str, Any]) -> None:
    host = result["host"]
    stamp = " SMOKE" if result["smoke"] else ""
    noisy = " NOISY" if host["noisy"] else ""
    print(f"ledger{stamp}{noisy}: commit {result['commit'][:12]} seed "
          f"{result['seed']} repeats {result['repeats']} "
          f"host.calib_per_s {host['calib_per_s'][0]:.0f} -> "
          f"{host['calib_per_s'][1]:.0f}")
    for name, record in result["workloads"].items():
        verdict = "ok" if record["correct"] else "INVALID"
        print(f"\n== {name}: {verdict}  attempted {record['attempted']} "
              f"failed {record['failed']}  sim_digest "
              f"{record['sim_digest'][:16]}")
        for check in record["checks"]:
            mark = "pass" if check["passed"] else "FAIL"
            print(f"  [{mark}] {check['name']}: {check['detail']}")
        for skipped in record["skipped"]:
            print(f"  [skip] {skipped}")
        print(f"  {'end-to-end':26s} {'unit':8s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s}  n")
        for metric, _unit, *_rest in spec.END_TO_END:
            entry = record["end_to_end"][metric]
            print(f"  {metric:26s} {entry['unit']:8s} "
                  f"{entry['median']:12.6g} {entry['q1']:12.6g} "
                  f"{entry['q3']:12.6g}  {entry['n']}")
        for metric, unit, *_rest in spec.SIM_RESULTS:
            print(f"  {metric:26s} {unit:8s} {record['sim'][metric]:12.6g}")
        total = sum(entry["self_s"] for entry in record["layers"].values())
        print(f"  traced pass: overhead x{record['trace_overhead_ratio']:.2f}"
              f", other {100 * record['other_share']:.2f}% of self time, "
              f"{record['events_per_s']:.0f} kernel events/s untraced")
        for layer, entry in sorted(record["layers"].items(),
                                   key=lambda item: -item[1]["self_s"]):
            print(f"    {layer:22s} {entry['self_s']:9.3f} s "
                  f"{100 * entry['self_s'] / total:5.1f}%  "
                  f"{entry['calls']:>10d} calls")
        for count, value in sorted(record["counts"].items()):
            print(f"    {count:36s} {value:14.6g}")
        print("  top functions by self time (traced):")
        for entry in record["top_functions"]:
            print(f"    {entry['self_s']:8.3f} s {entry['calls']:>9d}  "
                  f"{entry['function']}  [{entry['layer']}]")
    if result["micro"]:
        print("\n== micro")
        for name, entry in result["micro"].items():
            print(f"  {name:38s} {entry['unit']:6s} {entry['median']:12.6g} "
                  f"{entry['q1']:12.6g} {entry['q3']:12.6g}  {entry['n']}")


def append_history(result: Dict[str, Any], path: Path) -> None:
    """One JSON line per full run: commit, date, calibration, medians."""
    line = {
        "commit": result["commit"], "date": result["date"],
        "seed": result["seed"], "smoke": result["smoke"],
        "calib_per_s": result["host"]["calib_per_s"],
        "noisy": result["host"]["noisy"],
        "workloads": {
            name: dict({metric: entry["median"] for metric, entry
                        in record["end_to_end"].items()},
                       sim_digest=record["sim_digest"], **record["sim"])
            for name, record in result["workloads"].items()},
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


# -- comparison ------------------------------------------------------------------


def _load_result(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        result = json.load(handle)
    if result.get("schema") != spec.SCHEMA:
        raise LedgerError(f"{path}: not a {spec.SCHEMA} result file")
    if result["smoke"]:
        raise LedgerError(f"{path}: smoke results are not comparable")
    return result


def compare(base: Dict[str, Any], change: Dict[str, Any],
            exact: bool = False) -> int:
    """One row per (end-to-end metric, workload); returns the exit code.

    ``worse`` / ``better`` = the change's median moved by more than the
    metric's bound; ``unresolved`` = the base's own inter-quartile
    spread exceeds the bound, so nothing can be said.  Sim-domain
    results are single exact values and use the bounds of
    ``spec.SIM_RESULTS``.  ``exact`` (--selfcheck: same code twice)
    additionally requires every sim result, count, ``<layer>.calls`` and
    ``sim_digest`` to be identical.
    """
    failures = []
    print(f"base   {base['commit'][:12]} calib "
          f"{base['host']['calib_per_s'][0]:.0f}"
          f"{' NOISY' if base['host']['noisy'] else ''}")
    print(f"change {change['commit'][:12]} calib "
          f"{change['host']['calib_per_s'][0]:.0f}"
          f"{' NOISY' if change['host']['noisy'] else ''}")
    print(f"{'workload':16s} {'metric':26s} {'base median [q1, q3]':>40s} "
          f"{'change median [q1, q3]':>40s}  ratio (change / base)  verdict")
    for name in base["workloads"]:
        if name not in change["workloads"]:
            continue
        left = base["workloads"][name]
        right = change["workloads"][name]
        for metric, _unit, better, bound, _definition in spec.END_TO_END:
            a, b = left["end_to_end"][metric], right["end_to_end"][metric]
            spread = (a["q3"] - a["q1"]) / a["median"]
            verdict = _verdict(a["median"], b["median"], better, bound,
                               spread)
            _row(name, metric, a, b, verdict)
            if verdict == "worse":
                failures.append(f"{name}/{metric} worse")
        for metric, _unit, better, bound, _definition in spec.SIM_RESULTS:
            a_value, b_value = left["sim"][metric], right["sim"][metric]
            if a_value == 0.0 and b_value == 0.0:
                continue
            single = {"q1": a_value, "q3": a_value, "median": a_value}
            other = {"q1": b_value, "q3": b_value, "median": b_value}
            verdict = _verdict(a_value, b_value, better, bound, 0.0)
            _row(name, metric, single, other, verdict)
            if verdict == "worse":
                failures.append(f"{name}/{metric} worse")
        if right["failed"] > left["failed"]:
            failures.append(f"{name}: failed {left['failed']} -> "
                            f"{right['failed']}")
        if not (left["correct"] and right["correct"]):
            failures.append(f"{name}: a correctness gate failed")
        if exact:
            for key in ("sim", "counts", "sim_digest", "attempted"):
                if left[key] != right[key]:
                    failures.append(f"{name}: {key} not identical")
            calls = [{layer: entry["calls"]
                      for layer, entry in side["layers"].items()}
                     for side in (left, right)]
            if calls[0] != calls[1]:
                failures.append(f"{name}: <layer>.calls not identical")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: nothing worse" + (", sim side identical" if exact else ""))
    return 1 if failures else 0


def _verdict(base: float, change: float, better: str, bound: float,
             base_spread: float) -> str:
    if base_spread > bound:
        return "unresolved"
    if base == change:
        return "same"
    if base == 0.0:  # a result appeared where there was none
        return "worse" if better == "lower" else "better"
    worsening = (change - base) / base
    if better == "higher":
        worsening = -worsening
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _row(workload: str, metric: str, a: Dict, b: Dict, verdict: str) -> None:
    ratio = b["median"] / a["median"] if a["median"] else float("nan")

    def cell(entry: Dict) -> str:
        return (f"{entry['median']:.4f} [{entry['q1']:.4f}, "
                f"{entry['q3']:.4f}]")

    print(f"{workload:16s} {metric:26s} {cell(a):>40s} {cell(b):>40s}  "
          f"{ratio:.4f}x of base {a['median']:.4f}  {verdict}")


# -- command line ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="perf ledger: see the module docstring and README.md")
    parser.add_argument("--workload", default=None,
                        help="one workload name, or 'micro' (ledger mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk workloads, 1 repeat, result stamped "
                             "smoke and refused by --compare")
    parser.add_argument("--out", default=None,
                        help="ledger mode: result file "
                             "(default out/ledger_result.json)")
    parser.add_argument("--append-history", default=None, metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true",
                        help="two full sets of the same code, compared")
    parser.add_argument("--emit-contract", action="store_true",
                        help="print the BENCHMARK.json this ledger declares")
    parser.add_argument("--tamper", choices=("artifact", "replay"),
                        default=None,
                        help="test only: corrupt the checker's view of the "
                             "output (driver mode); the run must fail")
    args = parser.parse_args(argv)

    try:
        if args.emit_contract:
            print(json.dumps(spec.benchmark_json(), indent=2))
            return 0
        if args.compare:
            return compare(_load_result(args.compare[0]),
                           _load_result(args.compare[1]))
        if args.seconds is not None:
            if args.workload is None:
                parser.error("--seconds needs --workload")
            return driver_run(args.workload, args.seed, args.seconds,
                              args.trace, args.smoke, args.tamper)
        repeats = 1 if args.smoke else args.repeats
        if args.workload is None:
            names, with_micro = list(spec.WORKLOADS), True
        elif args.workload == "micro":
            names, with_micro = [], True
        elif args.workload in spec.WORKLOADS:
            names, with_micro = [args.workload], False
        else:
            parser.error(f"unknown workload {args.workload!r}")
        first = ledger_run(names, args.seed, repeats, args.smoke, with_micro)
        print_result(first)
        out = Path(args.out) if args.out else OUT_DIR / "ledger_result.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
        print(f"\n[wrote {out}]")
        if args.append_history:
            append_history(first, Path(args.append_history))
        status = 0 if all(r["correct"]
                          for r in first["workloads"].values()) else 1
        if args.selfcheck:
            second = ledger_run(names, args.seed, repeats, args.smoke,
                                with_micro)
            print("\n== selfcheck: second set against the first")
            status = max(status, compare(first, second, exact=True))
        return status
    except LedgerError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
