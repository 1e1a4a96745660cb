"""One ledger child: set up, measure and check one (workload, seed).

``run.py`` starts this file as a fresh process per repeat, so peak RSS
and cold caches (Zipfian / CostModel memos, imports) are what a user
running one figure pays.  The child prints exactly one JSON line on
stdout; exit code 0 means every correctness gate passed, 1 means a
gate failed (the JSON still describes which), anything else is a
crash.

    python benchmarks/ledger/unit.py --workload fig10_sweep --seed 42

``--profile`` runs the measured section under cProfile and adds the
per-layer rollup; ``--trace-out`` also writes the benchmark-side spans.
``--tamper`` corrupts the *checker's* view (never the program) so the
test-suite can prove a wrong output fails the command.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--tamper", choices=("artifact", "replay"),
                        default=None)
    parser.add_argument(
        "--spawned-at", type=float, default=None,
        help="parent's time.perf_counter() just before the spawn, so "
             "setup_s covers interpreter start-up (CLOCK_MONOTONIC is "
             "shared between processes)")
    args = parser.parse_args(argv)
    began = (args.spawned_at if args.spawned_at is not None
             else time.perf_counter())

    if not (SRC / "repro").is_dir():
        print(f"ledger: {SRC}/repro not found - the ledger measures the "
              f"repository it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"ledger: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](
        args.seed, smoke=args.smoke, tamper=args.tamper)
    workload.prepare()
    setup_s = time.perf_counter() - began

    profiler = cProfile.Profile() if args.profile else None
    meter = tracing.Meter(profiler)
    spans = tracing.Spans(meter)
    meter.start()
    workload.run(meter, spans)
    meter.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = workload.report()
    passed = all(ok for _name, ok, _detail in report.checks)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "profiled": args.profile,
        "correct": passed and report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "checks": [{"name": name, "passed": ok, "detail": detail}
                   for name, ok, detail in report.checks],
        "skipped": report.skipped,
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": meter.elapsed,
            "work_per_wall_s": report.work_units / meter.elapsed,
            "peak_rss_mb": peak_rss_mb,
            "tput_mops": report.tput_mops,
            "op_p50_ms": report.op_p50_ms,
        },
        "sim_time_metrics": list(workload.SIM_TIME_METRICS),
        "work_units": report.work_units,
        "sim": report.sim,
        "counts": report.counts,
        "sim_digest": report.sim_digest,
        "span_self_times": spans.self_times(),
    }
    if profiler is not None:
        out["profile"] = tracing.layer_rollup(profiler)
    if args.trace_out:
        path = Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "profiled": args.profile,
            "wall_s": meter.elapsed,
            "span_self_times": out["span_self_times"],
            "profile": out.get("profile"),
            "spans": spans.to_json(),
        }) + "\n")
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
