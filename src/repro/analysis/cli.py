"""The ``dprlint`` command line: ``python -m repro.analysis [paths...]``.

Exit status: 0 clean, 1 findings, 2 usage or input errors (an unknown
rule id, a path that does not exist, or paths holding no ``.py`` file).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.framework import all_rules, run_lint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="dprlint: AST-based protocol-invariant and determinism "
                    "linter for the DPR reproduction (see docs/ANALYSIS.md).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.id}  {rule.title}  [scope: {scope}]")
        return 0

    select = None
    if args.select is not None:
        select = [part.strip() for part in args.select.split(",")
                  if part.strip()]
        known = {rule.id for rule in all_rules()}
        for spec in select:
            if spec not in known:
                print(f"unknown rule id: {spec}", file=sys.stderr)
                return 2

    try:
        findings = run_lint(args.paths, select=select)
    except OSError as exc:
        print(f"dprlint: {exc}", file=sys.stderr)
        return 2

    if args.fmt == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        summary = (f"dprlint: {len(findings)} finding(s)"
                   if findings else "dprlint: clean")
        print(summary)
    return 1 if findings else 0
