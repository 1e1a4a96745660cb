"""The ``dprlint`` command line: ``python -m repro.analysis [paths...]``.

Exit status: 0 clean, 1 findings, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from pathlib import Path

from repro.analysis.framework import (
    all_rules,
    load_baseline,
    run_lint,
    write_baseline,
)


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
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="JSON baseline of known findings to suppress",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write current findings to FILE as a baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules with severity tiers and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print the docs/ANALYSIS.md section for RULE and exit",
    )
    return parser


def _analysis_doc_path() -> Optional[Path]:
    """Locate docs/ANALYSIS.md relative to this file or the cwd."""
    here = Path(__file__).resolve()
    for base in [p for p in here.parents] + [Path.cwd()]:
        candidate = base / "docs" / "ANALYSIS.md"
        if candidate.is_file():
            return candidate
    return None


def _explain(rule_id: str) -> int:
    rules = {rule.id: rule for rule in all_rules()}
    rule = rules.get(rule_id)
    if rule is None:
        print(f"unknown rule id: {rule_id}", file=sys.stderr)
        return 2
    doc = _analysis_doc_path()
    section: Optional[str] = None
    if doc is not None:
        lines = doc.read_text(encoding="utf-8").splitlines()
        collected: List[str] = []
        inside = False
        for line in lines:
            if line.startswith("### "):
                if inside:
                    break
                inside = line[4:].strip().startswith(rule_id)
            if inside:
                collected.append(line)
        if collected:
            section = "\n".join(collected).strip()
    if section is None:
        # Fall back to the rule's own docstring when the docs section
        # is missing (e.g. running from an installed package).
        body = (rule.__class__.__doc__ or rule.title).strip()
        section = f"### {rule.id}: {rule.title}\n\n{body}"
    print(section)
    return 0


def _split_rules(spec: Optional[str]) -> Optional[List[str]]:
    if spec is None:
        return None
    return [part.strip() for part in spec.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule.id}  [{rule.severity}]  {rule.title}  "
                  f"[scope: {scope}]")
        return 0

    if args.explain:
        return _explain(args.explain)

    known = {rule.id for rule in all_rules()}
    for spec in (_split_rules(args.select) or []) + \
                (_split_rules(args.ignore) or []):
        if spec not in known:
            print(f"unknown rule id: {spec}", file=sys.stderr)
            return 2

    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        findings = run_lint(
            args.paths,
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore),
            baseline=baseline,
        )
    except OSError as exc:
        print(f"cannot lint {args.paths}: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(f"wrote {len(findings)} fingerprint(s) to "
              f"{args.write_baseline}")
        return 0

    if args.fmt == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        summary = (f"dprlint: {len(findings)} finding(s)"
                   if findings else "dprlint: clean")
        print(summary)
    return 1 if findings else 0
