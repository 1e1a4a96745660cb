"""The dprlint rule framework.

dprlint is a self-contained static analyzer (stdlib :mod:`ast` only)
that enforces, at review time, the two properties the reproduction's
correctness rests on but Python does not check:

- the **DPR protocol invariants** (monotonicity, cut closure, world-line
  agreement — §4.3), whose runtime counterpart lives in
  :mod:`repro.core.audit`;
- the **exact reproducibility** of the discrete-event kernel
  (:mod:`repro.sim.kernel` promises bit-identical runs for a fixed seed,
  which a single ``time.time()`` or unsorted-``set`` iteration in any
  package that runs inside a simulation or store silently breaks).

This module provides the machinery: :class:`Finding`, :class:`ModuleInfo`
(one parsed file with its suppression comments), :class:`Project` (the
whole parsed tree), the rule base classes and registry, and the
:func:`run_lint` driver.  The rules themselves live in
:mod:`repro.analysis.rules_determinism` (DPR-D01, D02, D04),
:mod:`repro.analysis.rules_protocol` (DPR-P02) and
:mod:`repro.analysis.rules_concurrency` (DPR-A01).  Properties that are
checked over what runs rather than over code shape (message dispatch,
tracer purity, no host I/O in simulated code) are tier-1 tests; see
``docs/ANALYSIS.md`` for where each retired rule went.

Suppressions
------------

Append ``# dprlint: disable=DPR-D01`` (comma-separate several ids, or
``disable=all``) to the offending line.  That is the only escape hatch.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Module prefixes whose code runs inside a simulation or a store: the
#: determinism rules apply here, so a nondeterminism source is flagged
#: in the module where it is written, whoever calls it.
PROTOCOL_SCOPE: Tuple[str, ...] = (
    "repro.sim",
    "repro.core",
    "repro.cluster",
    "repro.faster",
    "repro.obs",
    "repro.workloads",
    "repro.baselines",
    "repro.redisclone",
)

#: Module prefixes that legitimately measure host wall-clock time (the
#: bench harness reports how long figure generation took).  Monotonic
#: timers are allowed here; calendar time and entropy still are not.
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = ("repro.bench",)

_SUPPRESS_RE = re.compile(r"#\s*dprlint:\s*disable\s*=\s*([A-Za-z0-9_\-, ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Supporting locations as (path, line, label) — e.g. DPR-A01's
    #: snapshot line and preemption point.
    related: Tuple[Tuple[str, int, str], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.related:
            data["related"] = [
                {"path": path, "line": line, "label": label}
                for path, line, label in self.related
            ]
        return data

    def render(self) -> str:
        head = (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")
        notes = [f"    note: {path}:{line}: {label}"
                 for path, line, label in self.related]
        return "\n".join([head] + notes)


class ModuleInfo:
    """One parsed source file plus its dprlint suppression comments."""

    def __init__(self, path: str, module: str, tree: ast.Module, source: str):
        self.path = path
        self.module = module
        self.tree = tree
        self.line_suppressions: Dict[int, Set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is not None:
                self.line_suppressions[lineno] = {
                    part.strip() for part in match.group(1).split(",")
                    if part.strip()}

    def suppresses(self, finding: Finding) -> bool:
        on_line = self.line_suppressions.get(finding.line, set())
        return "all" in on_line or finding.rule in on_line

    def finding(self, rule: "Rule", node: ast.AST, message: str,
                related: Tuple[Tuple[str, int, str], ...] = ()) -> Finding:
        return Finding(rule=rule.id, path=self.path,
                       line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0),
                       message=message, related=related)

    # -- import resolution -------------------------------------------------

    def import_map(self) -> Dict[str, str]:
        """Local name -> dotted origin, for resolving call targets.

        ``import time`` maps ``time -> time``; ``from time import
        perf_counter`` maps ``perf_counter -> time.perf_counter``;
        ``import numpy as np`` maps ``np -> numpy``.  Relative imports
        resolve against this module's package.
        """
        mapping: Dict[str, str] = {}
        package_parts = self.module.split(".")[:-1]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mapping[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        mapping[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = package_parts[: len(package_parts)
                                               - (node.level - 1)]
                    base = ".".join(base_parts)
                    origin = f"{base}.{node.module}" if node.module else base
                else:
                    origin = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    mapping[local] = (f"{origin}.{alias.name}"
                                      if origin else alias.name)
        return mapping


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain through the module's imports.

    ``datetime.now()`` after ``from datetime import datetime`` resolves
    to ``datetime.datetime.now``.
    """
    chain = dotted_name(node)
    if chain is None:
        return None
    head, _, rest = chain.partition(".")
    origin = imports.get(head, head)
    return f"{origin}.{rest}" if rest else origin


class Project:
    """Every parsed module, indexed by dotted name."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.by_name: Dict[str, ModuleInfo] = {m.module: m for m in modules}
        self.by_path: Dict[str, ModuleInfo] = {m.path: m for m in modules}

    def get(self, module: str) -> Optional[ModuleInfo]:
        return self.by_name.get(module)

    def in_scope(self, prefixes: Tuple[str, ...]) -> Iterator[ModuleInfo]:
        for info in self.modules:
            if module_in_scope(info.module, prefixes):
                yield info


def module_in_scope(module: str, prefixes: Tuple[str, ...]) -> bool:
    if not prefixes:
        return True
    return any(module == p or module.startswith(p + ".") for p in prefixes)


# -- rule base classes and registry ------------------------------------------


class Rule:
    """Base class: an id, a one-line title, and a module scope."""

    id: str = ""
    title: str = ""
    #: Module-name prefixes the rule applies to; empty = everywhere.
    scope: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        return module_in_scope(module, self.scope)


class ModuleRule(Rule):
    """A rule checked one file at a time."""

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule needing a cross-module view (set-typed fields, layering)."""

    def check_project(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator adding a rule to the global registry."""
    instance = rule_cls()
    if not instance.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if instance.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id}")
    _REGISTRY[instance.id] = instance
    return rule_cls


def all_rules() -> List[Rule]:
    """The registered rules, importing the rule modules on first use."""
    # Imported here (not at module top) so framework <-> rules stay
    # cycle-free; registration happens as a side effect of the import.
    from repro.analysis import (  # noqa: F401
        rules_concurrency,
        rules_determinism,
        rules_protocol,
    )

    return sorted(_REGISTRY.values(), key=lambda rule: rule.id)


# -- file collection and parsing ---------------------------------------------


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, once each.

    A path that does not exist is an input error, not a finding:
    :class:`FileNotFoundError`, which the CLI turns into exit 2.
    """
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.exists():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def module_name_for(path: Path) -> str:
    """Dotted module name, found by climbing the ``__init__.py`` chain."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        parts = [path.stem]
    return ".".join(reversed(parts))


def load_project(paths: Sequence[str]) -> Tuple[Project, List[Finding]]:
    """Parse every file under ``paths``; syntax errors become findings.

    Linting nothing is an input error: a mistyped path must not pass as
    clean.
    """
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(Finding(rule="DPR-E01", path=str(path), line=0,
                                  col=0, message=f"unreadable file: {exc}"))
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            errors.append(Finding(
                rule="DPR-E01", path=str(path), line=exc.lineno or 0,
                col=exc.offset or 0, message=f"syntax error: {exc.msg}",
            ))
            continue
        modules.append(ModuleInfo(str(path), module_name_for(path),
                                  tree, source))
    if not modules and not errors:
        raise FileNotFoundError(
            f"no Python files under {' '.join(map(str, paths))}")
    return Project(modules), errors


# -- driver ------------------------------------------------------------------


def run_lint(paths: Sequence[str],
             select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint ``paths`` with every rule (or the ``select``-ed ids) and
    return the unsuppressed findings, sorted."""
    selected = set(select) if select else None
    rules = [rule for rule in all_rules()
             if selected is None or rule.id in selected]
    project, findings = load_project(paths)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(project))
        elif isinstance(rule, ModuleRule):
            for module in project.modules:
                if rule.applies_to(module.module):
                    findings.extend(rule.check_module(module, project))
    kept = [finding for finding in findings
            if finding.path not in project.by_path
            or not project.by_path[finding.path].suppresses(finding)]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept
