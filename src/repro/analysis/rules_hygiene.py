"""Hygiene rules (DPR-H02, DPR-H04).

Two footguns that have bitten protocol code before: overbroad excepts
swallow :class:`~repro.core.audit.InvariantViolation` and kernel errors
alike (DPR-H02), and docstrings drift — a module with no docstring
gives the next reader nothing, and one that references a class deleted
two refactors ago actively misleads (DPR-H04 cross-checks every
Sphinx-role reference against what is still defined).
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.framework import (
    Finding,
    ModuleInfo,
    ModuleRule,
    Project,
    register,
)


@register
class OverbroadExceptRule(ModuleRule):
    """DPR-H02: no bare or swallow-everything excepts."""

    id = "DPR-H02"
    title = "bare or overbroad except"

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.finding(
                    self, node,
                    "bare except: catches KeyboardInterrupt and kernel "
                    "errors — name the exception types",
                )
                continue
            broad = {
                name.id
                for name in ast.walk(node.type)
                if isinstance(name, ast.Name)
                and name.id in ("Exception", "BaseException")
            }
            if not broad:
                continue
            reraises = any(isinstance(sub, ast.Raise)
                           for sub in ast.walk(node))
            if not reraises:
                yield module.finding(
                    self, node,
                    f"except {'/'.join(sorted(broad))} without re-raise "
                    f"swallows InvariantViolation and simulation errors — "
                    f"narrow the type or re-raise",
                )


#: Sphinx cross-reference roles whose targets name Python objects.
_ROLE_RE = re.compile(
    r":(?:py:)?(?:class|func|meth|mod|attr|obj|data|exc):`([^`<>]+)`")

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Module heads treated as resolvable without an import: docstrings
#: legitimately cite stdlib types (``random.Random``) from modules the
#: code itself never imports.  ``sys.stdlib_module_names`` needs 3.10+,
#: so fall back to the handful actually cited in this repo.
_STDLIB_HEADS = frozenset(
    getattr(sys, "stdlib_module_names", None)
    or ("ast", "collections", "contextlib", "dataclasses", "functools",
        "heapq", "itertools", "json", "math", "os", "pathlib", "random",
        "re", "sys", "time", "typing"))


def _top_level_names(tree: ast.Module) -> Set[str]:
    """Names bound at module top level: defs, classes, assignments,
    and import bindings."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names.add(name.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _class_member_names(cls: ast.ClassDef) -> Set[str]:
    """Attributes a class visibly defines: methods, class-level assigns,
    ``__slots__`` strings, and ``self.X = ...`` inside its methods."""
    names: Set[str] = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    names.add(sub.attr)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                    if target.id == "__slots__" and node.value is not None:
                        for constant in ast.walk(node.value):
                            if (isinstance(constant, ast.Constant)
                                    and isinstance(constant.value, str)):
                                names.add(constant.value)
    return names


@register
class DocstringDriftRule(ModuleRule):
    """DPR-H04: modules need docstrings, and docstrings must not
    reference names that no longer exist.

    The second half checks every Sphinx cross-reference role (class,
    meth, func, mod, attr, obj, data, exc) in module, class, and
    function docstrings.  Dotted ``repro`` targets must resolve to a
    project module (plus, where one is named, a top-level definition in
    it); bare names must be importable, defined in the module, or —
    inside a class — one of that class's members.  References into
    classes with base classes are only required to resolve the class
    itself (members may be inherited).
    """

    id = "DPR-H04"
    title = "missing or stale docstring"

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterator[Finding]:
        if not module.tree.body:
            return  # an empty __init__.py documents nothing
        if not ast.get_docstring(module.tree):
            yield module.finding(
                self, module.tree.body[0],
                "module has no docstring — say what the module is for "
                "and where it sits in the design",
            )
        imports = module.import_map()
        top_level = _top_level_names(module.tree)
        classes: Dict[str, ast.ClassDef] = {
            node.name: node for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }
        for holder, enclosing in self._docstring_holders(module.tree):
            text = ast.get_docstring(holder, clean=False)
            if not text:
                continue
            node = holder.body[0]
            for match in _ROLE_RE.finditer(text):
                target = match.group(1).strip().lstrip("~!").rstrip("()")
                problem = self._check_target(
                    target, module, project, imports, top_level,
                    classes, enclosing)
                if problem is not None:
                    yield module.finding(
                        self, node,
                        f"docstring references `{target}` {problem}",
                    )

    def _docstring_holders(self, tree: ast.Module):
        """Yield (node-with-docstring, enclosing class or None)."""
        yield tree, None
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield node, node
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        yield sub, node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Module-level functions (class methods came above).
                pass
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, None

    def _check_target(self, target: str, module: ModuleInfo,
                      project: Project, imports: Dict[str, str],
                      top_level: Set[str],
                      classes: Dict[str, ast.ClassDef],
                      enclosing: Optional[ast.ClassDef]) -> Optional[str]:
        """None if ``target`` resolves; else a short why-not."""
        if not target or " " in target:
            return None
        parts = target.split(".")
        head = parts[0]
        if target.startswith("repro."):
            return self._check_project_path(parts, project)
        if head in imports:
            origin = imports[head]
            if origin.startswith("repro"):
                return self._check_project_path(
                    origin.split(".") + parts[1:], project)
            return None  # stdlib/third-party: out of scope
        if len(parts) > 1 and head in _STDLIB_HEADS:
            return None  # e.g. ``random.Random`` cited without an import
        if head in top_level:
            if len(parts) > 1 and head in classes:
                return self._check_member(classes[head], parts[1])
            return None
        if enclosing is not None:
            if head in _class_member_names(enclosing):
                return None
            if head == enclosing.name:
                if len(parts) > 1:
                    return self._check_member(enclosing, parts[1])
                return None
        if head in _BUILTIN_NAMES:
            return None
        return ("but no such name is defined or imported here — "
                "update or drop the reference")

    def _check_project_path(self, parts: List[str],
                            project: Project) -> Optional[str]:
        """Resolve a dotted repro path against the parsed project."""
        best: Optional[Tuple[ModuleInfo, List[str]]] = None
        for split in range(len(parts), 0, -1):
            info = project.get(".".join(parts[:split]))
            if info is not None:
                best = (info, parts[split:])
                break
        if best is None:
            dotted = ".".join(parts)
            return (f"but module `{dotted}` is not part of the project — "
                    f"update or drop the reference")
        info, rest = best
        if not rest:
            return None
        names = _top_level_names(info.tree)
        if rest[0] not in names:
            return (f"but `{rest[0]}` is no longer defined in "
                    f"`{info.module}` — update or drop the reference")
        if len(rest) > 1:
            for node in info.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == rest[0]:
                    return self._check_member(node, rest[1])
        return None

    def _check_member(self, cls: ast.ClassDef,
                      member: str) -> Optional[str]:
        if cls.bases or cls.keywords:
            return None  # members may come from a base class
        if member in _class_member_names(cls):
            return None
        return (f"but `{cls.name}` no longer has a member `{member}` — "
                f"update or drop the reference")
