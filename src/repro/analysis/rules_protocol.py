"""Protocol-layering rule (DPR-P02).

The static counterpart of the runtime checks in :mod:`repro.core.audit`:
it cannot prove the §4.3 invariants hold at runtime, but it can prove
the *code shape* that makes the runtime argument sound — protocol-
private bookkeeping is only touched through the owning class's
accessors.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.analysis.framework import (
    Finding,
    Project,
    ProjectRule,
    register,
)

#: Modules whose private attributes form the DPR bookkeeping surface.
PROTOCOL_STATE_MODULES = (
    "repro.core.state_object",
    "repro.core.precedence",
    "repro.core.finder.base",
)


def _private_attrs_of_class(node: ast.ClassDef) -> Set[str]:
    """Names assigned as ``self._x`` anywhere in the class body."""
    attrs: Set[str] = set()
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and sub.attr.startswith("_")
                and not sub.attr.startswith("__")):
            attrs.add(sub.attr)
    return attrs


def _self_or_cls(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


@register
class PrivateStateAccessRule(ProjectRule):
    """DPR-P02: protocol-private state is touched only by its owner.

    ``_sealed``, ``_descriptors``, ``_persisted_versions`` and friends
    encode the proof obligations of §4.3; external readers must go
    through public accessors (``sealed_descriptors()``,
    ``persisted_versions()``, ...) so refactors of the bookkeeping
    cannot silently break auditors and workers.
    """

    id = "DPR-P02"
    title = "cross-module access to protocol-private state"
    scope = ("repro",)

    def _registry(self, project: Project) -> Dict[str, Set[str]]:
        """Private attr name -> modules allowed to touch it."""
        registry: Dict[str, Set[str]] = {}
        for module_name in PROTOCOL_STATE_MODULES:
            module = project.get(module_name)
            if module is None:
                continue
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                for attr in _private_attrs_of_class(node):
                    registry.setdefault(attr, set()).add(module_name)
        return registry

    def check_project(self, project: Project) -> Iterator[Finding]:
        registry = self._registry(project)
        if not registry:
            return
        for module in project.in_scope(self.scope):
            allowed_here = {attr for attr, owners in registry.items()
                            if module.module in owners}
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Attribute):
                    attr = node.attr
                    if (attr in registry and attr not in allowed_here
                            and not _self_or_cls(node.value)):
                        yield module.finding(
                            self, node,
                            f"access to protocol-private attribute "
                            f".{attr} (owned by "
                            f"{', '.join(sorted(registry[attr]))}) — use a "
                            f"public accessor",
                        )
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id in ("getattr", "setattr", "hasattr",
                                           "delattr")
                      and len(node.args) >= 2
                      and isinstance(node.args[1], ast.Constant)
                      and isinstance(node.args[1].value, str)):
                    attr = node.args[1].value
                    if attr in registry and attr not in allowed_here:
                        yield module.finding(
                            self, node,
                            f"{node.func.id}(..., {attr!r}) reaches into "
                            f"protocol-private state (owned by "
                            f"{', '.join(sorted(registry[attr]))}) — use a "
                            f"public accessor",
                        )
