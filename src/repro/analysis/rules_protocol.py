"""Protocol-layering rules (DPR-P01..P03).

These are the static counterparts of the runtime checks in
:mod:`repro.core.audit`: they cannot prove the §4.3 invariants hold at
runtime, but they can prove the *code shape* that makes the runtime
argument sound — every wire message has a handler, protocol-private
bookkeeping is only touched through the owning class's accessors, and
StateObject subclasses cannot bypass the version machinery that the
dirty-seal invariant and monotonicity proofs rely on.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.framework import (
    Finding,
    ModuleInfo,
    Project,
    ProjectRule,
    dotted_name,
    register,
)

#: Where the wire messages live, and the package that dispatches them
#: (workers, replicas, services and clients each own some arms).
MESSAGES_MODULE = "repro.cluster.messages"
DISPATCH_PACKAGE = "repro.cluster"

#: Modules whose private attributes form the DPR bookkeeping surface.
PROTOCOL_STATE_MODULES = (
    "repro.core.state_object",
    "repro.core.precedence",
    "repro.core.finder.base",
)

#: The base class whose version machinery subclasses must not bypass.
STATE_OBJECT_MODULE = "repro.core.state_object"
STATE_OBJECT_CLASS = "StateObject"


def _is_message_class(node: ast.ClassDef) -> bool:
    """A wire message is a ``__slots__`` class or a ``@dataclass`` (the
    ``BatchIds`` allocator beside them is neither)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (dotted_name(target) or "").rpartition(".")[2] == "dataclass":
            return True
    return any(isinstance(stmt, ast.Assign)
               and any(isinstance(target, ast.Name)
                       and target.id == "__slots__"
                       for target in stmt.targets)
               for stmt in node.body)


def _isinstance_arms(tree: ast.AST) -> Set[str]:
    """Class names tested by ``isinstance(x, C)`` / ``(C, D)`` calls."""
    arms: Set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            classes = node.args[1]
            for target in (classes.elts if isinstance(classes, ast.Tuple)
                           else [classes]):
                name = dotted_name(target)
                if name is not None:
                    arms.add(name.rpartition(".")[2])
    return arms


@register
class MessageExhaustivenessRule(ProjectRule):
    """DPR-P01: every wire message has an ``isinstance`` dispatch arm.

    Adding a payload to ``cluster/messages.py`` without teaching some
    receiver in ``repro.cluster`` to recognise it means the message is
    silently dropped (or mis-handled by a catch-all ``else``) — the
    classic way a protocol extension rots.  A construction site or a
    bare name reference is not a dispatch arm: the class must appear as
    the second argument of an ``isinstance`` call in the package.
    """

    id = "DPR-P01"
    title = "wire message without an isinstance dispatch arm"
    scope = (DISPATCH_PACKAGE,)

    def check_project(self, project: Project) -> Iterator[Finding]:
        messages = project.get(MESSAGES_MODULE)
        if messages is None:
            return
        dispatched: Set[str] = set()
        for info in project.in_scope((DISPATCH_PACKAGE,)):
            dispatched |= _isinstance_arms(info.tree)
        for node in messages.tree.body:
            if (isinstance(node, ast.ClassDef) and _is_message_class(node)
                    and node.name not in dispatched):
                yield messages.finding(
                    self, node,
                    f"message {node.name} has no isinstance dispatch arm "
                    f"in {DISPATCH_PACKAGE} — add one so its receiver "
                    f"cannot silently drop it",
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


_MUTATOR_METHODS = {
    "append", "add", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "update", "setdefault",
}


@register
class SubclassStateMutationRule(ProjectRule):
    """DPR-P03: StateObject subclasses route version changes through
    the base ``Commit``/``Restore`` hooks.

    The dirty-seal invariant and the monotonicity proof both live in
    ``seal_version``/``fast_forward``/``restore``; a subclass writing
    ``self._version`` (or editing ``self._sealed`` directly) can violate
    them without any test noticing until a recovery loses data.
    """

    id = "DPR-P03"
    title = "StateObject subclass mutates protocol version state"
    scope = ("repro",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        base_module = project.get(STATE_OBJECT_MODULE)
        if base_module is None:
            return
        base_class: Optional[ast.ClassDef] = None
        for node in base_module.tree.body:
            if (isinstance(node, ast.ClassDef)
                    and node.name == STATE_OBJECT_CLASS):
                base_class = node
                break
        if base_class is None:
            return
        protected = _private_attrs_of_class(base_class)
        subclass_names = self._descendants(project)
        for module in project.in_scope(self.scope):
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.ClassDef)
                        and node.name in subclass_names):
                    yield from self._check_class(module, node, protected)

    def _descendants(self, project: Project) -> Set[str]:
        """Class names transitively inheriting StateObject (by name)."""
        bases_of: Dict[str, List[str]] = {}
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    names = []
                    for base in node.bases:
                        if isinstance(base, ast.Name):
                            names.append(base.id)
                        elif isinstance(base, ast.Attribute):
                            names.append(base.attr)
                    bases_of.setdefault(node.name, []).extend(names)
        descendants: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, bases in bases_of.items():
                if name in descendants or name == STATE_OBJECT_CLASS:
                    continue
                if any(base == STATE_OBJECT_CLASS or base in descendants
                       for base in bases):
                    descendants.add(name)
                    changed = True
        return descendants

    def _check_class(self, module: ModuleInfo, node: ast.ClassDef,
                     protected: Set[str]) -> Iterator[Finding]:
        for sub in ast.walk(node):
            # self._version = ..., del self._sealed[v], self._dirty += ...
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, (ast.Store, ast.Del))
                    and _self_or_cls(sub.value)
                    and sub.attr in protected):
                yield self._finding(module, sub, node.name, sub.attr)
            # self._sealed[v] = ... / del self._persisted_versions[i]
            elif (isinstance(sub, ast.Subscript)
                  and isinstance(sub.ctx, (ast.Store, ast.Del))
                  and isinstance(sub.value, ast.Attribute)
                  and _self_or_cls(sub.value.value)
                  and sub.value.attr in protected):
                yield self._finding(module, sub, node.name, sub.value.attr)
            # self._pending_deps.clear(), self._sealed.pop(...)
            elif (isinstance(sub, ast.Call)
                  and isinstance(sub.func, ast.Attribute)
                  and sub.func.attr in _MUTATOR_METHODS
                  and isinstance(sub.func.value, ast.Attribute)
                  and _self_or_cls(sub.func.value.value)
                  and sub.func.value.attr in protected):
                yield self._finding(module, sub, node.name,
                                    sub.func.value.attr)

    def _finding(self, module: ModuleInfo, node: ast.AST, class_name: str,
                 attr: str) -> Finding:
        return module.finding(
            self, node,
            f"subclass {class_name} mutates StateObject.{attr} directly — "
            f"route version changes through seal_version()/commit()/"
            f"restore()/mark_persisted()",
        )


@register
class DirectInboxDeliveryRule(ProjectRule):
    """DPR-P04: cluster-layer code sends through ``Network.send``.

    Putting a message straight into a peer's ``inbox`` queue bypasses
    the network model entirely — no latency, no crash semantics, and no
    fault injection.  A message delivered that way can never be dropped,
    duplicated, reordered, or partitioned, so chaos tests silently stop
    covering that path.  Only :mod:`repro.sim.network` itself may touch
    inbox queues; everything in ``repro.cluster`` goes through
    ``Network.send``.
    """

    id = "DPR-P04"
    title = "direct inbox delivery bypassing Network.send"
    scope = ("repro.cluster",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        for module in project.in_scope(self.scope):
            for node in ast.walk(module.tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "put"):
                    continue
                receiver = node.func.value
                if ((isinstance(receiver, ast.Attribute)
                     and receiver.attr == "inbox")
                        or (isinstance(receiver, ast.Name)
                            and receiver.id == "inbox")):
                    yield module.finding(
                        self, node,
                        "message put directly into an endpoint inbox — "
                        "send through Network.send so latency, crash "
                        "semantics, and fault injection apply",
                    )
