"""Determinism rules (DPR-D01, DPR-D02, DPR-D04).

The discrete-event kernel promises that a whole-cluster experiment is
*exactly reproducible* for a fixed seed: time only advances between
events and every tie is broken by insertion order.  That promise dies
the moment protocol code reads the host's clock, draws from process
entropy, or iterates a ``set`` whose order depends on
``PYTHONHASHSEED``.  These rules ban those constructs in every package
that runs inside a simulation or a store
(:data:`~repro.analysis.framework.PROTOCOL_SCOPE`), flagging each
source in the module where it is written — so wrapping it in a helper
hides nothing.  Simulated time comes from ``env.now`` and randomness
from an explicit seeded :class:`random.Random` (see
:mod:`repro.sim.rand`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.analysis.framework import (
    PROTOCOL_SCOPE,
    WALL_CLOCK_ALLOWLIST,
    Finding,
    ModuleInfo,
    ModuleRule,
    Project,
    ProjectRule,
    module_in_scope,
    register,
    resolve_name,
)

#: Calendar/wall time: never acceptable on any repro path — benches
#: measure elapsed time with a monotonic timer instead.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Monotonic timers: fine for measuring host elapsed time in the bench
#: harness (the allowlist), but inside the protocol packages all timing
#: must come from the simulation clock.
MONOTONIC_CALLS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
}

#: Process entropy: never acceptable — breaks bit-identical replays.
ENTROPY_CALLS = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.choice",
    "random.SystemRandom",
}

#: The one sanctioned use of the :mod:`random` module: constructing an
#: explicitly seeded generator (what :func:`repro.sim.rand.make_rng`
#: does).  Everything else on ``random.`` is the shared global
#: generator, whose state any import can perturb.
SEEDED_CONSTRUCTORS = {"random.Random"}


@register
class NoWallClockRule(ModuleRule):
    """DPR-D01: no wall clock, process entropy, or global ``random``."""

    id = "DPR-D01"
    title = "wall-clock, entropy, or global-random call on a repro path"
    scope = ("repro",)

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterator[Finding]:
        imports = module.import_map()
        protocol = module_in_scope(module.module, PROTOCOL_SCOPE)
        timers_ok = module_in_scope(module.module, WALL_CLOCK_ALLOWLIST)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_name(node.func, imports)
            if resolved is None:
                continue
            if resolved in WALL_CLOCK_CALLS:
                yield module.finding(
                    self, node,
                    f"wall-clock call {resolved}() — simulated code uses "
                    f"env.now; benches use time.perf_counter()",
                )
            elif resolved in MONOTONIC_CALLS and protocol and not timers_ok:
                yield module.finding(
                    self, node,
                    f"host timer {resolved}() inside a protocol package — "
                    f"use the simulation clock (env.now)",
                )
            elif resolved in ENTROPY_CALLS:
                yield module.finding(
                    self, node,
                    f"entropy source {resolved}() — use a seeded "
                    f"random.Random (repro.sim.rand.make_rng)",
                )
            elif (resolved.startswith("random.")
                  and resolved not in SEEDED_CONSTRUCTORS):
                yield module.finding(
                    self, node,
                    f"global random module call {resolved}() — pass an "
                    f"explicit seeded random.Random instead",
                )


# -- DPR-D02: unsorted set iteration -----------------------------------------

_SET_TYPE_NAMES = {
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
}

#: Consumers whose result cannot depend on iteration order; a generator
#: fed straight into one of these is safe.
_ORDER_INSENSITIVE_CALLS = {
    "any", "all", "sum", "min", "max", "set", "frozenset", "sorted", "len",
}


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _SET_TYPE_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _SET_TYPE_NAMES:
            return True
    return False


def _value_is_set_literal(node: Optional[ast.AST]) -> bool:
    if isinstance(node, ast.SetComp) or isinstance(node, ast.Set):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"})


class _SetTypeRegistry:
    """Which names are statically known to hold a set/frozenset.

    Attribute names (``descriptor.deps``, ``self._pending_deps``) are
    collected project-wide — a frozenset-typed dataclass field is
    iterated far from its definition.  Plain variable and parameter
    names are only trusted within the module that annotated them.
    """

    def __init__(self) -> None:
        self.attrs: Set[str] = set()
        self.local_vars: Dict[str, Set[str]] = {}

    def collect(self, module: ModuleInfo) -> None:
        local: Set[str] = self.local_vars.setdefault(module.module, set())
        # Class-body annotations (dataclass fields) declare *attributes*
        # even though their AST targets are bare Names.
        class_body_fields: Set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for statement in node.body:
                    if (isinstance(statement, ast.AnnAssign)
                            and isinstance(statement.target, ast.Name)):
                        class_body_fields.add(id(statement))
                        if _annotation_is_set(statement.annotation):
                            self.attrs.add(statement.target.id)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AnnAssign):
                if id(node) in class_body_fields:
                    continue
                if not _annotation_is_set(node.annotation):
                    continue
                target = node.target
                if isinstance(target, ast.Name):
                    local.add(target.id)
                elif isinstance(target, ast.Attribute):
                    self.attrs.add(target.attr)
            elif isinstance(node, ast.Assign):
                if not _value_is_set_literal(node.value):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        self.attrs.add(target.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                    if _annotation_is_set(arg.annotation):
                        local.add(arg.arg)

    def classifies(self, module: ModuleInfo, expr: ast.AST) -> Optional[str]:
        """A description of why ``expr`` is set-typed, or None."""
        if isinstance(expr, ast.Name):
            if expr.id in self.local_vars.get(module.module, ()):
                return f"variable {expr.id!r}"
        elif isinstance(expr, ast.Attribute):
            if expr.attr in self.attrs:
                return f"attribute {expr.attr!r}"
        elif isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in {"set", "frozenset"}:
                return f"{expr.func.id}(...) result"
        return None


@register
class NoUnsortedSetIterationRule(ProjectRule):
    """DPR-D02: protocol code must not iterate sets in hash order."""

    id = "DPR-D02"
    title = "iteration over a set/frozenset on a protocol path"
    scope = PROTOCOL_SCOPE

    def check_project(self, project: Project) -> Iterator[Finding]:
        registry = _SetTypeRegistry()
        for module in project.in_scope(self.scope):
            registry.collect(module)
        for module in project.in_scope(self.scope):
            yield from self._check_module(module, registry)

    def _check_module(self, module: ModuleInfo,
                      registry: _SetTypeRegistry) -> Iterator[Finding]:
        exempt_comps: Set[int] = set()
        for node in ast.walk(module.tree):
            # Generators consumed whole by an order-insensitive callable
            # (any/all/min/max/...) or building another set are safe.
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_INSENSITIVE_CALLS:
                    for arg in node.args:
                        if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                            ast.SetComp)):
                            exempt_comps.add(id(arg))
            if isinstance(node, ast.SetComp):
                exempt_comps.add(id(node))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                yield from self._check_iter(module, registry, node.iter)
            elif isinstance(node, (ast.GeneratorExp, ast.ListComp,
                                   ast.SetComp, ast.DictComp)):
                if id(node) in exempt_comps:
                    continue
                for generator in node.generators:
                    yield from self._check_iter(module, registry,
                                                generator.iter)

    def _check_iter(self, module: ModuleInfo, registry: _SetTypeRegistry,
                    iterable: ast.AST) -> Iterator[Finding]:
        reason = registry.classifies(module, iterable)
        if reason is None:
            return
        yield module.finding(
            self, iterable,
            f"iterating set-typed {reason} in hash order — wrap it in "
            f"sorted(...) so runs are PYTHONHASHSEED-independent",
        )


# -- DPR-D04: builtin hash() on protocol paths --------------------------------


@register
class NoBuiltinHashRule(ModuleRule):
    """DPR-D04: no builtin ``hash()`` in protocol packages.

    ``hash()`` over ``str``/``bytes`` is salted by PYTHONHASHSEED, so
    anything derived from it — partition placement, routing, bucket
    choice — differs between interpreter runs and breaks byte-identical
    replays.  Protocol code must use a stable digest instead (e.g.
    ``zlib.crc32`` over canonical bytes, as
    :class:`repro.cluster.ownership.HashPartitioner` does).
    """

    id = "DPR-D04"
    title = "builtin hash() on a protocol path"
    scope = PROTOCOL_SCOPE

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterator[Finding]:
        imports = module.import_map()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if resolve_name(node.func, imports) == "hash":
                yield module.finding(
                    self, node,
                    "builtin hash() is PYTHONHASHSEED-salted for str/bytes "
                    "— use a stable digest (zlib.crc32 over canonical "
                    "bytes) so placement is identical across runs",
                )
