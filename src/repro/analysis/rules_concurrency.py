"""Concurrency rules (DPR-A01, DPR-A02).

Every ``yield`` in a simulated process is a cooperative preemption
point: between suspending and resuming, any other process — a crash, a
migration, a nested recovery — may mutate the shared cluster state the
process was looking at.  PR 5 fixed a family of elasticity bugs that
were all the same mistake: *read shared protocol state, yield, keep
trusting the pre-yield value*.  DPR-A01 detects that shape statically.

DPR-A02 closes the other gap the per-file determinism rules leave
open: a nondeterminism source (wall clock, entropy, real I/O, builtin
``hash()``, unsorted-set iteration) wrapped in a helper function that
lives *outside* the protocol packages is invisible to DPR-D01..D04 at
the protocol call site.  A02 walks the project call graph and reports
protocol-scope calls whose transitive callees reach such a source.

Both rules carry interprocedural context on their findings: A01 cites
the snapshot line and the preemption point (``related``), A02 the call
chain down to the source (``trace``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.dataflow import (
    CFG,
    EXIT,
    build_cfg,
    forward_analysis,
    is_generator,
    name_loads,
    yields_in,
)
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
from repro.analysis.rules_determinism import (
    ENTROPY_CALLS,
    MONOTONIC_CALLS,
    SEEDED_CONSTRUCTORS,
    WALL_CLOCK_CALLS,
    _BANNED_IO_CALLS,
    _BANNED_IO_PREFIXES,
    _ORDER_INSENSITIVE_CALLS,
    _SetTypeRegistry,
)

#: Substrings marking an attribute or callee as *guarded protocol
#: state*: ownership rows, leases, cuts, world-lines, version counters,
#: liveness flags and recovery plans.  A local assigned from an
#: expression reading one of these is a snapshot DPR-A01 tracks across
#: yields.  Matching is substring-based on purpose — ``owner_of``,
#: ``_lease_metadata`` and ``world_line`` should all hit without an
#: exhaustive list.
GUARD_TOKENS = ("owner", "lease", "cut", "world_line", "version",
                "crashed", "running", "recovery", "seal")

#: Builtins whose calls are pure: reading them after a stale guard is
#: not "acting on" the stale guard (while-guard sub-check).
_PURE_BUILTINS = frozenset({
    "range", "len", "min", "max", "sorted", "enumerate", "list", "dict",
    "set", "frozenset", "tuple", "zip", "getattr", "isinstance", "abs",
    "sum", "int", "float", "str", "bool", "repr", "format", "id", "type",
})


def _has_guard_token(name: str) -> bool:
    """Token matching on snake_case segments, by prefix.

    ``owner_of`` and ``ownership`` match ``owner``; ``seal_version``
    and ``is_sealed`` match ``seal``; but ``execute`` does NOT match
    ``cut`` — tokens only anchor at segment starts.  Tokens containing
    an underscore (``world_line``) match as plain substrings.
    """
    lowered = name.lower()
    segments = lowered.split("_")
    for token in GUARD_TOKENS:
        if "_" in token:
            if token in lowered:
                return True
        elif any(segment.startswith(token) for segment in segments):
            return True
    return False


def _chain_parts(node: ast.AST) -> List[str]:
    """Attribute/Name chain parts, root first (``a.b.c`` -> [a, b, c])."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def _guard_read_desc(expr: ast.AST) -> Optional[str]:
    """Why ``expr`` is a read of guarded protocol state, or None.

    Two shapes count: an attribute chain whose parts carry a guard
    token (``self.metadata.ownership``, ``worker.engine.version``), and
    a call whose function chain does (``self.metadata.owner_of(p)``,
    ``self.controller.plan_recovery(...)``).  Only the *top level* of an
    assigned value is considered by the tracker — ``x = a.version + 1``
    is derived data, not a snapshot (a documented false-negative shape).
    """
    if isinstance(expr, ast.Attribute):
        parts = _chain_parts(expr)
        if parts and any(_has_guard_token(part) for part in parts):
            return ".".join(parts)
        return None
    if isinstance(expr, ast.Call):
        parts = _chain_parts(expr.func)
        if parts and any(_has_guard_token(part) for part in parts):
            return ".".join(parts) + "()"
    return None


def _contains_fresh_guard_read(expr: ast.AST) -> bool:
    """Does ``expr`` *itself* read guarded state (so a comparison
    against it is a re-validation, not a stale use)?"""
    for sub in ast.walk(expr):
        if _guard_read_desc(sub) is not None:
            return True
    return False


def _self_attr_chain(expr: ast.AST) -> Optional[str]:
    """``X`` when ``expr`` is a ``self.X``-rooted attribute chain."""
    if not isinstance(expr, ast.Attribute):
        return None
    chain = expr
    while isinstance(chain.value, ast.Attribute):
        chain = chain.value
    if isinstance(chain.value, ast.Name) and chain.value.id == "self":
        return chain.attr
    return None


def _header_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The expressions evaluated *at* this CFG node.

    Compound statements (If/While/For/With/Try) own only their
    test/iter/context expressions — their bodies are separate CFG nodes
    and must not be double-counted at the header.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [stmt]


def _header_loads(stmt: ast.stmt) -> List[ast.Name]:
    loads: List[ast.Name] = []
    for expr in _header_exprs(stmt):
        loads.extend(name_loads(expr))
    return loads


def _header_yields(stmt: ast.stmt) -> List[ast.AST]:
    found: List[ast.AST] = []
    for expr in _header_exprs(stmt):
        found.extend(yields_in(expr))
    return found


# -- DPR-A01: yield-point atomicity -------------------------------------------


class _Snapshot:
    """Dataflow fact for one tracked local.

    ``kind`` is "guard" (snapshot of ownership/lease/cut/version state:
    stale *uses* are findings) or "rmw" (snapshot of a plain ``self.X``
    read: only a stale write-back to the same attribute is a finding).
    """

    __slots__ = ("desc", "snap_line", "stale", "yield_line", "origin",
                 "kind")

    def __init__(self, desc: str, snap_line: int, stale: bool = False,
                 yield_line: int = 0, origin: Optional[str] = None,
                 kind: str = "guard"):
        self.desc = desc
        self.snap_line = snap_line
        self.stale = stale
        self.yield_line = yield_line
        self.origin = origin
        self.kind = kind

    def staled(self, yield_line: int) -> "_Snapshot":
        if self.stale:
            return self
        return _Snapshot(self.desc, self.snap_line, True, yield_line,
                         self.origin, self.kind)

    def refreshed(self, line: int) -> "_Snapshot":
        return _Snapshot(self.desc, line, False, 0, self.origin, self.kind)

    def merge(self, other: "_Snapshot") -> "_Snapshot":
        stale = self.stale or other.stale
        yield_line = (min(l for l in (self.yield_line, other.yield_line)
                          if l) if stale else 0)
        return _Snapshot(self.desc, min(self.snap_line, other.snap_line),
                         stale, yield_line, self.origin, self.kind)

    def _key(self) -> Tuple:
        return (self.desc, self.snap_line, self.stale, self.yield_line,
                self.origin, self.kind)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Snapshot) and self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)


@register
class YieldAtomicityRule(ModuleRule):
    """DPR-A01: no stale guard snapshots across a yield point.

    Inside generator-based sim processes, flags (a) locals assigned
    from ownership/lease/cut/version/liveness reads and used after a
    later ``yield`` without re-validation, (b) read-modify-write on a
    ``self.`` attribute spanning a yield through a local, and (c)
    ``while self.<guard>:`` loops whose body acts after a bare yield
    without re-testing the guard.

    The sanctioned re-validation patterns pass and mark the local fresh
    again: comparing the snapshot against a fresh guard read
    (``while worker.engine.version == boundary``) and passing it to a
    guard predicate inside a branch test
    (``if not self.engine.is_sealed(version)``).
    """

    id = "DPR-A01"
    title = "guard state snapshot trusted across a yield point"
    scope = PROTOCOL_SCOPE
    severity = "error"

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not is_generator(node):
                continue
            yield from self._check_generator(module, node)
            yield from self._check_while_guards(module, node)

    # -- sub-checks (a)+(b): snapshot dataflow ----------------------------

    def _check_generator(self, module: ModuleInfo,
                         func: ast.AST) -> Iterator[Finding]:
        cfg = build_cfg(func)
        findings: Dict[Tuple[str, int, str], Finding] = {}

        def transfer(node_id: int, stmt: ast.stmt,
                     state: Dict[str, _Snapshot]) -> Dict[str, _Snapshot]:
            exempt, refreshed = self._revalidations(stmt, state)
            for load in _header_loads(stmt):
                snap = state.get(load.id)
                if snap is None or not snap.stale or snap.kind != "guard":
                    continue
                if id(load) in exempt:
                    continue
                key = (load.id, load.lineno, "use")
                if key not in findings:
                    findings[key] = self._stale_use_finding(
                        module, load, snap)
            self._check_rmw(module, stmt, state, findings)
            for var in refreshed:
                if var in state:
                    state[var] = state[var].refreshed(stmt.lineno)
            ys = _header_yields(stmt)
            if ys:
                yield_line = min(getattr(y, "lineno", stmt.lineno)
                                 for y in ys)
                state = {var: snap.staled(yield_line)
                         for var, snap in state.items()}
            for name, snap in self._stores(stmt).items():
                if snap is None:
                    state.pop(name, None)
                else:
                    state[name] = snap
            return state

        def join(left: Dict[str, _Snapshot],
                 right: Dict[str, _Snapshot]) -> Dict[str, _Snapshot]:
            merged = dict(left)
            for var, snap in right.items():
                if var in merged and merged[var].desc == snap.desc:
                    merged[var] = merged[var].merge(snap)
                else:
                    merged[var] = snap
            return merged

        forward_analysis(cfg, {}, transfer, join)
        for key in sorted(findings):
            yield findings[key]

    def _stale_use_finding(self, module: ModuleInfo, load: ast.Name,
                           snap: _Snapshot) -> Finding:
        base = module.finding(
            self, load,
            f"local {load.id!r} snapshots {snap.desc} at line "
            f"{snap.snap_line} but is trusted after the yield at line "
            f"{snap.yield_line} — another process may have changed it; "
            f"re-read or re-validate it after the preemption point",
        )
        related = (
            (module.path, snap.snap_line, f"{load.id} snapshotted here"),
            (module.path, snap.yield_line, "preemption point (yield)"),
        )
        return Finding(rule=base.rule, path=base.path, line=base.line,
                       col=base.col, message=base.message,
                       snippet=base.snippet, related=related)

    def _check_rmw(self, module: ModuleInfo, stmt: ast.stmt,
                   state: Dict[str, _Snapshot],
                   findings: Dict[Tuple[str, int, str], Finding]) -> None:
        """Sub-check (b): ``self.X`` rebuilt from a pre-yield snapshot
        of ``self.X`` — the classic lost update."""
        if not isinstance(stmt, ast.Assign):
            return
        for target in stmt.targets:
            attr = _self_attr_chain(target)
            if attr is None:
                continue
            for load in name_loads(stmt.value):
                snap = state.get(load.id)
                if (snap is None or not snap.stale
                        or snap.origin != attr):
                    continue
                key = (load.id, stmt.lineno, "rmw")
                if key in findings:
                    continue
                base = module.finding(
                    self, stmt,
                    f"read-modify-write on self.{attr} spans the yield "
                    f"at line {snap.yield_line}: {load.id!r} captured it "
                    f"at line {snap.snap_line}, so concurrent updates "
                    f"are lost — re-read self.{attr} after the yield",
                )
                related = (
                    (module.path, snap.snap_line,
                     f"self.{attr} read into {load.id}"),
                    (module.path, snap.yield_line,
                     "preemption point (yield)"),
                )
                findings[key] = Finding(
                    rule=base.rule, path=base.path, line=base.line,
                    col=base.col, message=base.message,
                    snippet=base.snippet, related=related)

    def _revalidations(self, stmt: ast.stmt, state: Dict[str, _Snapshot]
                       ) -> Tuple[Set[int], Set[str]]:
        """Exempt Name-load ids and vars refreshed by this statement."""
        exempt: Set[int] = set()
        refreshed: Set[str] = set()
        for header in _header_exprs(stmt):
            for sub in ast.walk(header):
                if not isinstance(sub, ast.Compare):
                    continue
                sides = [sub.left] + list(sub.comparators)
                for index, side in enumerate(sides):
                    others = sides[:index] + sides[index + 1:]
                    if not any(_contains_fresh_guard_read(o)
                               for o in others):
                        continue
                    for load in name_loads(side):
                        if load.id in state:
                            exempt.add(id(load))
                            refreshed.add(load.id)
        if isinstance(stmt, (ast.If, ast.While, ast.Assert)):
            for sub in ast.walk(stmt.test):
                if not isinstance(sub, ast.Call):
                    continue
                parts = _chain_parts(sub.func)
                if not (parts and any(_has_guard_token(p) for p in parts)):
                    continue
                for arg in sub.args:
                    for load in name_loads(arg):
                        if load.id in state:
                            exempt.add(id(load))
                            refreshed.add(load.id)
        return exempt, refreshed

    def _stores(self, stmt: ast.stmt) -> Dict[str, Optional[_Snapshot]]:
        """Name -> new snapshot (tracked) or None (killed)."""
        changes: Dict[str, Optional[_Snapshot]] = {}
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            targets = [stmt.target]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            targets = [item.optional_vars for item in stmt.items
                       if item.optional_vars is not None]
        for target in targets:
            for sub in ast.walk(target):
                # Only Store-context names rebind: a Load name inside a
                # subscript target (``self.q[plan.wl] = ...``) doesn't.
                if (isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Store)):
                    changes[sub.id] = None
        if (value is not None and len(targets) == 1
                and isinstance(targets[0], ast.Name)):
            name = targets[0].id
            desc = _guard_read_desc(value)
            origin = _self_attr_chain(value)
            if desc is not None:
                changes[name] = _Snapshot(desc, stmt.lineno, origin=origin)
            elif origin is not None:
                # Plain ``v = self.X``: tracked only for the RMW check.
                changes[name] = _Snapshot(f"self.{origin}", stmt.lineno,
                                          origin=origin, kind="rmw")
        return changes

    # -- sub-check (c): while-guard loops ---------------------------------

    def _check_while_guards(self, module: ModuleInfo,
                            func: ast.AST) -> Iterator[Finding]:
        cfg = build_cfg(func)
        node_of_stmt = {id(stmt): node
                        for node, stmt in cfg.stmt_of.items()}
        for loop in ast.walk(func):
            if not isinstance(loop, ast.While):
                continue
            guards = self._guard_attrs(loop.test)
            if not guards:
                continue
            loop_nodes = {
                node for node, stmt in cfg.stmt_of.items()
                if any(stmt is s or _stmt_contains(s, stmt)
                       for s in loop.body)
            }
            header = node_of_stmt.get(id(loop))
            finding = self._walk_loop(module, cfg, header, loop_nodes,
                                      guards)
            if finding is not None:
                yield finding

    def _guard_attrs(self, test: ast.AST) -> Set[str]:
        guards: Set[str] = set()
        for sub in ast.walk(test):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and _has_guard_token(sub.attr)):
                guards.add(sub.attr)
        return guards

    def _walk_loop(self, module: ModuleInfo, cfg: CFG,
                   header: Optional[int], loop_nodes: Set[int],
                   guards: Set[str]) -> Optional[Finding]:
        guard_list = ", ".join(f"self.{g}" for g in sorted(guards))
        for node in sorted(loop_nodes):
            stmt = cfg.stmt_of[node]
            ys = [y for y in _header_yields(stmt)
                  if isinstance(y, ast.Yield)]
            if not ys:
                continue
            yield_line = min(getattr(y, "lineno", stmt.lineno) for y in ys)
            seen: Set[int] = set()
            frontier = [s for s in cfg.succ.get(node, ()) if s != EXIT]
            while frontier:
                nxt = frontier.pop(0)
                if nxt in seen or nxt == header or nxt not in loop_nodes:
                    continue  # re-tested the guard or left the loop
                seen.add(nxt)
                nstmt = cfg.stmt_of[nxt]
                if self._loads_guard(nstmt, guards):
                    continue  # path re-checks the guard: gated
                if _is_effectful(nstmt):
                    return self._while_guard_finding(
                        module, nstmt, guard_list, yield_line)
                frontier.extend(s for s in cfg.succ.get(nxt, ())
                                if s != EXIT)
        return None

    def _loads_guard(self, stmt: ast.stmt, guards: Set[str]) -> bool:
        for header in _header_exprs(stmt):
            for sub in ast.walk(header):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Load)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                        and sub.attr in guards):
                    return True
        return False

    def _while_guard_finding(self, module: ModuleInfo, stmt: ast.stmt,
                             guard_list: str, yield_line: int) -> Finding:
        base = module.finding(
            self, stmt,
            f"loop guarded by {guard_list} acts here after the yield at "
            f"line {yield_line} without re-testing the guard — the flag "
            f"may have flipped while this process slept; re-check it "
            f"right after waking",
        )
        related = ((module.path, yield_line, "preemption point (yield)"),)
        return Finding(rule=base.rule, path=base.path, line=base.line,
                       col=base.col, message=base.message,
                       snippet=base.snippet, related=related)


def _stmt_contains(outer: ast.stmt, inner: ast.stmt) -> bool:
    for sub in ast.walk(outer):
        if sub is inner:
            return True
    return False


def _is_effectful(stmt: ast.stmt) -> bool:
    """Does executing this CFG node act on the world or object state?

    Conservative: any call (method calls may mutate) counts, except
    pure builtins and calls inside a yield expression (the preemption
    itself); so does any store to an attribute or subscript.  Only the
    node's header expressions are examined — compound bodies are their
    own CFG nodes.
    """
    for header in _header_exprs(stmt):
        yield_subtrees = {id(sub) for y in yields_in(header)
                          for sub in ast.walk(y)}
        for sub in ast.walk(header):
            if isinstance(sub, ast.Call) and id(sub) not in yield_subtrees:
                if (isinstance(sub.func, ast.Name)
                        and sub.func.id in _PURE_BUILTINS):
                    continue
                return True
            if (isinstance(sub, (ast.Attribute, ast.Subscript))
                    and isinstance(sub.ctx, (ast.Store, ast.Del))):
                return True
    return False


# -- DPR-A02: interprocedural nondeterminism taint ----------------------------


class _TaintSource:
    """One nondeterminism source inside one function."""

    __slots__ = ("desc", "line", "covered")

    def __init__(self, desc: str, line: int, covered: bool):
        self.desc = desc
        self.line = line
        self.covered = covered


class _Taint:
    """How a function reaches a source: directly or via a callee."""

    __slots__ = ("source", "holder", "via")

    def __init__(self, source: _TaintSource, holder: str,
                 via: Optional[str] = None):
        self.source = source
        self.holder = holder
        self.via = via


@register
class InterproceduralTaintRule(ProjectRule):
    """DPR-A02: protocol code must not reach nondeterminism via helpers.

    The per-file rules (D01..D04) flag a source where it appears; they
    cannot see a protocol function calling a utility that calls
    ``time.perf_counter()`` in a package where the per-file rule does
    not apply (or where it was suppressed).  This rule seeds taint at
    every source the per-file rules do *not* already report, propagates
    it up the project call graph, and flags protocol-scope call sites
    whose callees reach one.  Findings carry the call chain in
    ``trace``.
    """

    id = "DPR-A02"
    title = "protocol call chain reaches a nondeterminism source"
    scope = PROTOCOL_SCOPE
    severity = "error"

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = CallGraph(project)
        registry = _SetTypeRegistry()
        for module in project.modules:
            registry.collect(module)
        sources: Dict[str, List[_TaintSource]] = {}
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            found = list(self._direct_sources(info, registry))
            if found:
                sources[qualname] = found
        tainted = self._propagate(graph, sources)
        yield from self._report(graph, sources, tainted)

    # -- seeding -----------------------------------------------------------

    def _direct_sources(self, info: FunctionInfo,
                        registry: _SetTypeRegistry
                        ) -> Iterator[_TaintSource]:
        module = info.module
        imports = module.import_map()
        protocol = module_in_scope(module.module, PROTOCOL_SCOPE)
        timers_ok = module_in_scope(module.module, WALL_CLOCK_ALLOWLIST)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_name(node.func, imports)
            if resolved is None:
                continue
            line = getattr(node, "lineno", 0)
            if (resolved in WALL_CLOCK_CALLS
                    or resolved in ENTROPY_CALLS
                    or (resolved.startswith("random.")
                        and resolved not in SEEDED_CONSTRUCTORS)):
                # DPR-D01 bans these on every repro path, so the source
                # is covered there unless someone suppressed it.
                covered = not self._suppressed(module, "DPR-D01", line)
                yield _TaintSource(f"{resolved}()", line, covered)
            elif resolved in MONOTONIC_CALLS:
                flagged = protocol and not timers_ok
                covered = flagged and not self._suppressed(
                    module, "DPR-D01", line)
                yield _TaintSource(f"host timer {resolved}()", line,
                                   covered)
            elif (resolved in _BANNED_IO_CALLS
                  or any(resolved.startswith(prefix)
                         for prefix, _ in _BANNED_IO_PREFIXES)):
                covered = protocol and not self._suppressed(
                    module, "DPR-D03", line)
                yield _TaintSource(f"real I/O {resolved}()", line, covered)
            elif resolved == "hash":
                covered = protocol and not self._suppressed(
                    module, "DPR-D04", line)
                yield _TaintSource("builtin hash()", line, covered)
        yield from self._set_iterations(info, registry)

    def _set_iterations(self, info: FunctionInfo,
                        registry: _SetTypeRegistry
                        ) -> Iterator[_TaintSource]:
        module = info.module
        protocol = module_in_scope(module.module, PROTOCOL_SCOPE)
        exempt: Set[int] = set()
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_INSENSITIVE_CALLS):
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                        ast.SetComp)):
                        exempt.add(id(arg))
            if isinstance(node, ast.SetComp):
                exempt.add(id(node))
        for node in ast.walk(info.node):
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, (ast.GeneratorExp, ast.ListComp,
                                   ast.SetComp, ast.DictComp)):
                if id(node) in exempt:
                    continue
                iters = [g.iter for g in node.generators]
            for iterable in iters:
                reason = registry.classifies(module, iterable)
                if reason is None:
                    continue
                line = getattr(iterable, "lineno", 0)
                covered = protocol and not self._suppressed(
                    module, "DPR-D02", line)
                yield _TaintSource(f"unsorted iteration over {reason}",
                                   line, covered)

    def _suppressed(self, module: ModuleInfo, rule_id: str,
                    line: int) -> bool:
        probe = Finding(rule=rule_id, path=module.path, line=line,
                        col=0, message="")
        return module.suppresses(probe)

    # -- propagation -------------------------------------------------------

    def _propagate(self, graph: CallGraph,
                   sources: Dict[str, List[_TaintSource]]
                   ) -> Dict[str, _Taint]:
        tainted: Dict[str, _Taint] = {}
        worklist: List[str] = []
        for qualname in sorted(sources):
            uncovered = [s for s in sources[qualname] if not s.covered]
            if uncovered:
                tainted[qualname] = _Taint(uncovered[0], qualname)
                worklist.append(qualname)
        reverse = graph.reverse_edges()
        while worklist:
            current = worklist.pop(0)
            taint = tainted[current]
            for caller in reverse.get(current, ()):
                if caller in tainted:
                    continue
                tainted[caller] = _Taint(taint.source, taint.holder,
                                         via=current)
                worklist.append(caller)
        return tainted

    # -- reporting ---------------------------------------------------------

    def _report(self, graph: CallGraph,
                sources: Dict[str, List[_TaintSource]],
                tainted: Dict[str, _Taint]) -> Iterator[Finding]:
        seen: Set[Tuple[str, int, str]] = set()
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if not module_in_scope(info.module.module, PROTOCOL_SCOPE):
                continue
            for site in info.calls:
                taint = tainted.get(site.callee)
                if taint is None:
                    continue
                callee_info = graph.functions[site.callee]
                callee_protocol = module_in_scope(
                    callee_info.module.module, PROTOCOL_SCOPE)
                direct = any(not s.covered
                             for s in sources.get(site.callee, ()))
                # Report only the boundary call into the tainted region:
                # a protocol callee that merely forwards the taint gets
                # its own finding at *its* boundary call site.
                if callee_protocol and not direct:
                    continue
                line = getattr(site.node, "lineno", 0)
                key = (info.module.path, line, site.callee)
                if key in seen:
                    continue
                seen.add(key)
                chain = self._chain(qualname, site.callee, tainted)
                source = taint.source
                holder = graph.functions[taint.holder]
                base = info.module.finding(
                    self, site.node,
                    f"call reaches {source.desc} at "
                    f"{holder.module.path}:{source.line} "
                    f"(chain: {' -> '.join(chain)}) — nondeterminism "
                    f"flows into protocol code through this helper",
                )
                related = ((holder.module.path, source.line,
                            f"source: {source.desc}"),)
                yield Finding(rule=base.rule, path=base.path,
                              line=base.line, col=base.col,
                              message=base.message, snippet=base.snippet,
                              trace=tuple(chain), related=related)

    def _chain(self, caller: str, callee: str,
               tainted: Dict[str, _Taint]) -> List[str]:
        chain = [caller, callee]
        seen = {caller, callee}
        current: Optional[str] = callee
        while current is not None:
            taint = tainted.get(current)
            if taint is None or taint.via is None or taint.via in seen:
                break
            chain.append(taint.via)
            seen.add(taint.via)
            current = taint.via
        return chain
