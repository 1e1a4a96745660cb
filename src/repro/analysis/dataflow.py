"""A small statement-level CFG and forward dataflow engine.

dprlint's per-file rules are syntactic: one AST walk, one finding per
matching node.  The yield-point atomicity family (DPR-A01) needs more —
whether a local is *stale* at a use depends on the path taken through
the function (was a ``yield`` crossed since the assignment?), so the
rule runs a forward may-analysis to a fixpoint over a control-flow
graph.

The CFG here is deliberately statement-grained: each node is one
:mod:`ast` statement, and intra-statement ordering (loads happen before
an embedded ``yield``, stores after it) is the *client's* job via its
transfer function.  That granularity is exactly enough for the
preemption-point rules and keeps the graph construction small and
auditable.

Approximations (all conservative for a may-analysis):

- ``try`` bodies may jump to any handler after any statement; we edge
  from the body entry and every body statement to each handler.
- ``with`` is transparent (no special exit edges).
- ``match`` statements (3.10+) are treated as opaque straight-line
  statements — the tree has none, and the analyzer must parse under
  Python 3.9.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Tuple

#: Sentinel node ids for the synthetic entry/exit of a function CFG.
ENTRY = -1
EXIT = -2


class CFG:
    """Control-flow graph over the statements of one function body.

    Nodes are integer ids; ``stmt_of`` maps a node id back to its
    :mod:`ast` statement.  ``ENTRY`` and ``EXIT`` are synthetic.
    """

    def __init__(self) -> None:
        self.stmt_of: Dict[int, ast.stmt] = {}
        self.succ: Dict[int, List[int]] = {ENTRY: [], EXIT: []}

    def _new_node(self, stmt: ast.stmt) -> int:
        node = len(self.stmt_of)
        self.stmt_of[node] = stmt
        self.succ[node] = []
        return node

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.succ[src]:
            self.succ[src].append(dst)


class _Builder:
    """Recursive CFG construction with a loop stack for break/continue."""

    def __init__(self) -> None:
        self.cfg = CFG()
        #: (continue-target, break-target accumulator) per open loop.
        self._loops: List[Tuple[int, List[int]]] = []

    def build(self, body: List[ast.stmt]) -> CFG:
        exits = self._sequence(body, [ENTRY])
        for node in exits:
            self.cfg._edge(node, EXIT)
        return self.cfg

    def _sequence(self, body: List[ast.stmt],
                  preds: List[int]) -> List[int]:
        for stmt in body:
            preds = self._statement(stmt, preds)
        return preds

    def _statement(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        cfg = self.cfg
        node = cfg._new_node(stmt)
        for pred in preds:
            cfg._edge(pred, node)
        if isinstance(stmt, ast.If):
            then_exits = self._sequence(stmt.body, [node])
            else_exits = (self._sequence(stmt.orelse, [node])
                          if stmt.orelse else [node])
            return then_exits + else_exits
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            breaks: List[int] = []
            self._loops.append((node, breaks))
            body_exits = self._sequence(stmt.body, [node])
            self._loops.pop()
            for exit_node in body_exits:
                cfg._edge(exit_node, node)  # back edge re-tests the guard
            after: List[int] = [node] + breaks
            if stmt.orelse:
                after = self._sequence(stmt.orelse, [node]) + breaks
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._sequence(stmt.body, [node])
        if isinstance(stmt, ast.Try):
            body_exits = self._sequence(stmt.body, [node])
            # Conservative: any point in the try body may raise into any
            # handler — collect the body's nodes as handler predecessors.
            body_nodes = [n for n, s in cfg.stmt_of.items()
                          if _contains_stmt(stmt.body, s)]
            exits: List[int] = []
            for handler in stmt.handlers:
                h_exits = self._sequence(handler.body,
                                         [node] + body_nodes)
                exits.extend(h_exits)
            else_exits = (self._sequence(stmt.orelse, body_exits)
                          if stmt.orelse else body_exits)
            exits.extend(else_exits)
            if stmt.finalbody:
                return self._sequence(stmt.finalbody, exits)
            return exits
        if isinstance(stmt, (ast.Return, ast.Raise)):
            cfg._edge(node, EXIT)
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][1].append(node)
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                cfg._edge(node, self._loops[-1][0])
            return []
        return [node]


def _contains_stmt(body: List[ast.stmt], target: ast.stmt) -> bool:
    for stmt in body:
        for sub in ast.walk(stmt):
            if sub is target:
                return True
    return False


def build_cfg(func: ast.AST) -> CFG:
    """CFG over ``func``'s body (a FunctionDef/AsyncFunctionDef)."""
    return _Builder().build(list(func.body))  # type: ignore[attr-defined]


# -- generic forward worklist ------------------------------------------------


def forward_analysis(
    cfg: CFG,
    init: Dict,
    transfer: Callable[[int, ast.stmt, Dict], Dict],
    join: Callable[[Dict, Dict], Dict],
    max_iterations: int = 10000,
) -> Dict[int, Dict]:
    """Run a forward dataflow to fixpoint; returns the IN state per node.

    ``transfer(node, stmt, state)`` must return a *new* state dict;
    ``join`` merges two states.  The client's lattice must be finite
    (or ``join`` monotone and bounded) for termination; the iteration
    cap is a belt-and-braces guard against a non-monotone client.
    """
    in_states: Dict[int, Dict] = {}
    order = sorted(cfg.stmt_of)
    worklist: List[int] = []
    for node in order:
        if ENTRY in _preds_of(cfg, node):
            in_states[node] = dict(init)
            worklist.append(node)
    iterations = 0
    preds_map = {node: _preds_of(cfg, node) for node in order}
    while worklist and iterations < max_iterations:
        iterations += 1
        node = worklist.pop(0)
        state = in_states.get(node)
        if state is None:
            continue
        out = transfer(node, cfg.stmt_of[node], dict(state))
        for succ in cfg.succ.get(node, ()):
            if succ == EXIT:
                continue
            merged = (dict(out) if succ not in in_states
                      else join(in_states[succ], out))
            if succ not in in_states or merged != in_states[succ]:
                in_states[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)
    # Unreached nodes (dead code after return) get the init state so
    # clients can still inspect them without special-casing.
    for node in order:
        in_states.setdefault(node, dict(init))
    return in_states


def _preds_of(cfg: CFG, node: int) -> List[int]:
    return [src for src, dsts in cfg.succ.items() if node in dsts]


# -- statement-event helpers -------------------------------------------------


class _ScopeAwareVisitor(ast.NodeVisitor):
    """Walks an expression/statement without descending into nested
    function or lambda scopes (their bodies execute later, under a
    different frame, so loads there say nothing about *this* frame's
    staleness)."""

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class _LoadCollector(_ScopeAwareVisitor):
    def __init__(self) -> None:
        self.loads: List[ast.Name] = []

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loads.append(node)


class _YieldCollector(_ScopeAwareVisitor):
    def __init__(self) -> None:
        self.yields: List[ast.AST] = []

    def visit_Yield(self, node: ast.Yield) -> None:
        self.yields.append(node)
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.yields.append(node)
        self.generic_visit(node)


def name_loads(node: ast.AST) -> List[ast.Name]:
    """Name loads in ``node``, current scope only (no nested defs)."""
    collector = _LoadCollector()
    collector.visit(node)
    return collector.loads


def yields_in(node: ast.AST) -> List[ast.AST]:
    """Yield/YieldFrom expressions in ``node``, current scope only."""
    collector = _YieldCollector()
    collector.visit(node)
    return collector.yields


def is_generator(func: ast.AST) -> bool:
    """True when the function body contains a yield in its own scope."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for stmt in func.body:
        if yields_in(stmt):
            return True
    return False
