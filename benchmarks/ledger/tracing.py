"""Measurement plumbing of one ledger child: stopwatch, spans, layers.

Three small pieces, all benchmark-side (nothing here is imported by
the program under test):

- :class:`Meter` — the stopwatch around the measured section, with an
  optional :mod:`cProfile` profiler riding along.  A workload may
  :meth:`Meter.paused` it around correctness work that has to happen
  mid-run (``libdpr_stores`` verifies each recovery where it happens);
  the clock, the profiler and every span timestamp stop together.
- :class:`Spans` — benchmark-side spans (name, start, end, parent id)
  around every call that crosses into the program; kept in memory and
  written out by the child at exit.  Self time = span minus children.
- :func:`layer_rollup` — buckets a cProfile run into the ledger's
  layers by file path and charges builtin / stdlib self time to the
  layer that called it (it is ~25% unattributed otherwise).
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import spec

_FuncKey = Tuple[str, int, str]


class Meter:
    """Pausable stopwatch for the measured section."""

    def __init__(self, profiler: Optional[cProfile.Profile] = None):
        self.profiler = profiler
        self._paused_total = 0.0
        self._started_at: Optional[float] = None
        self.elapsed = 0.0

    def now(self) -> float:
        """Seconds on the measured clock (excludes paused stretches)."""
        return time.perf_counter() - self._paused_total

    def start(self) -> None:
        self._started_at = self.now()
        if self.profiler is not None:
            self.profiler.enable()

    def stop(self) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        self.elapsed = self.now() - self._started_at

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Stop the clock (and the profiler) for the enclosed block."""
        if self.profiler is not None:
            self.profiler.disable()
        began = time.perf_counter()
        try:
            yield
        finally:
            self._paused_total += time.perf_counter() - began
            if self.profiler is not None:
                self.profiler.enable()


class Spans:
    """In-memory span log; ids are 1-based, parent 0 means root."""

    def __init__(self, meter: Meter):
        self._now = meter.now
        #: [name, start, end, parent, attrs]
        self.rows: List[List[Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else 0
        row = [name, self._now(), None, parent, attrs]
        self.rows.append(row)
        self._stack.append(len(self.rows))
        try:
            yield
        finally:
            row[2] = self._now()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed span under the currently open one
        (the per-batch path stamps raw clocks and files them here)."""
        parent = self._stack[-1] if self._stack else 0
        self.rows.append([name, start, end, parent, {}])

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self time (span - children)."""
        child_time = [0.0] * (len(self.rows) + 1)
        for _name, start, end, parent, _attrs in self.rows:
            child_time[parent] += end - start
        summary: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent, _attrs) in enumerate(
                self.rows, start=1):
            entry = summary.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
        return summary

    def to_json(self) -> List[Dict[str, Any]]:
        return [{"id": index, "parent": parent, "name": name,
                 "start": start, "end": end, "attrs": attrs}
                for index, (name, start, end, parent, attrs)
                in enumerate(self.rows, start=1)]


def layer_of_file(filename: str) -> Optional[str]:
    """Layer owning ``filename``; None for builtins and the stdlib,
    whose time is charged to whoever called them."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0 and path.endswith(".py"):
        parts = path[at + len(marker):-3].split("/")
        if len(parts) == 1:
            return "repro"  # repro/__init__.py
        return spec.layer_of_module(parts[0], parts[1])
    if f"/{spec.LEDGER_DIR}/" in path:
        return "ledger"
    return None


def layer_rollup(profiler: cProfile.Profile,
                 top: int = 20) -> Dict[str, Any]:
    """Bucket a finished profile into layers.

    Returns ``{"layers": {layer: {"self_s", "calls"}}, "other_share",
    "total_self_s", "top_functions": [...]}``.  ``calls`` counts calls
    of the layer's own Python functions only (they repeat exactly for
    one seed); builtin and stdlib functions contribute self time, not
    calls.
    """
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    owner: Dict[_FuncKey, Optional[str]] = {
        func: layer_of_file(func[0]) for func in stats}
    shares: Dict[_FuncKey, Dict[str, float]] = {}

    def share_of(func: _FuncKey, trail: Tuple[_FuncKey, ...]
                 ) -> Dict[str, float]:
        """How ``func``'s self time splits across layers."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        known = shares.get(func)
        if known is not None:
            return known
        if func in trail or func not in stats:
            return {"other": 1.0}
        callers = stats[func][4]
        # A caller edge is (calls, primitive calls, self time, cumulative
        # time): weight by the self time spent under that caller; call
        # counts break the tie for edges too short to register.
        weights = {caller: edge[2] + 1e-9 * edge[0]
                   for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            return {"other": 1.0}
        split: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer_name, part in share_of(
                    caller, trail + (func,)).items():
                split[layer_name] = (split.get(layer_name, 0.0)
                                     + part * weight / total)
        shares[func] = split
        return split

    layers: Dict[str, Dict[str, float]] = {}
    total_self = 0.0
    ranked = []
    for func, (_cc, ncalls, self_s, _cum, _callers) in stats.items():
        total_self += self_s
        ranked.append((self_s, func, ncalls))
        layer = owner[func]
        if layer is not None:
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_s
            entry["calls"] += ncalls
            continue
        for layer_name, part in share_of(func, ()).items():
            entry = layers.setdefault(layer_name,
                                      {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_s * part
    ranked.sort(key=lambda item: (-item[0], item[1]))
    other = layers.get("other", {"self_s": 0.0})["self_s"]
    return {
        "layers": {name: layers[name] for name in sorted(layers)},
        "total_self_s": total_self,
        "other_share": other / total_self if total_self > 0 else 0.0,
        "top_functions": [
            {"function": f"{_short(func[0])}:{func[1]}:{func[2]}",
             "layer": owner[func] or "(charged to callers)",
             "self_s": self_s, "calls": ncalls}
            for self_s, func, ncalls in ranked[:top]],
    }


def _short(filename: str) -> str:
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    return path[at + 1:] if at >= 0 else path.rsplit("/", 1)[-1]
