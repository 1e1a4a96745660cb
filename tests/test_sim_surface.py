"""The simulator's public surface is what the system uses, no more.

Every name ``repro.sim`` exports and every public member of
``Environment``, ``Process`` and ``Queue`` must be referenced by code
that is not a test: ``src/repro/`` outside ``sim/``, ``examples/`` or
``benchmarks/``.  API kept alive only by its own tests is a wait style
or event kind the kernel (and the schedule explorer planned on top of
it, ROADMAP item 1) has to model for nobody — PR 22 deleted
``Timeout``, ``Interrupt``, ``Queue.get()`` and ``Queue.close()`` on
exactly that evidence.

The check is by name over the ASTs (an attribute ``x.put`` counts for
``Queue.put`` whatever ``x`` is), so it is a tripwire for new
test-only API, not a proof of reachability.
"""

import ast
from pathlib import Path

import repro.sim
from repro.sim.kernel import Environment, Process
from repro.sim.queues import Queue

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Instruments only tests need, each with the reason it stays.
ALLOWED = {
    "Environment.peek":
        "a test cannot otherwise see the next due time without running",
    "Environment.live_handle_high_watermark":
        "array-core budget pinned in tests/test_perf_budget.py",
    "Environment.handles_scheduled":
        "array-core budget pinned in tests/test_perf_budget.py",
    "Environment.free_list_reuse_rate":
        "array-core budget pinned in tests/test_perf_budget.py "
        "(also read by the ledger)",
}


def _names_used_outside_tests():
    src = REPO_ROOT / "src" / "repro"
    files = [path for path in src.rglob("*.py")
             if "sim" not in path.relative_to(src).parts[:1]]
    files += (REPO_ROOT / "examples").rglob("*.py")
    files += (REPO_ROOT / "benchmarks").rglob("*.py")
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_sim_surface_has_no_test_only_api():
    used = _names_used_outside_tests()
    surface = {name: name for name in repro.sim.__all__}
    for cls in (Environment, Process, Queue):
        for member in vars(cls):
            if not member.startswith("_"):
                surface[f"{cls.__name__}.{member}"] = member
    unused = sorted(label for label, name in surface.items()
                    if name not in used and label not in ALLOWED)
    assert not unused, (
        f"referenced only by tests (or by nothing): {unused} — delete "
        "it, or add it to ALLOWED with the reason tests need it")
    stale = sorted(set(ALLOWED) - set(surface))
    assert not stale, f"ALLOWED names that no longer exist: {stale}"
