"""The public surface is what the system uses, no more.

Three tripwires over the ASTs of the non-test tree (``src/repro/``,
``examples/``, ``benchmarks/``):

* **the simulator** — every name ``repro.sim`` exports and every public
  member of ``Environment``, ``Process`` and ``Queue`` must be
  referenced outside ``sim/``.  API kept alive only by its own tests is
  a wait style or event kind the kernel (and the schedule explorer
  planned on top of it, ROADMAP item 1) has to model for nobody — PR 22
  deleted ``Timeout``, ``Interrupt``, ``Queue.get()`` and
  ``Queue.close()`` on exactly that evidence;
* **everything above it** — every public top-level class or function
  defined under ``src/repro/`` (outside ``analysis/``) must be
  referenced by name somewhere other than its own ``def``/``class``
  statement and an ``__init__.py`` re-export.  PR 23 deleted
  ``repro.logstore``, ``FasterSession``, ``OwnershipTransfer`` and
  ``RangePartitioner`` on that evidence;
* **the figures** — a fig10–fig19 sweep is written once, in
  ``repro.bench.figures``: no wrapper under ``benchmarks/`` other than
  the four that have no catalog entry runs experiments itself, and
  every ``fig1x`` key of ``FIGURES`` is named by exactly one wrapper.
  PR 24 deleted ten re-stated sweeps that had drifted from the catalog
  (grids, windows, columns) on that evidence.

All three checks are by name (an attribute ``x.put`` counts for ``Queue.put``
whatever ``x`` is), so this is a tripwire for new test-only API, not a
proof of reachability.
"""

import ast
from pathlib import Path

import pytest

import repro.sim
from repro.bench.figures import FIGURES
from repro.sim.kernel import Environment, Process
from repro.sim.queues import Queue

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: What only tests reference, each with the reason it stays.
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
    "PartitionedClient":
        "the only client that carries real ops and surfaces "
        "RollbackError with the surviving prefix: the instrument the "
        "migration, replication and chaos suites assert DPR's promise "
        "with (replacing it is the oracle item's job, ROADMAP item 1)",
    "guarantee_from_cut":
        "reference model: the session property tests compare "
        "Session's commit watermark against it",
    "materialize":
        "reference model: the FASTER property and recovery tests compare "
        "a store's surviving state against the image it folds from the log",
}


#: The wrappers with no catalog entry: they drive the harness themselves.
CATALOG_LESS = {"test_ablation_finders.py", "test_ablation_progress.py",
                "test_ablation_relaxed.py", "test_supplement_mixes.py"}
EXPERIMENT_RUNNERS = {"run_dfaster_experiment", "run_dredis_experiment",
                      "run_recoverability_matrix"}


def _top(path):
    """The first directory (or file) of ``path`` below ``src/repro/``."""
    return path.relative_to(SRC).parts[0] if SRC in path.parents else None


@pytest.fixture(scope="module")
def trees():
    files = list(SRC.rglob("*.py"))
    files += (REPO_ROOT / "examples").rglob("*.py")
    files += (REPO_ROOT / "benchmarks").rglob("*.py")
    return {path: ast.parse(path.read_text()) for path in files}


def _names_used(trees, count_reexports):
    used = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.alias) and (
                    count_reexports or path.name != "__init__.py"):
                used.add(node.name.rpartition(".")[2])
    return used


def _sim_surface():
    """label -> name for the sim exports and the kernel classes' members."""
    surface = {name: name for name in repro.sim.__all__}
    for cls in (Environment, Process, Queue):
        for member in vars(cls):
            if not member.startswith("_"):
                surface[f"{cls.__name__}.{member}"] = member
    return surface


def _definition_surface(trees):
    """label -> name for every public top-level class and function of
    ``src/repro/`` outside ``analysis/``."""
    surface = {}
    for path, tree in trees.items():
        if _top(path) in (None, "analysis"):
            continue
        for node in tree.body:
            if (isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and not node.name.startswith("_")):
                surface[node.name] = node.name
    return surface


def _assert_referenced(surface, used):
    unused = sorted(label for label, name in surface.items()
                    if name not in used and label not in ALLOWED)
    assert not unused, (
        f"referenced only by tests (or by nothing): {unused} — delete "
        "it, or add it to ALLOWED with the reason tests need it")


def test_sim_surface_has_no_test_only_api(trees):
    outside = {path: tree for path, tree in trees.items()
               if _top(path) != "sim"}
    _assert_referenced(_sim_surface(),
                       _names_used(outside, count_reexports=True))


def test_definitions_have_a_non_test_reference(trees):
    # The defining file counts (a ``ClassDef`` is not a reference to
    # itself); an ``__init__.py`` re-export does not.
    _assert_referenced(_definition_surface(trees),
                       _names_used(trees, count_reexports=False))


def test_allowed_names_still_exist(trees):
    surface = {**_sim_surface(), **_definition_surface(trees)}
    stale = sorted(set(ALLOWED) - set(surface))
    assert not stale, f"ALLOWED names that no longer exist: {stale}"


def test_figure_sweeps_are_written_once(trees):
    wrappers = {path: list(ast.walk(tree)) for path, tree in trees.items()
                if path.parent == REPO_ROOT / "benchmarks"}
    restated = sorted(
        f"{path.name}:{node.lineno}"
        for path, nodes in wrappers.items()
        if path.name not in CATALOG_LESS
        for node in nodes
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in EXPERIMENT_RUNNERS)
    assert not restated, (
        f"experiments run outside the catalog: {restated} — write the "
        "sweep in repro.bench.figures and assert over run_figure's rows")
    catalog = [name for name in FIGURES if name.startswith("fig1")]
    assert len(catalog) == 10
    owners = {name: sorted(path.name for path, nodes in wrappers.items()
                           if any(isinstance(node, ast.Constant)
                                  and node.value == name for node in nodes))
              for name in catalog}
    shared = {name: files for name, files in owners.items()
              if len(files) != 1}
    assert not shared, (
        f"catalog figures not named by exactly one wrapper: {shared}")
