"""The public surface is what the system uses, no more.

Six tripwires over the ASTs of the non-test tree (``src/repro/``,
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
* **their members** — every public method or property of every class
  under ``src/repro/`` (outside ``analysis/``) must be referenced by
  name somewhere other than its own ``def``.  The precedence graph's
  ``BuildDependencySet`` BFS, the metadata store's membership writers
  and both ``install_faults`` were deleted on that evidence;
* **the Redis clone's commands** — ``redisclone.COMMANDS`` is exactly
  the set of command names that non-test code talking to the clone
  issues as ``("NAME", ...)`` tuple literals.  Every command kept is one
  more that a protocol oracle has to model; the clone went from 34
  commands to five on that evidence;
* **their settable values** — every dataclass field with a default
  (``init=False`` state excluded) and every defaulted ``__init__``
  parameter of a public class under ``src/repro/`` (outside
  ``analysis/``) must be set by some non-test call: by keyword, or
  positionally to that class (or a subclass that inherits its
  constructor).  ``name=name`` handing on the caller's own parameter is
  forwarding, not setting.  Every open-loop ``DEFAULT_SCENARIO`` key
  must likewise be a dict-literal key in a non-test module other than
  ``openloop.py``.  A value one caller sets to one number is a
  calibration, and a constant says so; the 20 cost-model fields, the
  network's four latencies, ten of the Cassandra baseline's twelve
  knobs and twelve of sixteen scenario keys became constants (or
  went) on that evidence;
* **the figures** — a fig10–fig19 sweep is written once, in
  ``repro.bench.figures``: no wrapper under ``benchmarks/`` other than
  the four that have no catalog entry runs experiments itself, and
  every ``fig1x`` key of ``FIGURES`` is named by exactly one wrapper.
  PR 24 deleted ten re-stated sweeps that had drifted from the catalog
  (grids, windows, columns) on that evidence.

The reference checks are by name (an attribute ``x.put`` counts for
``Queue.put`` whatever ``x`` is, and so does ``getattr(x, "put")``), so
this is a tripwire for new test-only API, not a proof of reachability.
Its blind spot is a member whose name another class's live member
shares: ``Record.matches`` outlived its last caller behind
``LinkFault.matches``, and ``FasterKV.phase`` / ``register_thread`` /
``refresh`` behind ``EpochStateMachine``'s and ``GlobalState``'s, until
they were found by reading.
"""

import ast
import itertools
from pathlib import Path

import pytest

import repro.sim
from repro.bench.figures import FIGURES
from repro.redisclone import COMMANDS
from repro.sim.kernel import Environment, Process
from repro.sim.queues import Queue
from repro.workloads.openloop import DEFAULT_SCENARIO

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
        "RollbackError with the surviving prefix, each one checked by "
        "repro.core.audit.audit_rollback: the instrument the migration, "
        "replication and chaos suites drive DPR's promise through "
        "(an explored-schedule driver replaces it, ROADMAP item 2)",
    "materialize":
        "reference model: the FASTER property and recovery tests compare "
        "a store's surviving state against the image it folds from the log",
    "DprCut.of":
        "the paper's token notation: the cut, session and finder tests "
        "write their cuts as DprCut.of(Token('A', 1), ...)",
    "DprCut.dominates":
        "oracle predicate: the finder and recovery tests check that "
        "published cuts never regress with it",
    "Tracer.serialize":
        "byte-identity diagnostics: the obs and determinism tests diff "
        "two runs' event streams through it",
    "FaultPlan.replay":
        "reproducer diagnostics: rewinds a plan's RNG so a failing fault "
        "schedule replays",
    "ElasticCoordinator.scale_in":
        "the shrink half of §5.3 membership, which drains by migration "
        "and passes the run-end audit; the elastic figure runs only "
        "its scale_out half (ROADMAP item 10)",
    "ReplicaNode.resume_apply":
        "chaos hook: the lagging-replica tests set apply_paused and "
        "drain the buffered backlog with it",
    "DFasterConfig.engine":
        "the functional cluster tests run real FasterKV shards through "
        "the cluster protocol with engine='faster' (D-Redis gains the "
        "same switch in ROADMAP item 4)",
    "LinkFault.src":
        "only the chaos tests aim a link fault at one sender; fault "
        "plans are rebuilt by the schedule explorer (ROADMAP item 2)",
    "LinkFault.dst":
        "only the chaos tests aim a link fault at one receiver; fault "
        "plans are rebuilt by the schedule explorer (ROADMAP item 2)",
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
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) in ("getattr", "hasattr")
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                used.add(node.args[1].value)
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


def _member_surface(trees):
    """label -> name for every public method or property of every class
    of ``src/repro/`` outside ``analysis/``."""
    surface = {}
    for path, tree in trees.items():
        if _top(path) in (None, "analysis"):
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    surface[f"{cls.name}.{node.name}"] = node.name
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


def test_members_have_a_non_test_reference(trees):
    # A method's own ``def`` is not a reference to it; a call from
    # another method of the same class is.
    _assert_referenced(_member_surface(trees),
                       _names_used(trees, count_reexports=False))


def _talks_to_the_clone(path, tree):
    return _top(path) == "redisclone" or any(
        isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.redisclone")
        for node in ast.walk(tree))


def test_clone_commands_are_the_ones_issued(trees):
    # A command is an upper-case string heading a tuple literal in a
    # module that imports the clone (the FASTER dialect's ("read", k)
    # tuples share modules with it, hence the case).
    issued = {node.elts[0].value
              for path, tree in trees.items()
              if _talks_to_the_clone(path, tree)
              for node in ast.walk(tree)
              if isinstance(node, ast.Tuple) and node.elts
              and isinstance(node.elts[0], ast.Constant)
              and isinstance(node.elts[0].value, str)
              and node.elts[0].value.isupper()}
    unissued = sorted(set(COMMANDS) - issued)
    assert not unissued, (
        f"clone commands no non-test code issues: {unissued} — delete "
        "them from repro.redisclone")
    unknown = sorted(issued - set(COMMANDS))
    assert not unknown, f"commands issued that the clone lacks: {unknown}"


def _is_dataclass(cls):
    return any(getattr(getattr(decorator, "func", decorator), "id", None)
               == "dataclass" for decorator in cls.decorator_list)


def _init_false(value):
    return (isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "field"
            and any(keyword.arg == "init"
                    and getattr(keyword.value, "value", None) is False
                    for keyword in value.keywords))


def _init_parameters(cls):
    """``(name, positional index or None, has a default)`` for each
    parameter of ``cls``'s constructor (its own fields or ``__init__``)."""
    if _is_dataclass(cls):
        fields = [node for node in cls.body
                  if isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)
                  and "ClassVar" not in ast.dump(node.annotation)
                  and not _init_false(node.value)]
        return [(node.target.id, index, node.value is not None)
                for index, node in enumerate(fields)]
    init = next((node for node in cls.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "__init__"), None)
    if init is None:
        return []
    args = init.args
    positional = (args.posonlyargs + args.args)[1:]
    first_default = len(positional) - len(args.defaults)
    return ([(arg.arg, index, index >= first_default)
             for index, arg in enumerate(positional)]
            + [(arg.arg, None, default is not None)
               for arg, default in zip(args.kwonlyargs, args.kw_defaults)])


def _constructors(trees):
    """class name -> the names calling which runs its constructor: its
    own, and those of subclasses that define no constructor of their
    own (``DFasterCluster(config)`` runs ``ClusterShell.__init__``)."""
    inherits = {}
    for tree in trees.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and not _init_parameters(cls):
                for base in cls.bases:
                    inherits.setdefault(getattr(base, "id", None),
                                        []).append(cls.name)

    def callers(name):
        return {name}.union(*(callers(sub) for sub in inherits.get(name, ())))
    return callers


def _settable_surface(trees):
    """label -> (constructor names, name, positional index) for every
    dataclass field with a default and every defaulted ``__init__``
    parameter of the public classes of ``src/repro/`` outside
    ``analysis/``."""
    callers = _constructors(trees)
    surface = {}
    for path, tree in trees.items():
        if _top(path) in (None, "analysis"):
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for name, index, has_default in _init_parameters(cls):
                    if has_default:
                        surface[f"{cls.name}.{name}"] = (
                            callers(cls.name), name, index)
    return surface


def _settings(trees):
    """The keyword names non-test calls pass, and per callee name the
    most positional arguments one call passes it.  ``name=name`` that
    hands on the enclosing function's own parameter is forwarding, not
    a setting."""
    keywords, positional = set(), {}

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            params = {arg.arg for arg in
                      args.posonlyargs + args.args + args.kwonlyargs}
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                forwarded = (isinstance(keyword.value, ast.Name)
                             and keyword.value.id == keyword.arg
                             and keyword.arg in params)
                if keyword.arg is not None and not forwarded:
                    keywords.add(keyword.arg)
            callee = getattr(node.func, "id",
                             getattr(node.func, "attr", None))
            count = sum(1 for _ in itertools.takewhile(
                lambda arg: not isinstance(arg, ast.Starred), node.args))
            positional[callee] = max(positional.get(callee, 0), count)
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    for tree in trees.values():
        visit(tree, set())
    return keywords, positional


def test_settable_values_have_a_non_test_setter(trees):
    # A value only tests set is a constant wearing a knob: the run the
    # paper evaluates (and every figure) uses one number for it.
    keywords, positional = _settings(trees)
    unset = sorted(
        label for label, (callers, name, index)
        in _settable_surface(trees).items()
        if name not in keywords
        and (index is None
             or max(positional.get(cls, 0) for cls in callers) <= index)
        and label not in ALLOWED)
    dict_keys = {key.value
                 for path, tree in trees.items()
                 if path.name != "openloop.py"
                 for node in ast.walk(tree) if isinstance(node, ast.Dict)
                 for key in node.keys if isinstance(key, ast.Constant)}
    unset += sorted(f"DEFAULT_SCENARIO.{section}.{key}"
                    for section, defaults in DEFAULT_SCENARIO.items()
                    if isinstance(defaults, dict)
                    for key in defaults if key not in dict_keys)
    assert not unset, (
        f"settable values only tests set (or nothing): {unset} — make "
        "each a constant, or add it to ALLOWED with the reason it stays")


def test_allowed_names_still_exist(trees):
    surface = {**_sim_surface(), **_definition_surface(trees),
               **_member_surface(trees), **_settable_surface(trees)}
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
