"""Static checks over the package source.

Every module uses each name it imports, imports only at its top level, and
no module reads the process environment: the package's behaviour depends
only on its arguments.  No
module raises ``RuntimeError`` or ``AssertionError`` or uses an ``assert``
statement: a broken invariant raises the typed ``AssertionFailed``, which
the CLI turns into exit code 2, and ``python -O`` would skip an ``assert``.
Only ``contraction`` imports ``scipy.optimize``, and only its HiGHS
reference ``wasserstein_dual`` (a test and benchmark oracle) calls
``linprog``: every decision the package makes is exact and LP-free.
``bounds`` reaches simulation only through ``tails``, and only the exact
tail provider reads the occupation DP table.  Only ``config`` names the byte
budget ``MAX_PATH_BYTES``, and only its ``check_bytes`` raises
``ProductSpaceTooLarge``.  Every defaulted parameter of
a public function is set by some call in the repository.  The package's
public names are pinned, so a move cannot drop one unnoticed.  No module
outside ``config`` holds more float literals below 1e-5 (tolerances written
in place) than its pinned count.
No linter runs on this repository, so the checks are made here with the
standard library's ``ast``.  The unused-import check skips ``__init__.py``:
its imports are the package's public re-exports.
"""

import ast
import importlib
from pathlib import Path

import mixdecomp

PACKAGE = Path(mixdecomp.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_one():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]


def test_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (unused := _unused_imports(path.read_text()))
    }
    assert not found, f"unused imports: {found}"


def _local_imports(source: str) -> list[str]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            )
    return [f"line {line}" for line in sorted(lines)]


def test_local_import_check_sees_one():
    source = "import os\ndef f():\n    def g():\n        import sys\n    return os, g\n"
    assert _local_imports(source) == ["line 4"]


def test_no_function_local_imports():
    found = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := _local_imports(path.read_text()))
    }
    assert not found, f"function-local imports: {found}"


def _environment_reads(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in ("environ", "getenv")]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_no_environment_reads():
    assert _environment_reads("import os\nos.environ.get('X')\nfrom os import getenv\n") == [
        "line 2: environ",
        "line 3: getenv",
    ]
    found = {
        path.name: reads
        for path in sorted(PACKAGE.glob("*.py"))
        if (reads := _environment_reads(path.read_text()))
    }
    assert not found, f"environment reads: {found}"


def _untyped_failures(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("RuntimeError", "AssertionError"):
                found.append(f"line {node.lineno}: {exc.id}")
    return found


def test_no_untyped_invariant_failures():
    assert _untyped_failures(
        "assert x\nraise RuntimeError('a')\nraise AssertionError\nraise ValueError('b')\n"
    ) == ["line 1: assert", "line 2: RuntimeError", "line 3: AssertionError"]
    found = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := _untyped_failures(path.read_text()))
    }
    assert not found, f"untyped invariant failures: {found}"


def _optimize_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(f"{name}.".startswith("scipy.optimize.") for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_optimize_import_check_sees_each_form():
    source = (
        "import scipy.optimize\nfrom scipy import optimize, sparse\n"
        "from scipy.optimize import linprog\nimport scipy\nfrom scipy.sparse import csgraph\n"
        "from .optimizer import x\n"
    )
    assert _optimize_imports(source) == ["line 1", "line 2", "line 3"]


def test_only_contraction_imports_scipy_optimize():
    found = {
        path.name: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "contraction.py" and (sites := _optimize_imports(path.read_text()))
    }
    assert not found, f"scipy.optimize imported outside contraction.py: {found}"


def _callers(source: str, callee: str) -> list[str]:
    """Qualified name of the function around each ``callee(...)`` call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == callee:
                    found.append(owner or "<module>")
            scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}".lstrip(".") if scoped else owner)

    visit(ast.parse(source), "")
    return found


def test_linprog_caller_check_sees_each_form():
    source = (
        "import scipy.optimize\nfrom scipy.optimize import linprog\nlinprog(c=[1])\n"
        "def f():\n    return scipy.optimize.linprog(c=[1])\n"
        "class A:\n    def g(self):\n        def h():\n            return linprog([1])\n"
    )
    assert _callers(source, "linprog") == ["<module>", "f", "A.g.h"]


def test_only_wasserstein_dual_calls_linprog():
    found = [
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in _callers(path.read_text(), "linprog")
    ]
    assert found == ["contraction.wasserstein_dual"], f"linprog callers: {found}"


def test_only_the_exact_provider_reads_the_occupation_table():
    # the table's [T - 1, t - 1] layout is known in one place
    found = [
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in _callers(path.read_text(), "occupation_tail_table")
    ]
    assert found == ["tails.ExactTailProvider.query"], f"occupation_tail_table callers: {found}"


def _budget_sites(source: str) -> list[tuple[str, str]]:
    """(site, enclosing qualified name) of each name, attribute, import or
    string naming ``MAX_PATH_BYTES`` and of each ``raise ProductSpaceTooLarge``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, ast.alias):
                name = child.name
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                name = "MAX_PATH_BYTES" if "MAX_PATH_BYTES" in child.value else None
            if name == "MAX_PATH_BYTES":
                found.append((name, owner or "<module>"))
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "attr", getattr(exc, "id", None)) == "ProductSpaceTooLarge":
                    found.append(("raise ProductSpaceTooLarge", owner or "<module>"))
            scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}".lstrip(".") if scoped else owner)

    visit(ast.parse(source), "")
    return found


def test_budget_site_check_sees_each_form():
    source = (
        "from .config import MAX_PATH_BYTES\n"
        'def f(n):\n    """Refused over ``MAX_PATH_BYTES``."""\n'
        "    if n > config.MAX_PATH_BYTES:\n        raise ProductSpaceTooLarge(n)\n"
        "class A:\n    def g(self):\n        raise errors.ProductSpaceTooLarge\n"
    )
    assert _budget_sites(source) == [
        ("MAX_PATH_BYTES", "<module>"),
        ("MAX_PATH_BYTES", "f"),
        ("MAX_PATH_BYTES", "f"),
        ("raise ProductSpaceTooLarge", "f"),
        ("raise ProductSpaceTooLarge", "A.g"),
    ]


def test_only_config_reads_the_byte_budget():
    # every refusal before allocation goes through config.check_bytes, so
    # the budget and its message shape are stated once
    found = {
        path.stem: sites
        for path in sorted(PACKAGE.glob("*.py"))
        if (sites := _budget_sites(path.read_text()))
    }
    raisers = [owner for site, owner in found.pop("config") if site.startswith("raise")]
    assert raisers == ["check_bytes"], raisers
    assert not found, f"byte budget named or ProductSpaceTooLarge raised outside config: {found}"


def _sibling_imports(source: str) -> set[str]:
    """Package modules imported as ``from .x import ...`` or ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_bounds_reaches_simulation_only_through_tails():
    source = "from .simulate import a\nfrom . import io, rng\nfrom numpy import b\n"
    assert _sibling_imports(source) == {"simulate", "io", "rng"}
    imported = _sibling_imports((PACKAGE / "bounds.py").read_text())
    assert "tails" in imported and "simulate" not in imported, sorted(imported)


def _defaulted_parameters(source: str) -> list[tuple[str, str, int | None, str]]:
    """(called name, qualified name, call position, parameter) per defaulted
    parameter of each public function and method; a constructor is called by
    its class name.  The position skips ``self``; keyword-only is None."""
    found = []

    def add(fn, called, qualname, skip):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        found.extend(
            (called, qualname, k - skip, arg.arg)
            for k, arg in enumerate(positional)
            if k >= first
        )
        found.extend(
            (called, qualname, None, arg.arg)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None
        )

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                if fn.name == "__init__":
                    add(fn, node.name, node.name, 1)
                elif not fn.name.startswith("_"):
                    add(fn, fn.name, f"{node.name}.{fn.name}", 0 if static else 1)
    return found


def _call_sites(sources) -> dict[str, list[tuple[bool, int, set[str]]]]:
    """Per called name, each call's (forwards ``*``/``**``, positional count, keywords)."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            keywords = {k.arg for k in node.keywords}
            forwards = None in keywords or any(isinstance(x, ast.Starred) for x in node.args)
            calls.setdefault(name, []).append((forwards, len(node.args), keywords))
    return calls


def _unset_defaults(source: str, calls: dict) -> list[str]:
    """Defaulted parameters of ``source`` that no call in ``calls`` sets."""
    return [
        f"{qualname}({param})"
        for called, qualname, position, param in _defaulted_parameters(source)
        if not any(
            forwards or (position is not None and n_positional > position) or param in keywords
            for forwards, n_positional, keywords in calls.get(called, [])
        )
    ]


def test_unset_default_check_sees_each_form():
    source = (
        "def f(a, b=1, c=2, *, d=3):\n    return a\n"
        "class K:\n    def __init__(self, x=0, y=1):\n        pass\n"
        "    def m(self, z=1):\n        pass\n"
        "    @staticmethod\n    def s(w=1):\n        pass\n"
        "    def _hidden(self, v=0):\n        pass\n"
        "def _private(u=1):\n    pass\n"
        "f(1, 2)\nf(0, d=4)\nK(y=2).m(*args)\nK.s(3)\n"
    )
    assert _unset_defaults(source, _call_sites([source])) == ["f(c)", "K(x)"]


def test_every_defaulted_parameter_has_a_caller():
    # a default no caller overrides is a constant; spelling it as an option
    # adds a configuration no test or benchmark runs
    root = Path(__file__).resolve().parents[1]
    calls = _call_sites(
        path.read_text()
        for folder in ("src", "tests", "perfbench")
        for path in (root / folder).rglob("*.py")
    )
    found = {
        path.stem: unset
        for path in sorted(PACKAGE.glob("*.py"))
        if (unset := _unset_defaults(path.read_text(), calls))
    }
    assert not found, f"defaulted parameters no call sets: {found}"


def _tiny_literals(source: str) -> int:
    """Float literals with ``0 < |v| < 1e-5``: tolerances written in place."""
    return sum(
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-5
        for node in ast.walk(ast.parse(source))
    )


def test_tiny_literal_count_sees_one():
    assert _tiny_literals("a = 1e-9\nb = -1e-12\nc = 0.001\nd = 0.0\ne = 1\n") == 2


# Tolerance literals per module outside config.py.  The counts may only go
# down: a new tolerance belongs in config.Tolerances, and a module that
# moves one there lowers its pin.
TINY_LITERALS = {
    "contraction": 10, "wellcovering": 8, "kernel": 4, "suites": 4, "decomposition": 3,
    "bounds": 1, "chains": 1, "report": 1, "io": 0,
}


def test_tolerance_literals_do_not_grow():
    found = {
        path.stem: count
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "config.py" and (count := _tiny_literals(path.read_text()))
    }
    grown = {m: c for m, c in found.items() if c > TINY_LITERALS.get(m, 0)}
    assert not grown, f"tolerance literals beyond the pinned counts: {grown} (pinned {TINY_LITERALS})"


# The names mixdecomp/__init__.py imports, and so exports.
PUBLIC_NAMES = [
    "AvgHitResult", "BlockMetric", "BoundResult", "ChainSpec", "ContractionEstimate",
    "DEFAULT_TOLERANCES", "DecompositionReport", "DriftCertificate", "EscapeStatistics",
    "ExactTailProvider", "HittingTimeTable", "MCTailProvider", "MinMarginalJointTails",
    "MixingProfile", "OccupationRecord", "Partition", "PeresSousiConstants",
    "StationaryDistribution", "StochasticKernel", "Tolerances", "WellCoveringCertificate",
    "WellCoveringQuery", "avg_hit_time", "bootstrap_mixing_bound", "bound_basic", "bound_basic2",
    "bound_contraction", "bound_coupling_point", "bound_drift", "bound_graph_hit", "bound_regular",
    "calibrate_constants", "check_reversible", "compare_wc", "concentration_audit", "decompose",
    "escape_analysis", "estimate_contraction", "exact_mixing_time", "exit_distribution",
    "expander_pair", "feasibility_oracle", "fit_drift", "hitting_analysis", "kcip", "lazify",
    "less_lazy_projection", "mixing_profile", "occupation_regularity", "peres_sousi_audit",
    "pince_nez", "projected_kernel", "propagation_bound", "propagation_covers", "relaxation_time",
    "simulate", "stationary_distribution", "time_reversal", "torus_metropolis", "toy_kcip",
    "trace_kernel", "tree_bound", "verify_drift", "wasserstein",
]


def test_public_names_are_pinned():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(names) == PUBLIC_NAMES
    assert all(hasattr(mixdecomp, name) for name in names)


def _traced_targets() -> dict:
    tree = ast.parse(SPANS.read_text())
    (node,) = [
        n for n in tree.body
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["TARGETS"]
    ]
    return ast.literal_eval(node.value)


def test_traced_benchmark_names_resolve():
    # the traced benchmark wraps these names from outside the package (a
    # module attribute, or a method in its class __dict__), so a rename in
    # the package would otherwise first fail there, outside this suite
    targets = _traced_targets()
    assert ("mixdecomp.decomposition", "avg_hit_time") in targets
    missing = []
    for mod_name, path in targets:
        module = importlib.import_module(mod_name)
        owner, _, name = path.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            found = cls is not None and name in vars(cls)
        else:
            found = hasattr(module, name)
        if not found:
            missing.append(f"{mod_name}:{path}")
    assert not missing, f"traced names that do not resolve: {missing}"
