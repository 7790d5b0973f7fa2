"""Module-shape guards, read from the source with ``ast``, and one run.

``factorization`` is a leaf module: it imports nothing from ``primes``.
``primes`` imports ``factorization``, so an import the other way could only
sit inside a function, hidden from the module's top.

An enclosure is three ints, and a ``Dyadic`` is built only where one is
read for printing or a margin.

``check`` decides on an enclosure of sigma(n)/n: the exact rational is
built only by the lazy ``CheckResult.lhs`` and by the fallback that
``check`` hands to ``decide`` for a rung the enclosure overlaps.

Only ``robin`` names the floors' key and threshold, and only it and
``intervals`` name the ln 2 bound.  The prime-power sweep in
``theorems`` names neither ``sigma_over_n_fp`` nor ``bit_length``, and
``check`` reaches the bit-length sum only through ``_below_bit_floor``.

robincheck runs in one process: a fresh interpreter that imports it and
sieves a multi-window scan has loaded no ``multiprocessing`` and no
``concurrent.futures``.
"""

import ast
import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "robincheck")


def _imported_names(tree: ast.AST):
    """Every dotted name an import statement anywhere in ``tree`` reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "robincheck" if node.level else ""
            module = ".".join(filter(None, (package, node.module)))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_factorization_imports_nothing_from_primes():
    with open(os.path.join(_SRC, "factorization.py")) as fh:
        tree = ast.parse(fh.read(), "factorization.py")
    assert [name for name in _imported_names(tree)
            if name == "robincheck.primes"
            or name.startswith("robincheck.primes.")] == []


def _dyadic_calls(tree: ast.AST):
    """The enclosing qualname of every ``Dyadic(...)`` call in ``tree``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name == "Dyadic":
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_views_and_dyadic_from_fraction_build_dyadics():
    found = set()
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found.update((name, where) for where in _dyadic_calls(tree))
    assert found == {
        ("intervals.py", "RealInterval.lo"),
        ("intervals.py", "RealInterval.hi"),
        ("intervals.py", "dyadic_from_fraction"),
    }


def _scopes_naming(tree: ast.AST, name: str):
    """The enclosing qualname of every load of ``name`` in ``tree``.

    Attribute loads ``x.name`` count too.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.Lambda)):
            scope = scope + (getattr(node, "name", "<lambda>"),)
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_exact_lhs_stays_off_the_verdict_path():
    with open(os.path.join(_SRC, "robin.py")) as fh:
        tree = ast.parse(fh.read(), "robin.py")
    assert set(_scopes_naming(tree, "sigma_over_n_fraction")) == {
        "CheckResult.lhs", "check.exact"}
    # check hands its fallback to decide and calls it nowhere itself
    check = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "check")
    uses = [node for node in ast.walk(check)
            if isinstance(node, ast.Name) and node.id == "exact"]
    handed = [arg for call in ast.walk(check) if isinstance(call, ast.Call)
              and getattr(call.func, "id", None) == "decide"
              for arg in call.args]
    assert len(uses) == 1 and uses[0] in handed


def _modules_naming(name: str) -> set[str]:
    """The source modules that import ``name`` or load it."""
    found = set()
    for module in sorted(os.listdir(_SRC)):
        if module.endswith(".py"):
            with open(os.path.join(_SRC, module)) as fh:
                tree = ast.parse(fh.read(), module)
            if _scopes_naming(tree, name) or any(
                    imported.rsplit(".", 1)[-1] == name
                    for imported in _imported_names(tree)):
                found.add(module)
    return found


def test_floor_internals_stay_behind_robin():
    # the walk and the sweep reach check's floors through robin's
    # _below_floor and _below_bit_floor, never by their key, threshold or
    # ln 2 bound
    assert _modules_naming("_floor_key") == {"robin.py"}
    assert _modules_naming("_floor_threshold") == {"robin.py"}
    assert _modules_naming("_ln2_fp") == {"intervals.py", "robin.py"}


def test_sweep_keeps_no_copy_of_check_internals():
    # the prime-power sweep bounds hi by p0/(p0 - 1) and leaves the
    # bit-length sum B to robin._below_bit_floor, its one definition
    assert "theorems.py" not in _modules_naming("sigma_over_n_fp")
    assert "theorems.py" not in _modules_naming("bit_length")
    with open(os.path.join(_SRC, "robin.py")) as fh:
        tree = ast.parse(fh.read(), "robin.py")
    assert "check" not in _scopes_naming(tree, "bit_length")
    assert "_below_bit_floor" in _scopes_naming(tree, "bit_length")


_ONE_PROCESS = """
import sys
import robincheck, robincheck.cli
from robincheck.explorer import scan_range
from robincheck.intervals import PrecisionConfig

# three sieved windows: a 16-bit ladder cannot certify the 5583 cut-off
report = scan_range(5583, 5583 + 3 * 2 ** 20 - 1, PrecisionConfig(16, 16),
                    worker_count=2)
assert report.violations == () and report.indeterminates == ()
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("multiprocessing", "concurrent")))
"""


def test_robincheck_runs_in_one_process():
    src = os.path.abspath(os.path.join(_SRC, ".."))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _ONE_PROCESS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
