"""Module-shape guards, read from the source with ``ast``.

``factorization`` is a leaf module: it imports nothing from ``primes``.
``primes`` imports ``factorization``, so an import the other way could only
sit inside a function, hidden from the module's top.

An enclosure is three ints, and a ``Dyadic`` is built only where one is
read for printing or a margin.

``check`` decides on an enclosure of sigma(n)/n: the exact rational is
built only by the lazy ``CheckResult.lhs`` and by the fallback that
``check`` hands to ``decide`` for a rung the enclosure overlaps.
"""

import ast
import os

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
    """The enclosing qualname of every load of ``name`` in ``tree``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.Lambda)):
            scope = scope + (getattr(node, "name", "<lambda>"),)
        if isinstance(node, ast.Name) and node.id == name:
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
