"""``factorization`` is a leaf module: it imports nothing from ``primes``.

``primes`` imports ``factorization``, so an import the other way could only
sit inside a function, hidden from the module's top.
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
