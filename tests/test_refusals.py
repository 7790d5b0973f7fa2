"""One refusal type: every argument check raises ``InvalidInput``."""

import ast
import importlib
import os
import pkgutil

import pytest

import robincheck
from robincheck import explorer, intervals, primes, theorems
from robincheck.factorization import Factorization
from robincheck.intervals import InvalidInput

_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "robincheck")

# Internal invariants: a broken one is a bug, not a refused argument, so
# it stays a plain ValueError and ends in a traceback.
_INVARIANTS = {
    ("intervals.py", "RealInterval.__post_init__"),
}


def _value_error_raises(tree: ast.AST):
    """The enclosing qualname of every ``raise ValueError`` in ``tree``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_value_errors_are_only_the_named_invariants():
    found = set()
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found.update((name, where) for where in _value_error_raises(tree))
    assert found == _INVARIANTS


def test_every_exception_class_is_a_refusal_or_named():
    # one refusal type (exit 64) and raw input past 64 bits (exit 65); a
    # result that could not be decided is returned, never raised
    defined = set()
    for info in pkgutil.iter_modules(robincheck.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        mod = importlib.import_module(f"robincheck.{info.name}")
        defined.update(
            obj for obj in vars(mod).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == mod.__name__)
    assert defined == {InvalidInput, primes.InputTooLarge}


def test_raw_input_past_64_bits_is_not_a_refusal():
    # the CLI gives it its own exit code, 65
    assert not issubclass(primes.InputTooLarge, InvalidInput)
    with pytest.raises(primes.InputTooLarge):
        primes.factorize(2 ** 64)


@pytest.mark.parametrize("fn, args", [
    (primes.factorize, (1,)),
    (primes.nth_prime, (0,)),
    (intervals.PrecisionConfig, (0,)),
    (intervals.exp_gamma, (0,)),
    (explorer.iter_scan_results, (10, 2)),
    (explorer.conjecture31_table, (0,)),
    (explorer.conjecture32_search, (1, 0, 10)),
    (theorems.bound_table, (0,)),
    (theorems.verify_prime_powers, (5040,)),
    (theorems.substitute_prime, (Factorization(((2, 1),)), 1, 3)),
    (primes.first_primes, (-1,)),
    (primes.primorial_factorization, (0,)),
], ids=lambda v: getattr(v, "__name__", None))
def test_argument_checks_raise_invalid_input(fn, args):
    with pytest.raises(InvalidInput):
        fn(*args)


def test_scan_range_is_refused_before_the_first_segment():
    # no next() needed: the range check is not deferred into a generator
    with pytest.raises(InvalidInput, match="scan range"):
        explorer.iter_scan_results(2, explorer.MAX_SCAN_HI + 1)
