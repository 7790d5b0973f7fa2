"""One memo mechanism: pure kernels memoize with ``functools.lru_cache``
or ``functools.cache``, and each one is registered here with its bound."""

import ast
import os

import pytest

from robincheck import cli, explorer, intervals, primes, robin

_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "robincheck")

# The benchmark reads this dict's length for its ln p cache hit ratio.
_DICT_CACHES = {("robin.py", "_LN_PRIME_CACHE")}


def _module_level_empty_dicts(tree: ast.Module):
    """Names assigned an empty dict by a top-level statement of ``tree``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if isinstance(stmt.value, ast.Dict) and not stmt.value.keys:
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_module_level_dict_caches_are_only_the_named_ones():
    found = set()
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found.update((name, var) for var in _module_level_empty_dicts(tree))
    assert found == _DICT_CACHES


_MEMOIZED = [
    (intervals._ln2_fp, 64),
    (intervals._ln_c_fp, 64 * 85),
    (intervals.exp_gamma, 64),
    (robin._floor_threshold, 1 << 16),
    (primes._small_primorial, None),
    (primes._pm1_tables, None),
    (explorer._scan_cover, 64),
    (cli._build_parser, None),
]


def _memo_decorated(tree: ast.Module):
    """Functions in ``tree`` under ``lru_cache(...)`` or ``cache``, reached
    as ``functools.<name>`` or imported by name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "functools"):
                    name = target.attr
                else:
                    name = getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    yield node.name


def test_memoized_kernels_are_only_the_registered_ones():
    found = set()
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found.update((name[:-3], fn) for fn in _memo_decorated(tree))
    assert found == {(fn.__module__.rpartition(".")[2], fn.__name__)
                     for fn, _ in _MEMOIZED}


@pytest.mark.parametrize("fn, maxsize", _MEMOIZED,
                         ids=lambda v: getattr(v, "__name__", None))
def test_memoized_kernels_keep_their_bounds(fn, maxsize):
    assert fn.cache_info().maxsize == maxsize
