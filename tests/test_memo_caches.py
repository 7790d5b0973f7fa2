"""One memo mechanism: pure kernels memoize with ``functools.lru_cache``."""

import ast
import os
import subprocess
import sys

import pytest

from robincheck import explorer, intervals, robin

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


@pytest.mark.parametrize("fn, maxsize", [
    (intervals._ln2_fp, 64),
    (intervals._ln_c_fp, 64 * 85),
    (intervals.exp_gamma, 64),
    (robin._floor_threshold, 1 << 16),
    (explorer._wheel, 16),
], ids=lambda v: getattr(v, "__name__", None))
def test_memoized_kernels_keep_their_bounds(fn, maxsize):
    assert fn.cache_info().maxsize == maxsize


def test_import_builds_no_wheel():
    # the scan wheel's period is built by the first window, not at import
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(_SRC, "..")))
    proc = subprocess.run(
        [sys.executable, "-c", "import robincheck; "
         "print(robincheck.explorer._wheel.cache_info().currsize)"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout == "0\n"
