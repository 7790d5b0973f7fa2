import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from robincheck import explorer  # found through the path above


@pytest.fixture(autouse=True)
def _fresh_scan_cover():
    """Each test's scans walk their own cover bound.

    ``explorer._scan_cover`` keeps one bound per ladder for the process,
    so a test that patches the walk (``_unsatisfied``, ``_subtree_layers``,
    ``decide``) would otherwise read a bound walked before its patches,
    and leave one walked under them to the next test.
    """
    explorer._scan_cover.cache_clear()
    yield
    explorer._scan_cover.cache_clear()


# CPython's default limit on int-to-str conversion.  Failures are
# described without lifting it, so the CLI's own handling of the limit
# stays under test.
_STR_DIGITS = 4300
_PAST_LIMIT = 10 ** _STR_DIGITS
_TAIL = 10 ** 18


def _past_limit(x) -> bool:
    if isinstance(x, Fraction):
        return _past_limit(x.numerator) or _past_limit(x.denominator)
    return isinstance(x, int) and abs(x) >= _PAST_LIMIT


def _describe(x) -> str:
    if isinstance(x, Fraction):
        return (f"Fraction, numerator {_describe(x.numerator)}, "
                f"denominator {_describe(x.denominator)}")
    if _past_limit(x):
        return f"int of {x.bit_length()} bits, {x % _TAIL} mod 10^18"
    return repr(x)


def pytest_assertrepr_compare(config, op, left, right):
    """Bit lengths and residues for int or Fraction operands past the limit.

    Their default repr would raise inside pytest and print no values.
    """
    if not (_past_limit(left) or _past_limit(right)):
        return None
    return [f"{type(left).__name__} {op} {type(right).__name__}, "
            f"past {_STR_DIGITS} digits",
            f"left:  {_describe(left)}",
            f"right: {_describe(right)}"]
