"""The conftest hook that describes failed comparisons of huge numbers."""

import sys
from fractions import Fraction

import conftest


def test_huge_fractions_are_described_by_bits_and_residues():
    limit = sys.get_int_max_str_digits()
    den = 7 ** 23_700  # 20,029 digits
    left = Fraction(10 ** 20_000 + 7, den)
    right = left + Fraction(1, den)
    lines = conftest.pytest_assertrepr_compare(None, "==", left, right)
    assert lines[0] == "Fraction == Fraction, past 4300 digits"
    for line, x in zip(lines[1:], (left, right)):
        assert (f"numerator int of {x.numerator.bit_length()} bits, "
                f"{x.numerator % 10 ** 18} mod 10^18") in line
        assert (f"denominator int of {den.bit_length()} bits, "
                f"{den % 10 ** 18} mod 10^18") in line
    # small operands keep pytest's own report, and the limit is untouched
    assert conftest.pytest_assertrepr_compare(None, "==", 1, 2) is None
    assert sys.get_int_max_str_digits() == limit
