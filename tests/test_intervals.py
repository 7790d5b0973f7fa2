"""Interval arithmetic: soundness, refinement, and the embedded constant."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robincheck.intervals import (
    _GUARD,
    Comparison,
    DomainError,
    Dyadic,
    GAMMA_MAX_BITS,
    PrecisionConfig,
    PrecisionUnsupported,
    RealInterval,
    compare,
    dyadic_from_fraction,
    euler_gamma,
    exp_gamma,
    ln_interval,
)
from robincheck.robin import _rhs_from_log

import oracles

mpmath.mp.dps = 80


def _contains_mp(iv, value):
    return oracles.interval_contains_mp(iv, value)


_W53 = 53 + _GUARD
_EXP_GAMMA_MP = mpmath.exp(mpmath.euler)


def _rhs_of_enclosure(lo: Fraction, hi: Fraction) -> RealInterval:
    """The RHS kernel on [lo, hi], rounded outward to its 53-bit scale."""
    return _rhs_from_log((lo.numerator << _W53) // lo.denominator,
                         -((-hi.numerator << _W53) // hi.denominator), 53)


class TestDyadic:
    def test_normalization(self):
        assert Dyadic(8, 0) == Dyadic(1, 3)
        assert Dyadic(0, 5) == Dyadic(0, 0)

    def test_decimal_str_exact(self):
        assert Dyadic(3, -2).decimal_str() == "0.75"
        assert Dyadic(-5, -3).decimal_str() == "-0.625"
        assert Dyadic(7, 2).decimal_str() == "28"

    @given(st.integers(-2**80, 2**80), st.integers(-70, 20))
    def test_decimal_str_roundtrip(self, m, e):
        d = Dyadic(m, e)
        assert Fraction(d.decimal_str()) == d.as_fraction()

    @given(st.fractions(max_denominator=10**12), st.integers(8, 120))
    def test_directed_rounding(self, fr, bits):
        lo = dyadic_from_fraction(fr, bits, False)
        hi = dyadic_from_fraction(fr, bits, True)
        assert lo.as_fraction() <= fr <= hi.as_fraction()
        if fr != 0:
            assert hi.as_fraction() - lo.as_fraction() <= abs(fr) * Fraction(1, 2**bits)


class TestEulerGamma:
    def test_contains_published_value(self):
        iv = euler_gamma(53)
        assert oracles.agrees_with_decimal(iv, "0.5772156649")
        assert _contains_mp(iv, mpmath.mp.euler)
        assert iv.width().as_fraction() <= Fraction(1, 2**53)

    def test_coarse_precision_still_encloses(self):
        iv = euler_gamma(8)
        assert _contains_mp(iv, mpmath.mp.euler)
        assert iv.width().as_fraction() <= Fraction(1, 2**8)

    def test_midpoint_matches_published_digits(self):
        # first 60 published decimals, embedded independently of the
        # implementation's 1400-digit string
        iv = euler_gamma(256)
        mid = iv.midpoint()
        published = Fraction(oracles.GAMMA_60_DIGITS)
        assert abs(mid - published) < Fraction(1, 10**59)

    def test_precision_unsupported(self):
        with pytest.raises(PrecisionUnsupported):
            euler_gamma(GAMMA_MAX_BITS + 1)

    def test_refinement_nesting(self):
        assert euler_gamma(53).contains_interval(euler_gamma(106))


class TestExpGamma:
    def test_contains_value(self):
        iv = exp_gamma(53)
        # oracle: exponentiate the published gamma digits at high precision
        target = mpmath.exp(mpmath.mpf(oracles.GAMMA_60_DIGITS))
        assert _contains_mp(iv, target)
        assert oracles.agrees_with_decimal(iv, "1.78107")

    @pytest.mark.parametrize("bits", [8, 24, 53, 200, 1024])
    def test_bounds_between_1_and_2(self, bits):
        iv = exp_gamma(bits)
        assert iv.lo.as_fraction() > 1
        assert iv.hi.as_fraction() < 2
        assert iv.width().as_fraction() <= Fraction(4, 2**bits)

    def test_refinement_nesting(self):
        assert exp_gamma(53).contains_interval(exp_gamma(128))

    def test_precision_unsupported(self):
        with pytest.raises(PrecisionUnsupported):
            exp_gamma(GAMMA_MAX_BITS + 100)


class TestLn:
    def test_ln_one_is_zero(self):
        iv = ln_interval(Fraction(1), 53)
        assert iv.contains_fraction(Fraction(0))
        assert iv.width().as_fraction() <= Fraction(1, 2**53)

    def test_ln_two(self):
        iv = ln_interval(Fraction(2), 53)
        assert oracles.agrees_with_decimal(iv, "0.6931471805")
        assert _contains_mp(iv, mpmath.log(2))

    def test_ln_5040(self):
        iv = ln_interval(Fraction(5040), 53)
        assert oracles.agrees_with_decimal(iv, "8.5252")
        assert _contains_mp(iv, mpmath.log(5040))

    def test_ln_cross_checked_at_two_precisions(self):
        coarse = ln_interval(Fraction(5040), 53)
        fine = ln_interval(Fraction(5040), 212)
        assert coarse.contains_interval(fine)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ln_interval(Fraction(0), 53)
        with pytest.raises(DomainError):
            ln_interval(Fraction(-3, 7), 53)

    def test_soundness_random_rationals(self):
        # spec-scale randomized soundness run: oracle value always inside
        rng = random.Random(20260808)
        for _ in range(1000):
            num = rng.randint(1, 10**18)
            den = rng.randint(1, 10**18)
            bits = rng.choice([24, 53, 128])
            iv = ln_interval(Fraction(num, den), bits)
            true = mpmath.log(mpmath.mpf(num)) - mpmath.log(mpmath.mpf(den))
            assert _contains_mp(iv, true), (num, den, bits)

    def test_refinement_random(self):
        rng = random.Random(99)
        for _ in range(200):
            fr = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
            bits = rng.choice([16, 53, 100])
            assert ln_interval(fr, bits).contains_interval(
                ln_interval(fr, 2 * bits))

    def test_width_invariant(self):
        rng = random.Random(5)
        for _ in range(200):
            fr = Fraction(rng.randint(1, 10**30), rng.randint(1, 10**6))
            bits = rng.choice([24, 53, 128])
            iv = ln_interval(fr, bits)
            bound = Fraction(1, 2**bits) * max(
                Fraction(1), abs(iv.hi.as_fraction()))
            assert iv.width().as_fraction() <= bound


class TestLnOfInterval:
    # ln over an enclosure, as the RHS kernel robin._rhs_from_log computes
    # it: e^gamma * ln(x) for every x in the enclosure

    def test_ln_of_e_contains_one(self):
        iv = _rhs_of_enclosure(Fraction("2.71828182845904523"),
                               Fraction("2.71828182845904524"))
        assert _contains_mp(iv, _EXP_GAMMA_MP)  # e^gamma * ln e

    def test_log_log_5040(self):
        inner = ln_interval(Fraction(5040), 53)
        outer = _rhs_of_enclosure(inner.lo.as_fraction(),
                                  inner.hi.as_fraction())
        assert oracles.agrees_with_decimal(outer, "3.8169")
        assert _contains_mp(outer, _EXP_GAMMA_MP * mpmath.log(mpmath.log(5040)))

    def test_domain_error_on_nonpositive_lo(self):
        for lo in (-(1 << (_W53 - 4)), 0, 1 << _W53):  # x = -1/16, 0, 1
            with pytest.raises(DomainError):
                _rhs_from_log(lo, 1 << (_W53 + 1), 53)

    def test_monotone_endpoints(self):
        iv = _rhs_of_enclosure(Fraction(2), Fraction(3))
        assert _contains_mp(iv, _EXP_GAMMA_MP * mpmath.log(2))
        assert _contains_mp(iv, _EXP_GAMMA_MP * mpmath.log(3))


class TestPrecisionLadder:
    def test_doubles_up_to_max_bits(self):
        assert list(PrecisionConfig(53, 4096).ladder()) == [
            53, 106, 212, 424, 848, 1696, 3392, 4096]

    def test_capped_by_gamma_digits(self):
        assert list(PrecisionConfig(1024, 10**6).ladder()) == [
            1024, 2048, 4096, GAMMA_MAX_BITS]

    def test_single_rung(self):
        assert list(PrecisionConfig(8, 8).ladder()) == [8]


class TestCompare:
    def test_trivial_cases(self):
        rhs = RealInterval(Dyadic(1, 0), Dyadic(2, 0), 53)
        assert compare(Fraction(1, 2), rhs) is Comparison.LESS
        assert compare(Fraction(3), rhs) is Comparison.GREATER
        assert compare(Fraction(3, 2), rhs) is Comparison.OVERLAPPING

    def test_endpoints_overlap(self):
        rhs = RealInterval(Dyadic(1, 0), Dyadic(2, 0), 53)
        assert compare(Fraction(1), rhs) is Comparison.OVERLAPPING
        assert compare(Fraction(2), rhs) is Comparison.OVERLAPPING

    def test_never_flips_under_refinement(self):
        rng = random.Random(13)
        for _ in range(300):
            fr = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            coarse = ln_interval(x, 16)
            fine = ln_interval(x, 64)
            a = compare(fr, coarse)
            b = compare(fr, fine)
            if a is Comparison.LESS:
                assert b is not Comparison.GREATER
            if a is Comparison.GREATER:
                assert b is not Comparison.LESS


class TestExactRatioAlgebra:
    # ExactRatio is fractions.Fraction; pin the contract anyway.

    @given(st.fractions(), st.fractions(), st.fractions())
    @settings(max_examples=200)
    def test_add_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(st.fractions(), st.fractions(), st.fractions())
    @settings(max_examples=200)
    def test_mul_associative_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(st.fractions())
    def test_lowest_terms_positive_denominator(self, a):
        from math import gcd
        assert a.denominator > 0
        assert gcd(a.numerator, a.denominator) == 1


def test_rhs_kernel_product_sound():
    # e^gamma * ln x over random enclosures [a, a + 1/997] with a > 1:
    # the outward-rounded product encloses both endpoint products
    rng = random.Random(3)
    for _ in range(200):
        a = 1 + Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        b = a + Fraction(1, 997)
        iv = _rhs_of_enclosure(a, b)
        assert _contains_mp(iv, _EXP_GAMMA_MP * mpmath.log(oracles.mp_of_fraction(a)))
        assert _contains_mp(iv, _EXP_GAMMA_MP * mpmath.log(oracles.mp_of_fraction(b)))
