"""Interval arithmetic: soundness, refinement, and the embedded constant."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robincheck.intervals import (
    _GAMMA_DEN,
    _GAMMA_NUM,
    _GUARD,
    Comparison,
    DomainError,
    Dyadic,
    GAMMA_MAX_BITS,
    PrecisionConfig,
    PrecisionUnsupported,
    RealInterval,
    _ln_fp,
    compare,
    dyadic_from_fraction,
    exp_gamma,
    outward_interval,
)
from robincheck import explorer, primes, robin
from robincheck.robin import _rhs_from_log

import oracles

mpmath.mp.dps = 80


def _contains_mp(iv, value):
    return oracles.interval_contains_mp(iv, value)


_W53 = 53 + _GUARD
_EXP_GAMMA_MP = mpmath.exp(mpmath.euler)


def _width(iv: RealInterval) -> Fraction:
    return iv.hi.as_fraction() - iv.lo.as_fraction()


def _contains(outer: RealInterval, inner: RealInterval) -> bool:
    return (outer.lo.as_fraction() <= inner.lo.as_fraction()
            and inner.hi.as_fraction() <= outer.hi.as_fraction())


def _ln_interval(x: Fraction, bits: int) -> RealInterval:
    """The ln kernel on an exact rational x > 0, as an interval at 2**-W."""
    W = bits + _GUARD
    L, H = _ln_fp(x.numerator, x.denominator, W)
    return RealInterval(Dyadic(L, -W), Dyadic(H, -W), bits)


def _gamma_bracket(bits: int) -> RealInterval:
    """The embedded gamma digits' bracket, rounded outward at bits + _GUARD."""
    return outward_interval(_GAMMA_NUM, _GAMMA_NUM + 1, _GAMMA_DEN,
                            bits + _GUARD, bits)


def _rhs_of_enclosure(lo: Fraction, hi: Fraction) -> RealInterval:
    """The RHS kernel on [lo, hi], rounded outward to its 53-bit scale."""
    return _rhs_from_log((lo.numerator << _W53) // lo.denominator,
                         -((-hi.numerator << _W53) // hi.denominator), 53)


class TestDyadic:
    def test_decimal_str_exact(self):
        assert Dyadic(3, -2).decimal_str() == "0.75"
        assert Dyadic(-5, -3).decimal_str() == "-0.625"
        assert Dyadic(7, 2).decimal_str() == "28"
        # the printed value does not depend on how it is stored
        assert Dyadic(12, -4).decimal_str() == "0.75"
        assert Dyadic(0, -9).decimal_str() == Dyadic(0, 3).decimal_str() == "0"

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
    # the embedded digits: gamma lies in [_GAMMA_NUM, _GAMMA_NUM + 1] / _GAMMA_DEN

    def test_contains_published_value(self):
        iv = _gamma_bracket(53)
        assert oracles.agrees_with_decimal(iv, "0.5772156649")
        assert _contains_mp(iv, mpmath.mp.euler)
        assert _width(iv) <= Fraction(1, 2**53)

    def test_coarse_precision_still_encloses(self):
        iv = _gamma_bracket(8)
        assert _contains_mp(iv, mpmath.mp.euler)
        assert _width(iv) <= Fraction(1, 2**8)

    def test_midpoint_matches_published_digits(self):
        # first 60 published decimals, embedded independently of the
        # implementation's 1400-digit string
        mid = Fraction(2 * _GAMMA_NUM + 1, 2 * _GAMMA_DEN)
        published = Fraction(oracles.GAMMA_60_DIGITS)
        assert abs(mid - published) < Fraction(1, 10**59)

    def test_precision_unsupported(self):
        # the digits serve GAMMA_MAX_BITS plus the guard bits, no more
        assert Fraction(1, _GAMMA_DEN) <= Fraction(1, 2 ** (GAMMA_MAX_BITS + _GUARD))
        with pytest.raises(PrecisionUnsupported):
            exp_gamma(GAMMA_MAX_BITS + 1)

    def test_refinement_nesting(self):
        assert _contains(_gamma_bracket(53), _gamma_bracket(106))


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
        assert _width(iv) <= Fraction(4, 2**bits)

    def test_refinement_nesting(self):
        assert _contains(exp_gamma(53), exp_gamma(128))

    def test_precision_unsupported(self):
        with pytest.raises(PrecisionUnsupported):
            exp_gamma(GAMMA_MAX_BITS + 100)


class TestLn:
    def test_ln_one_is_zero(self):
        iv = _ln_interval(Fraction(1), 53)
        assert iv.lo.as_fraction() <= 0 <= iv.hi.as_fraction()
        assert _width(iv) <= Fraction(1, 2**53)

    def test_ln_two(self):
        iv = _ln_interval(Fraction(2), 53)
        assert oracles.agrees_with_decimal(iv, "0.6931471805")
        assert _contains_mp(iv, mpmath.log(2))

    def test_ln_5040(self):
        iv = _ln_interval(Fraction(5040), 53)
        assert oracles.agrees_with_decimal(iv, "8.5252")
        assert _contains_mp(iv, mpmath.log(5040))

    def test_ln_cross_checked_at_two_precisions(self):
        coarse = _ln_interval(Fraction(5040), 53)
        fine = _ln_interval(Fraction(5040), 212)
        assert _contains(coarse, fine)

    def test_domain_error(self):
        # the RHS kernel is the ln entry point that takes outside bounds
        for x in (Fraction(0), Fraction(-3, 7)):
            with pytest.raises(DomainError):
                _rhs_of_enclosure(x, Fraction(2))

    def test_soundness_random_rationals(self):
        # spec-scale randomized soundness run: oracle value always inside
        rng = random.Random(20260808)
        for _ in range(1000):
            num = rng.randint(1, 10**18)
            den = rng.randint(1, 10**18)
            bits = rng.choice([24, 53, 128])
            iv = _ln_interval(Fraction(num, den), bits)
            true = mpmath.log(mpmath.mpf(num)) - mpmath.log(mpmath.mpf(den))
            assert _contains_mp(iv, true), (num, den, bits)

    def test_refinement_random(self):
        rng = random.Random(99)
        for _ in range(200):
            fr = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
            bits = rng.choice([16, 53, 100])
            assert _contains(_ln_interval(fr, bits), _ln_interval(fr, 2 * bits))

    def test_width_invariant(self):
        rng = random.Random(5)
        for _ in range(200):
            fr = Fraction(rng.randint(1, 10**30), rng.randint(1, 10**6))
            bits = rng.choice([24, 53, 128])
            iv = _ln_interval(fr, bits)
            bound = Fraction(1, 2**bits) * max(
                Fraction(1), abs(iv.hi.as_fraction()))
            assert _width(iv) <= bound


class TestLnOfInterval:
    # ln over an enclosure, as the RHS kernel robin._rhs_from_log computes
    # it: e^gamma * ln(x) for every x in the enclosure

    def test_ln_of_e_contains_one(self):
        iv = _rhs_of_enclosure(Fraction("2.71828182845904523"),
                               Fraction("2.71828182845904524"))
        assert _contains_mp(iv, _EXP_GAMMA_MP)  # e^gamma * ln e

    def test_log_log_5040(self):
        inner = _ln_interval(Fraction(5040), 53)
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

    @given(st.fractions(), st.integers(-2**70, 2**70), st.integers(0, 2**40),
           st.integers(-300, 300), st.sampled_from(["free", "lo", "hi"]))
    @example(Fraction(1), 1, 1, 0, "lo")
    @example(Fraction(-3, 8), -3, 0, -3, "hi")
    @settings(max_examples=500)
    def test_agrees_with_fraction_reference(self, fr, m, w, e, where):
        rhs = RealInterval(Dyadic(m, e), Dyadic(m + w, e), 53)
        if where != "free":  # lhs exactly on an endpoint
            fr = oracles.dyadic_fraction(rhs.lo if where == "lo" else rhs.hi)
        assert compare(fr, rhs).value == oracles.compare_by_fractions(fr, rhs)

    def test_never_flips_under_refinement(self):
        rng = random.Random(13)
        for _ in range(300):
            fr = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            coarse = _ln_interval(x, 16)
            fine = _ln_interval(x, 64)
            a = compare(fr, coarse)
            b = compare(fr, fine)
            if a is Comparison.LESS:
                assert b is not Comparison.GREATER
            if a is Comparison.GREATER:
                assert b is not Comparison.LESS


class TestSharedExponent:
    """Every enclosure the package builds: lo.m <= hi.m at one exponent."""

    @staticmethod
    def _check(iv):
        assert iv.lo.e == iv.hi.e and iv.lo.m <= iv.hi.m

    @pytest.mark.parametrize("bits", [8, 53, 212, 1024])
    def test_kernels(self, bits):
        W = bits + _GUARD
        for f in (primes.factorize(5041), primes.primorial_factorization(100),
                  primes.factorize(2**40)):
            self._check(robin.log_n(f, bits))
            self._check(robin.robin_rhs(f, bits))
        self._check(exp_gamma(bits))
        self._check(_rhs_from_log(3 << W, (3 << W) + 1, bits))
        self._check(_rhs_from_log(5 << (W - 2), 7 << (W + 100), bits))

    def test_primorial_table(self):
        rows = explorer.conjecture31_table(400)
        assert rows[0].alpha is None and rows[0].ratio is None
        for row in rows[1:]:
            self._check(row.alpha)
            self._check(row.ratio)

    def test_constructor_refuses_other_shapes(self):
        with pytest.raises(ValueError):
            RealInterval(Dyadic(1, 0), Dyadic(2, -1), 53)  # 1 <= 1, two exponents
        with pytest.raises(ValueError):
            RealInterval(Dyadic(3, -2), Dyadic(2, -2), 53)


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
