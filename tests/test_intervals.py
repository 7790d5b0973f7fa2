"""Interval arithmetic: soundness, refinement, and the embedded constant."""

import functools
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
    Dyadic,
    GAMMA_MAX_BITS,
    InvalidInput,
    PrecisionConfig,
    RealInterval,
    _ln_fp,
    compare,
    dyadic_from_fraction,
    exp_gamma,
    outward_interval,
    outward_ratio,
)
from robincheck import explorer, intervals, primes, robin, theorems
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


def _scaled(bounds: tuple[int, int], bits: int) -> RealInterval:
    """A kernel's bounds (L, H) at scale 2**W, as [L / 2**W, H / 2**W]."""
    return RealInterval(bounds[0], bounds[1], -(bits + _GUARD))


def _ln_interval(x: Fraction, bits: int) -> RealInterval:
    """The ln kernel on an exact rational x > 0, as an interval at 2**-W."""
    return _scaled(_ln_fp(x.numerator, x.numerator, x.denominator,
                          bits + _GUARD), bits)


def _gamma_bracket(bits: int) -> RealInterval:
    """The embedded gamma digits' bracket, rounded outward at bits + _GUARD."""
    return outward_interval(_GAMMA_NUM, _GAMMA_NUM + 1, _GAMMA_DEN,
                            bits + _GUARD)


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
        with pytest.raises(InvalidInput, match="supports at most"):
            exp_gamma(GAMMA_MAX_BITS + 1)

    def test_refinement_nesting(self):
        assert _contains(_gamma_bracket(53), _gamma_bracket(106))


class TestExpGamma:
    def test_contains_value(self):
        iv = _scaled(exp_gamma(53), 53)
        # oracle: exponentiate the published gamma digits at high precision
        target = mpmath.exp(mpmath.mpf(oracles.GAMMA_60_DIGITS))
        assert _contains_mp(iv, target)
        assert oracles.agrees_with_decimal(iv, "1.78107")

    @pytest.mark.parametrize("bits", [8, 24, 53, 200, 1024])
    def test_bounds_between_1_and_2(self, bits):
        iv = _scaled(exp_gamma(bits), bits)
        assert iv.lo.as_fraction() > 1
        assert iv.hi.as_fraction() < 2
        assert _width(iv) <= Fraction(4, 2**bits)

    def test_refinement_nesting(self):
        assert _contains(_scaled(exp_gamma(53), 53), _scaled(exp_gamma(128), 128))

    def test_precision_unsupported(self):
        with pytest.raises(InvalidInput, match="supports at most"):
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
            assert _rhs_of_enclosure(x, Fraction(2)) is None

    def test_reduction_boundaries(self):
        # num/den exactly at 2/3 * 2^k and 4/3 * 2^k, where the argument
        # reduction's power of two changes, and their +-1 neighbours, both
        # in lowest terms and at a large common scale (not reduced)
        W = 53 + _GUARD
        for k in range(-70, 71):
            for c in (2, 4):
                for scale in (1, 10**25):
                    num = c * scale << max(k, 0)
                    den = 3 * scale << max(-k, 0)
                    for a, b in ((num, den), (num - 1, den), (num + 1, den),
                                 (num, den - 1), (num, den + 1)):
                        iv = _scaled(_ln_fp(a, a, b, W), 53)
                        true = mpmath.log(a) - mpmath.log(b)
                        assert _contains_mp(iv, true), (k, c, scale, a, b)
                        assert _width(iv) <= Fraction(1, 2**53) * max(
                            1, abs(iv.hi.as_fraction()))

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
            assert _rhs_from_log(lo, 1 << (_W53 + 1), 53) is None

    def test_monotone_endpoints(self):
        iv = _rhs_of_enclosure(Fraction(2), Fraction(3))
        assert _contains_mp(iv, _EXP_GAMMA_MP * mpmath.log(2))
        assert _contains_mp(iv, _EXP_GAMMA_MP * mpmath.log(3))


# working precisions W = bits + _GUARD up to the ladder's top, 4618
_LADDER_W = [bits + _GUARD for bits in (1, 53, 106, 212, 1024, GAMMA_MAX_BITS)]


class TestOneSidedLn:
    """The ln kernel's tight enclosure, and its one chain against the fused
    reference."""

    @settings(max_examples=150, deadline=None)
    @given(W=st.sampled_from(_LADDER_W), lo=st.integers(1, 2 ** 160),
           width=st.integers(0, 2 ** 100), den=st.integers(1, 2 ** 160))
    @example(W=33, lo=7, width=0, den=7)            # num == den
    @example(W=85, lo=1, width=1, den=2)            # tn = 0 at s = -1 and 0
    @example(W=138, lo=2 ** 90 - 1, width=2, den=2 ** 90)  # either side of 1
    @example(W=244, lo=4, width=2, den=5)           # [4/5, 6/5]: the same
    @example(W=244, lo=2, width=1, den=3)           # y = 2/3 and x = 1
    @example(W=1056, lo=4, width=0, den=3)          # 4/3 is y = 2/3, s = 1
    @example(W=4618, lo=1, width=0, den=3)          # s = -1 at the top W
    @example(W=85, lo=85, width=1, den=128)         # breakpoints 85, 86 / 128
    @example(W=85, lo=2 ** 160, width=0, den=1)     # s = 160
    # either side of the narrow-interval switch,
    # 2 bitlen(width) + W < 2 bitlen(lo) - 2
    @example(W=33, lo=2 ** 20, width=7, den=3)      # 6 + 33 < 40
    @example(W=33, lo=2 ** 20, width=8, den=3)      # 8 + 33 > 40
    @example(W=85, lo=2 ** 99, width=2 ** 56 - 1, den=2 ** 99)  # 197 < 198
    @example(W=85, lo=2 ** 99, width=2 ** 56, den=2 ** 99)      # 199
    @example(W=4618, lo=2 ** 3000, width=2 ** 690 - 1, den=1)  # 5998 < 6000
    @example(W=4618, lo=2 ** 3000, width=2 ** 690, den=1)      # 6000
    @example(W=4618, lo=2 ** 3001 - 1, width=2 ** 690 - 1, den=7)  # 5998
    def test_ln_fp_encloses_mpmath_within_2W_ulp(self, W, lo, width, den):
        hi = lo + width
        L, H = _ln_fp(lo, hi, den, W)
        with mpmath.workprec(W + 64):
            scale = mpmath.mpf(2) ** W
            ln_lo = (mpmath.log(lo) - mpmath.log(den)) * scale
            ln_hi = (mpmath.log(hi) - mpmath.log(den)) * scale
            assert ln_lo - 2 * W <= L <= ln_lo
            assert ln_hi <= H <= ln_hi + 2 * W

    @settings(max_examples=100, deadline=None)
    @given(W=st.sampled_from(_LADDER_W), num=st.integers(0, 2 ** 120),
           den=st.integers(1, 2 ** 120))
    @example(W=4618, num=1, den=3)      # the ln 2 argument at the top W
    @example(W=33, num=0, den=1)
    @example(W=33, num=1, den=2 ** 40)  # floor is 0, ceiling is 1
    def test_atanh_bound_matches_fused_reference(self, W, num, den):
        num = min(num, den // 3)  # the kernel's domain 0 <= num/den <= 1/3
        assert intervals._atanh_pair(num, den, W) == \
            oracles.fused_atanh_fp(num, den, W)

    @pytest.mark.parametrize("W", _LADDER_W)
    def test_ln_of_a_prime_is_the_fused_composition(self, W):
        # ln p bounds, which the prime cache, log_n and the bases'
        # inclusion bounds take, are bit for bit the reference's
        rng = random.Random(W)
        plist = oracles.naive_prime_list(10 ** 5)
        for p in [2, 3, 5, 7, 127, 2 ** 61 - 1, *rng.sample(plist, 10)]:
            assert _ln_fp(p, p, 1, W) == oracles.table_ln_fp(p, 1, W), p


class TestLnTableCache:
    def test_ladder_walk_to_4096_bits_stays_bounded(self, monkeypatch):
        cached = intervals._ln_c_fp
        keys = set()

        def recorded(i, W):
            keys.add((i, W))
            return cached(i, W)

        # _ln_fp looks the table up at call time
        monkeypatch.setattr(intervals, "_ln_c_fp", recorded)
        rungs = list(PrecisionConfig(53, 4096).ladder())
        for bits in rungs:
            robin.check(primes.primorial_factorization(30),
                        PrecisionConfig(bits, bits))
            for t in (5041, 10**6 + 3, 2**40 - 87):
                explorer._rhs_floor_scaled(t, bits)
        assert 0 < len(keys) <= cached.cache_info().maxsize
        # keys are breakpoints c = i/2**K in [85/128, 170/128) at the
        # rungs' W, or at the W of a Ziv rerun above one
        ws = {b + j * _GUARD for b in rungs
              for j in range(1, robin._ZIV_RERUNS + 2)}
        assert {W for _, W in keys} <= ws
        assert all(85 <= i < 170 for i, _ in keys)

    def test_full_cache_still_gives_the_same_bounds(self, monkeypatch):
        want = [_ln_fp(x, x, 7, W) for x in (5, 50, 5000) for W in (85, 138)]
        small = functools.lru_cache(maxsize=2)(intervals._ln_c_fp.__wrapped__)
        monkeypatch.setattr(intervals, "_ln_c_fp", small)
        got = [_ln_fp(x, x, 7, W) for x in (5, 50, 5000) for W in (85, 138)]
        assert got == want
        assert small.cache_info().currsize == 2


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
        rhs = RealInterval(1, 2, 0)
        assert compare(Fraction(1, 2), rhs) is Comparison.LESS
        assert compare(Fraction(3), rhs) is Comparison.GREATER
        assert compare(Fraction(3, 2), rhs) is Comparison.OVERLAPPING

    def test_endpoints_overlap(self):
        rhs = RealInterval(1, 2, 0)
        assert compare(Fraction(1), rhs) is Comparison.OVERLAPPING
        assert compare(Fraction(2), rhs) is Comparison.OVERLAPPING

    @given(st.fractions(), st.integers(-2**70, 2**70), st.integers(0, 2**40),
           st.integers(-300, 300), st.sampled_from(["free", "lo", "hi"]))
    @example(Fraction(1), 1, 1, 0, "lo")
    @example(Fraction(-3, 8), -3, 0, -3, "hi")
    @settings(max_examples=500)
    def test_agrees_with_fraction_reference(self, fr, m, w, e, where):
        rhs = RealInterval(m, m + w, e)
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
    """Every enclosure the package builds: ints lo_m <= hi_m at one exponent.

    The integer kernels' bounds share their scale 2**W by construction.
    """

    @staticmethod
    def _check(iv):
        assert all(type(v) is int for v in (iv.lo_m, iv.hi_m, iv.e))
        assert iv.lo_m <= iv.hi_m
        assert (iv.lo, iv.hi) == (Dyadic(iv.lo_m, iv.e), Dyadic(iv.hi_m, iv.e))

    @pytest.mark.parametrize("bits", [8, 53, 212, 1024])
    def test_kernels(self, bits):
        W = bits + _GUARD
        for f in (primes.factorize(5041), primes.primorial_factorization(100),
                  primes.factorize(2**40)):
            lo, hi = robin.log_n(f, bits)
            assert lo <= hi
            self._check(robin.robin_rhs(f, bits))
        lo, hi = exp_gamma(bits)
        assert lo <= hi
        self._check(_rhs_from_log(3 << W, (3 << W) + 1, bits))
        self._check(_rhs_from_log(5 << (W - 2), 7 << (W + 100), bits))

    @pytest.mark.parametrize("bits", [1, 4, 53, 212])
    def test_rhs_floors(self, bits):
        W = bits + _GUARD
        for f in (primes.factorize(5041), primes.primorial_factorization(100),
                  primes.factorize(2**40)):
            B = sum(k * (p.bit_length() - 1) for p, k in f.entries)
            for x in (B * intervals._ln2_fp(W)[0], robin.log_n(f, bits)[0]):
                self._check(robin._rhs_floor(x, bits))

    def test_threshold_and_deferred_rhs(self):
        self._check(theorems.threshold_5040())
        r = robin.check(primes.factorize(5041))
        assert r._rhs is ...  # a floor decided it
        self._check(r.rhs)

    def test_primorial_table(self):
        rows = explorer.conjecture31_table(400)
        assert rows[0].alpha is None and rows[0].ratio is None
        for row in rows[1:]:
            self._check(row.alpha)
            self._check(row.ratio)

    def test_constructor_refuses_other_shapes(self):
        with pytest.raises(ValueError):
            RealInterval(3, 2, -2)


# Inputs whose truncation box has corners of two bit lengths, so the
# corners round at two exponents and the exact path decides.  At 53 bits
# and slack 64, x and y keep their top 117 bits.
_CORNERS_DISAGREE = [
    # y's top bits are 2**117 - 1, so its bracket straddles 2**117
    dict(lo=1, width=0, x=3, y=2 ** 200 - 1, e=0, bits=53, slack=64),
    # x's top bits are (2**118 - 1) / 3: at the hi endpoint a = 3,
    # a*x0 = 2**118 - 1 and a*x1 = 2**118 + 2; at a = 1 they agree
    dict(lo=1, width=2, x=((2 ** 118 - 1) // 3 << 200) + 12345, y=7, e=0,
         bits=53, slack=64),
]


class TestOutwardRatio:
    """outward_ratio returns what the exact outward_interval returns."""

    @settings(max_examples=400, deadline=None)
    @given(lo=st.integers(-3, 2 ** 150), width=st.integers(0, 2 ** 90),
           x=st.integers(1, 2 ** 700), y=st.integers(1, 2 ** 700),
           e=st.integers(0, 120), bits=st.integers(1, 160),
           slack=st.sampled_from([-10 ** 6, 0, 4, 8, 64]))
    # 3x is just past 2**300 while its truncation is below: the shift
    # must come from both ends
    @example(lo=3, width=0, x=(2 ** 300 + 2) // 3, y=3, e=0, bits=53,
             slack=64)
    @example(**_CORNERS_DISAGREE[0])
    @example(**_CORNERS_DISAGREE[1])
    def test_equals_exact(self, lo, width, x, y, e, bits, slack):
        # slack 4 or 8 leaves many endpoints undecided; -10**6 keeps one
        # bit, so the exact path decides nearly every case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "_TOP_SLACK_BITS", slack)
            got = outward_ratio(lo, lo + width, x, y, e, bits)
        assert got == outward_interval(lo * x, (lo + width) * x, y << e, bits)

    @pytest.mark.parametrize("case", _CORNERS_DISAGREE)
    def test_disagreeing_corners_take_the_exact_path(self, case,
                                                     monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return outward_interval(*args)

        monkeypatch.setattr(intervals, "outward_interval", counting)
        monkeypatch.setattr(intervals, "_TOP_SLACK_BITS", case["slack"])
        lo, hi = case["lo"], case["lo"] + case["width"]
        x, y, e, bits = case["x"], case["y"], case["e"], case["bits"]
        got = outward_ratio(lo, hi, x, y, e, bits)
        assert len(calls) == 1
        assert got == outward_interval(lo * x, hi * x, y << e, bits)


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
