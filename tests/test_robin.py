"""sigma, the normalized inequality, and the escalating certified check."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robincheck import primes, robin
from robincheck.factorization import (
    EmptyFactorization,
    Factorization,
    sigma_int,
    sigma_over_n_fraction,
)
from robincheck.intervals import PrecisionConfig

import oracles

_PRIMES_BELOW_200 = [p for p in range(2, 200)
                     if all(p % d for d in range(2, math.isqrt(p) + 1))]


class TestSigma:
    @pytest.mark.parametrize("entries,expected", [
        (((2, 1), (3, 1)), 12),
        (((2, 3),), 15),
        (((2, 4), (3, 2), (5, 1), (7, 1)), 19344),
    ])
    def test_examples(self, entries, expected):
        # 19344 cross-checked by enumerating all divisors of 5040
        assert sigma_int(Factorization(entries)) == expected

    def test_5040_against_divisor_enumeration(self):
        assert oracles.sigma_by_divisors(5040) == 19344

    def test_exhaustive_against_divisor_sieve(self):
        sig = oracles.sigma_sieve(10**5)
        for n in range(2, 10**5 + 1):
            assert sigma_int(primes.factorize(n)) == sig[n], n

    def test_multiplicativity(self):
        rng = random.Random(11)
        pool = list(primes.primes_up_to(500))
        for _ in range(1000):
            ps = rng.sample(pool, 6)
            a = Factorization(tuple((p, rng.randint(1, 5)) for p in ps[:3]))
            b = Factorization(tuple((p, rng.randint(1, 5)) for p in ps[3:]))
            ab = Factorization(a.entries + b.entries)
            assert sigma_int(ab) == sigma_int(a) * sigma_int(b)

    def test_empty_rejected(self):
        with pytest.raises(EmptyFactorization):
            sigma_int(Factorization(()))


class TestSigmaOverN:
    @pytest.mark.parametrize("entries,expected", [
        (((2, 4),), Fraction(31, 16)),
        (((2, 1), (3, 1)), Fraction(2)),
        (((2, 4), (3, 2), (5, 1), (7, 1)), Fraction(403, 105)),
    ])
    def test_examples(self, entries, expected):
        assert sigma_over_n_fraction(Factorization(entries)) == expected

    def test_times_n_equals_sigma(self):
        rng = random.Random(23)
        pool = list(primes.primes_up_to(5000))
        for _ in range(1000):
            ps = rng.sample(pool, rng.randint(1, 7))
            f = Factorization(tuple((p, rng.randint(1, 6)) for p in ps))
            assert sigma_over_n_fraction(f) * f.n() == sigma_int(f)

    def test_lowest_terms(self):
        fr = sigma_over_n_fraction(primes.factorize(5040))
        assert fr.numerator == 403 and fr.denominator == 105


class TestLogN:
    def test_ln2(self):
        iv = robin.log_n(Factorization(((2, 1),)), 53)
        assert oracles.agrees_with_decimal(iv, "0.6931")
        assert oracles.interval_contains_mp(iv, mpmath.log(2))

    def test_5040(self):
        iv = robin.log_n(primes.factorize(5040), 53)
        assert oracles.agrees_with_decimal(iv, "8.5252")
        assert oracles.interval_contains_mp(iv, mpmath.log(5040))

    def test_width_halves_when_precision_doubles(self):
        f = primes.factorize(720720)
        w53, w106 = (iv.hi.as_fraction() - iv.lo.as_fraction()
                     for iv in (robin.log_n(f, 53), robin.log_n(f, 106)))
        assert w106 <= w53 / 2

    def test_huge_primorial_without_materializing(self):
        f = primes.primorial_factorization(10**4)
        iv = robin.log_n(f, 53)
        # theta(p_10000) = sum of ln p; oracle at 50 digits
        true = mpmath.fsum(mpmath.log(p) for p in primes.primes_up_to(104729))
        assert oracles.interval_contains_mp(iv, true)


class TestRobinRhs:
    def test_5040_threshold(self):
        iv = robin.robin_rhs(primes.factorize(5040), 53)
        assert oracles.agrees_with_decimal(iv, "3.817")
        assert oracles.interval_contains_mp(iv, oracles.rhs_mp(5040))

    def test_n2_undefined(self):
        with pytest.raises(robin.RhsUndefined):
            robin.robin_rhs(Factorization(((2, 1),)), 53)

    def test_n3_defined(self):
        iv = robin.robin_rhs(Factorization(((3, 1),)), 53)
        assert oracles.interval_contains_mp(iv, oracles.rhs_mp(3))
        assert iv.lo.as_fraction() > 0

    def test_5041_slightly_above_5040(self):
        below = robin.robin_rhs(primes.factorize(5040), 53)
        above = robin.robin_rhs(primes.factorize(5041), 53)
        # log log is increasing
        assert above.lo.as_fraction() > below.hi.as_fraction()
        assert oracles.interval_contains_mp(above, oracles.rhs_mp(5041))

    def test_both_evaluation_paths_agree(self):
        # e^g ln(sum k ln p) versus e^g ln(ln n) on the materialized n:
        # the same real, so the enclosures must overlap and both must
        # contain the oracle value
        from robincheck.intervals import _GUARD, _ln_fp
        W = 53 + _GUARD
        for n in (5040, 5041, 30030, 720720, 2**31 - 1):
            f = primes.factorize(n)
            via_sum = robin.robin_rhs(f, 53)
            via_direct = robin._rhs_from_log(*_ln_fp(n, 1, W), 53)
            true = oracles.rhs_mp(n)
            assert oracles.interval_contains_mp(via_sum, true)
            assert oracles.interval_contains_mp(via_direct, true)
            assert not (via_sum.hi.as_fraction() < via_direct.lo.as_fraction()
                        or via_direct.hi.as_fraction() < via_sum.lo.as_fraction())


class TestCheck:
    def test_5040_violated(self):
        r = robin.check(primes.factorize(5040))
        assert r.verdict is robin.Verdict.VIOLATED
        assert r.lhs == Fraction(403, 105)
        assert r.reason == robin.REASON_LHS_EXCEEDS_RHS

    def test_5041_satisfied(self):
        r = robin.check(primes.factorize(5041))
        assert r.verdict is robin.Verdict.SATISFIED
        assert r.lhs == Fraction(5113, 5041)
        # margin understates the true separation
        true_margin = r.rhs.lo.as_fraction() - r.lhs
        assert r.margin_lower_bound.as_fraction() <= true_margin

    def test_n2_violated_with_reason(self):
        r = robin.check(Factorization(((2, 1),)))
        assert r.verdict is robin.Verdict.VIOLATED
        assert r.reason == robin.REASON_RHS_UNDEFINED
        assert r.rhs is None

    def test_check_n(self):
        assert robin.check_n(5040).verdict is robin.Verdict.VIOLATED
        assert robin.check_n(5041).verdict is robin.Verdict.SATISFIED
        with pytest.raises(ValueError):
            robin.check_n(1)

    def test_verdict_consistency_invariant(self):
        # Satisfied => lhs < rhs.lo; Violated with rhs => lhs > rhs.hi
        for n in (5039, 5040, 5041, 720720, 12, 13):
            r = robin.check_n(n)
            if r.rhs is None:
                continue
            if r.verdict is robin.Verdict.SATISFIED:
                assert r.rhs.lo.as_fraction() > r.lhs
            elif r.verdict is robin.Verdict.VIOLATED:
                assert r.rhs.hi.as_fraction() < r.lhs

    def test_verdict_soundness_reevaluation(self):
        # 10^3 random cases: 4x precision re-check yields the same verdict
        rng = random.Random(31)
        for _ in range(1000):
            n = rng.randint(2, 10**9)
            f = primes.factorize(n)
            base = robin.check(f)
            assert base.verdict is not robin.Verdict.INDETERMINATE
            again = robin.check(f, PrecisionConfig(start_bits=212))
            assert again.verdict is base.verdict, n

    def test_primorial_rhs_defined_exactly_above_m1(self):
        # pinned behavior at 53 bits: m = 1 (n = 2) undefined, m >= 2 defined
        with pytest.raises(robin.RhsUndefined):
            robin.robin_rhs(primes.primorial_factorization(1), 53)
        for m in range(2, 30):
            iv = robin.robin_rhs(primes.primorial_factorization(m), 53)
            assert iv.lo.as_fraction() > 0

    def test_check_verdict_stability_across_start_bits(self):
        # the module invariant behind the scan-level acceptance check:
        # check() itself returns identical verdicts at 24/53/128 start
        # bits; exhaustive on a dense prefix, sampled above it
        rng = random.Random(777)
        ns = list(range(2, 10**4 + 1))
        ns.extend(rng.randint(10**4, 10**5) for _ in range(2000))
        for n in ns:
            f = primes.factorize(n)
            verdicts = {robin.check(f, PrecisionConfig(start_bits=b)).verdict
                        for b in (24, 53, 128)}
            assert len(verdicts) == 1, n

    def test_extreme_precision_configs_agree(self):
        # no achievable lhs sits close enough to the transcendental rhs
        # to defeat even a 1-bit request (guard bits float the working
        # precision); verdicts must agree across the whole ladder
        for n in (3, 12, 5039, 5040, 5041, 720720):
            verdicts = {
                robin.check_n(n, PrecisionConfig(start_bits=b)).verdict
                for b in (1, 24, 53, 512)
            }
            assert len(verdicts) == 1, n

    def test_huge_primorial_checkable(self):
        f = primes.primorial_factorization(2000)
        r = robin.check(f)
        assert r.verdict is robin.Verdict.SATISFIED

    @given(st.dictionaries(st.sampled_from(_PRIMES_BELOW_200),
                           st.integers(1, 300), min_size=1, max_size=6))
    @example({2: 4, 3: 2, 5: 1, 7: 1})  # 5040, violated
    @example({2: 300})                    # satisfied
    @settings(max_examples=150, deadline=None)
    def test_large_exponents_against_mpmath(self, exps):
        f = Factorization(tuple(sorted(exps.items())))
        r = robin.check(f)
        assert r.lhs == Fraction(
            math.prod(p ** (k + 1) - 1 for p, k in exps.items()),
            math.prod(p ** k * (p - 1) for p, k in exps.items()))
        if exps == {2: 1}:  # n = 2 <= e
            assert r.rhs is None and r.verdict is robin.Verdict.VIOLATED
            return
        # an escalated enclosure is narrower than 50 digits can resolve
        with mpmath.workdps(max(50, r.precision_used * 3 // 10 + 20)):
            ln_n = mpmath.fsum(k * mpmath.log(p) for p, k in exps.items())
            rhs = mpmath.exp(mpmath.euler) * mpmath.log(ln_n)
            assert oracles.interval_contains_mp(r.rhs, rhs)
            gap = oracles.mp_of_fraction(r.lhs) - rhs
        if abs(gap) > oracles.ORACLE_MARGIN:
            expected = (robin.Verdict.VIOLATED if gap > 0
                        else robin.Verdict.SATISFIED)
            assert r.verdict is expected
