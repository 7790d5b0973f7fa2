"""Prime-power sweep, substitution monotonicity, corollary bounds."""

import math
import random
from fractions import Fraction

import pytest

from robincheck import primes, robin, theorems
from robincheck.factorization import Factorization, sigma_over_n_fraction
from robincheck.intervals import PrecisionConfig
from robincheck.robin import Verdict

import oracles


def pp_lhs(p, k):
    """sigma(p^k)/p^k = (p^(k+1) - 1) / (p^k (p - 1)), exact."""
    return sigma_over_n_fraction(Factorization(((p, k),)))


class TestPrimePowerLhs:
    @pytest.mark.parametrize("p,k,expected", [
        (2, 4, Fraction(31, 16)),
        (3, 1, Fraction(4, 3)),
        (2, 13, Fraction(16383, 8192)),
    ])
    def test_values(self, p, k, expected):
        assert pp_lhs(p, k) == expected

    def test_always_below_two(self):
        # 10^4-point grid over (p, k)
        plist = list(primes.primes_up_to(10**5))
        rng = random.Random(41)
        for _ in range(10**4):
            p = rng.choice(plist)
            k = rng.randint(1, 64)
            v = pp_lhs(p, k)
            assert v < Fraction(p, p - 1) <= 2

    def test_monotone_decreasing_in_prime(self):
        assert pp_lhs(5, 3) < pp_lhs(3, 3) < pp_lhs(2, 3)


class TestVerifyPrimePowers:
    def test_limit_5041_contains_exactly_71_squared(self):
        results = theorems.verify_prime_powers(5041)
        assert [r.factorization.as_string() for r in results] == ["71^2"]
        assert results[0].verdict is Verdict.SATISFIED

    def test_includes_8192(self):
        results = theorems.verify_prime_powers(10**4)
        strings = {r.factorization.as_string() for r in results}
        assert "2^13" in strings
        assert all(r.verdict is Verdict.SATISFIED for r in results)

    def test_sampled_grid_to_1e9(self):
        # 10^4 sampled prime powers in (5040, 10^9]
        rng = random.Random(8)
        plist = list(primes.primes_up_to(31623))
        count = 0
        while count < 10**4:
            k = rng.randint(1, 29)
            if k == 1:
                p = rng.randint(5041, 10**9 - 50)
                while not primes.is_prime(p):
                    p += 1
            else:
                p = rng.choice(plist)
            n = p**k
            if not 5040 < n <= 10**9:
                continue
            r = robin.check(Factorization(((p, k),)))
            assert r.verdict is Verdict.SATISFIED, (p, k)
            count += 1

    def test_rejects_low_limit(self):
        with pytest.raises(ValueError):
            theorems.verify_prime_powers(5040)


class TestSubstitutePrime:
    def test_basic(self):
        f = Factorization(((2, 1), (3, 1)))
        g = theorems.substitute_prime(f, 1, 5)
        assert g.entries == ((2, 1), (5, 1))

    def test_resorts(self):
        f = Factorization(((2, 4), (3, 2)))
        g = theorems.substitute_prime(f, 0, 5)
        assert g.entries == ((3, 2), (5, 4))

    def test_colliding_base(self):
        with pytest.raises(theorems.CollidingBase):
            theorems.substitute_prime(Factorization(((2, 4), (3, 2))), 0, 3)

    def test_not_an_increase(self):
        with pytest.raises(theorems.NotAnIncrease):
            theorems.substitute_prime(Factorization(((2, 1), (3, 2))), 0, 2)

    def test_not_prime(self):
        with pytest.raises(primes.NotPrime):
            theorems.substitute_prime(Factorization(((2, 1),)), 0, 9)

    def test_prime_past_primality_range_refused(self):
        # 2^89 - 1 is prime, but above the deterministic Miller-Rabin bound
        with pytest.raises(primes.PrimalityUnknown, match="primality range"):
            theorems.substitute_prime(Factorization(((2, 1), (3, 1))), 0,
                                      2**89 - 1)


class TestSubstitutionReport:
    def test_spec_case_35280(self):
        f = primes.parse_factor_string("2^4*3^2*5*7^2")
        rep = theorems.substitution_report(f, 3, 11)
        assert rep.before.verdict is Verdict.SATISFIED
        assert rep.after.verdict is Verdict.SATISFIED
        assert rep.lhs_decreased and rep.rhs_increased
        assert rep.old_prime == 7 and rep.new_prime == 11

    def test_spec_case_30030(self):
        f = primes.parse_factor_string("2*3*5*7*11*13")
        rep = theorems.substitution_report(f, 5, 17)
        assert rep.after.verdict is Verdict.SATISFIED
        assert rep.lhs_decreased and rep.rhs_increased

    def test_randomized_suite(self):
        # satisfied base > 5040, random index, random larger prime:
        # after stays satisfied, lhs strictly drops, ln n certified up
        rng = random.Random(424242)
        pool = list(primes.primes_up_to(2000))
        done = 0
        while done < 1000:
            ps = sorted(rng.sample(pool, rng.randint(1, 6)))
            f = Factorization(tuple((p, rng.randint(1, 5)) for p in ps))
            if f.n() <= 5040:
                continue
            if robin.check(f).verdict is not Verdict.SATISFIED:
                continue
            idx = rng.randrange(len(f.entries))
            old = f.entries[idx][0]
            new = primes.nth_prime(rng.randint(1, 400))
            if new <= old or any(p == new for p, _ in f.entries):
                continue
            rep = theorems.substitution_report(f, idx, new)
            assert rep.after.verdict is Verdict.SATISFIED
            assert rep.lhs_decreased
            assert rep.rhs_increased
            done += 1


    def test_undecided_log_increase_is_none_not_false(self):
        # adjacent 60-bit primes: ln n moves by ~6e-18, far inside an
        # 8-bit enclosure, so a ladder capped at 8 bits cannot separate
        f = Factorization(((1000000000000000003, 1),))
        tight = PrecisionConfig(start_bits=8, max_bits=8)
        rep = theorems.substitution_report(f, 0, 1000000000000000009, tight)
        assert rep.rhs_increased is None
        rep = theorems.substitution_report(f, 0, 1000000000000000009)
        assert rep.rhs_increased is True

    def test_certified_decrease_is_false(self):
        small = Factorization(((1000000000000000003, 1),))
        large = Factorization(((1000000000000000009, 1),))
        cfg = PrecisionConfig()
        assert theorems._certify_log_increase(large, small, cfg) is False
        assert theorems._certify_log_increase(small, large, cfg) is True


class TestPerPrimeMonotonicity:
    def test_exhaustive_consecutive_primes_to_1e4(self):
        # lhs(P, k) < lhs(p, k) for consecutive primes p < P covers all
        # prime pairs below 10^4 by transitivity of <
        plist = list(primes.primes_up_to(10**4))
        for k in range(1, 17):
            prev = pp_lhs(plist[0], k)
            for p in plist[1:]:
                cur = pp_lhs(p, k)
                assert cur < prev
                prev = cur

    def test_random_nonadjacent_pairs(self):
        rng = random.Random(6)
        plist = list(primes.primes_up_to(10**4))
        for _ in range(2000):
            p, bigp = sorted(rng.sample(plist, 2))
            k = rng.randint(1, 16)
            assert pp_lhs(bigp, k) < pp_lhs(p, k)


class TestBounds:
    def test_unbounded_exact_values(self):
        assert theorems.unbounded_exponent_bound(2).bound_value == 3
        assert theorems.unbounded_exponent_bound(3).bound_value == Fraction(15, 4)
        assert theorems.unbounded_exponent_bound(4).bound_value == Fraction(35, 8)

    def test_unbounded_passes_exactly_m_le_3(self):
        for m in range(1, 8):
            assert theorems.unbounded_exponent_bound(m).passes == (m <= 3)

    def test_squarefree_value_m9(self):
        b = theorems.squarefree_bound(9)
        assert b.bound_value == Fraction(3981312, 1062347)
        assert b.passes

    def test_squarefree_m2(self):
        assert theorems.squarefree_bound(2).bound_value == 2

    def test_squarefree_passes_exactly_m_le_9(self):
        for m in range(1, 14):
            assert theorems.squarefree_bound(m).passes == (m <= 9)

    def test_m10_value(self):
        b = theorems.squarefree_bound(10)
        assert b.bound_value == Fraction(3981312, 1062347) * Fraction(30, 29)
        assert not b.passes

    def test_passes_iff_below_threshold_lo(self):
        for m in (1, 3, 4, 9, 10):
            for rep in (theorems.unbounded_exponent_bound(m),
                        theorems.squarefree_bound(m)):
                expected = rep.bound_value < rep.threshold.lo.as_fraction()
                assert rep.passes == expected

    def test_bound_table_rows_are_the_running_products(self):
        plist = primes.first_primes(12)
        table = theorems.bound_table(12)
        assert [p for p, _, _ in table] == list(plist)
        for m, (_, u, s) in enumerate(table, 1):
            assert u.m == s.m == m
            assert u.bound_value == math.prod(
                Fraction(p, p - 1) for p in plist[:m])
            assert s.bound_value == math.prod(
                Fraction(p + 1, p) for p in plist[:m])
        with pytest.raises(ValueError):
            theorems.bound_table(0)

    def test_threshold_is_the_5040_constant(self):
        thr = theorems.threshold_5040()
        assert oracles.agrees_with_decimal(thr, "3.817")
        assert oracles.interval_contains_mp(thr, oracles.rhs_mp(5040))
