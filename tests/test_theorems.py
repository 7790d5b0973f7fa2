"""Prime-power sweep, substitution monotonicity, corollary bounds."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from robincheck import primes, robin, theorems
from robincheck.factorization import (
    Factorization,
    sigma_over_n_fp,
    sigma_over_n_fraction,
)
from robincheck.intervals import (
    _GUARD,
    InvalidInput,
    PrecisionConfig,
    RealInterval,
    _ln2_fp,
)
from robincheck.robin import Verdict

import oracles


def _slots(record):
    """Every field of a dataclass record, the lazy ``_lhs``/``_rhs`` too."""
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _per_element(limit, cfg):
    """``check`` on each prime power of the sweep, one by one."""
    return [robin.check(Factorization.from_canonical(((p, k),)), cfg)
            for p, k, _ in theorems._prime_powers_in(5040, limit)]


def _sweep_groups(limit):
    """The sweep's groups, one per exponent k: their (p, k) in its order."""
    groups = {}
    for p, k, _ in theorems._prime_powers_in(5040, limit):
        groups.setdefault(k, []).append((p, k))
    return groups


def _group_hi(p0, W):
    """U = ceil(2**W * p0/(p0 - 1)), the hi the sweep tests at p0."""
    return -(-(p0 << W) // (p0 - 1))


def _bit_sum(p, k):
    """``check``'s bit-length sum B for n = p^k."""
    return k * (p.bit_length() - 1)


_LADDERS = [PrecisionConfig(), PrecisionConfig(2, 4), PrecisionConfig(8, 8),
            PrecisionConfig(16, 16), PrecisionConfig(17, 64)]


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

    def test_trusted_factorizations_equal_validated_ones(self):
        # verify_prime_powers and primorial_factorization skip validation
        results = theorems.verify_prime_powers(10**5)
        assert len(results) == len(theorems._prime_powers_in(5040, 10**5))
        for r in results:
            f = r.factorization
            assert f == Factorization(f.entries)
            assert hash(f) == hash(Factorization(f.entries))
            assert all(type(x) is int for pk in f.entries for x in pk)
        f = primes.primorial_factorization(1000)
        assert f == Factorization(tuple(f.entries))
        assert f.entries == tuple((p, 1) for p in primes.first_primes(1000))


class TestSweepGroups:
    """One floor test decides each exponent k, at its smallest prime."""

    @pytest.mark.parametrize("cfg", _LADDERS, ids=str)
    def test_results_equal_per_element_check(self, cfg):
        # plain == leaves out the lazy slots, so it would not see a group
        # given the floor's result that check decides another way
        results = theorems.verify_prime_powers(10 ** 5, cfg)
        want = _per_element(10 ** 5, cfg)
        assert len(results) == len(want) == 8983
        for got, ref in zip(results, want):
            assert _slots(got) == _slots(ref), ref.factorization

    def test_results_equal_per_element_check_to_1e6(self):
        cfg = PrecisionConfig()
        results = theorems.verify_prime_powers(10 ** 6, cfg)
        want = _per_element(10 ** 6, cfg)
        assert len(results) == len(want) == 78017
        for got, ref in zip(results, want):
            assert _slots(got) == _slots(ref), ref.factorization

    def test_one_floor_test_per_group_and_no_check(self, monkeypatch):
        # a group is an exponent: 14 of them to 10^5 and 19 to 10^6
        floors, checked = [], []
        real_floor, real_check = robin._below_floor, robin.check

        def counted_floor(hi, x, bits):
            floors.append((hi, x, bits))
            return real_floor(hi, x, bits)

        def counted_check(f, cfg):
            checked.append(f)
            return real_check(f, cfg)

        monkeypatch.setattr(robin, "_below_floor", counted_floor)
        # the sweep's own binding of check, and the module's
        monkeypatch.setattr(theorems, "check", counted_check)
        monkeypatch.setattr(robin, "check", counted_check)
        bits = PrecisionConfig().start_bits
        W = bits + _GUARD
        ln2_lo = _ln2_fp(W)[0]
        for limit, groups in ((10 ** 5, 14), (10 ** 6, 19)):
            floors.clear()
            results = theorems.verify_prime_powers(limit)
            assert len(results) == len(theorems._prime_powers_in(5040, limit))
            assert checked == []
            # each at its exponent's smallest prime, in the sweep's
            # order, with hi = U and x = B ln 2
            firsts = [members[0] for members in _sweep_groups(limit).values()]
            assert len(firsts) == groups
            assert floors == [
                (_group_hi(p0, W), _bit_sum(p0, k) * ln2_lo, bits)
                for p0, k in firsts]

    def test_group_split_by_the_floor_goes_to_check(self, monkeypatch):
        # a floor that k = 1's smallest prime fails at U: the whole
        # exponent is checked, and each result is check's own.  The
        # second cut passes that prime's own hi too: the test is at U,
        # which bounds every larger prime's hi
        cfg = PrecisionConfig()
        W = cfg.start_bits + _GUARD
        members = _sweep_groups(10 ** 5)[1]
        his = [sigma_over_n_fp(Factorization(((p, k),)), W)[1]
               for p, k in members]
        group = set(members)
        for cut, split in ((his[-1] + 1, {True, False}), (his[0] + 1, {True})):
            assert _group_hi(members[0][0], W) >= cut > his[-1]
            monkeypatch.setattr(robin, "_below_floor",
                                lambda hi, x, bits: hi < cut)
            checked = []

            def counted(f, cfg):
                checked.append(f.entries[0])
                return robin.check(f, cfg)

            monkeypatch.setattr(theorems, "check", counted)
            results = theorems.verify_prime_powers(10 ** 5, cfg)
            assert group <= set(checked)
            want = _per_element(10 ** 5, cfg)
            for got, ref in zip(results, want):
                assert _slots(got) == _slots(ref), ref.factorization
            # per-element check decides by the floor alone where hi < cut
            assert split == {r._rhs is ... for r in want
                             if r.factorization.entries[0] in group}

    @pytest.mark.parametrize("bits", [1, 4, 53, 212])
    def test_group_bound_holds_for_every_member(self, bits):
        # the sweep's two facts, by brute force over every p^k in
        # (5040, 10^6]: each member's hi is at most U, and its bit-length
        # sum B is at least that of k's smallest prime; so a pass at the
        # smallest prime is a pass at each member's own hi and B
        W = bits + _GUARD
        groups = _sweep_groups(10 ** 6)
        assert sum(map(len, groups.values())) == 78017
        for k, members in groups.items():
            p0 = members[0][0]
            U = _group_hi(p0, W)
            passed = robin._below_bit_floor(U, ((p0, k),), bits)
            for p, _ in members:
                hi = sigma_over_n_fp(Factorization.from_canonical(
                    ((p, k),)), W)[1]
                assert hi <= U, (p, k)
                assert _bit_sum(p, k) >= _bit_sum(p0, k), (p, k)
                if passed:
                    assert robin._below_bit_floor(hi, ((p, k),), bits), (
                        p, k)

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
        with pytest.raises(InvalidInput, match="^3 already a base$"):
            theorems.substitute_prime(Factorization(((2, 4), (3, 2))), 0, 3)

    def test_not_an_increase(self):
        with pytest.raises(InvalidInput, match="^2 <= 2$"):
            theorems.substitute_prime(Factorization(((2, 1), (3, 2))), 0, 2)

    def test_not_prime(self):
        with pytest.raises(InvalidInput, match="^9 is not prime$"):
            theorems.substitute_prime(Factorization(((2, 1),)), 0, 9)

    def test_prime_past_primality_range_refused(self):
        # 2^89 - 1 is prime, but above the deterministic Miller-Rabin bound
        with pytest.raises(InvalidInput, match="primality range"):
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

    def test_enclosures_decide_the_divisor_side(self, monkeypatch):
        # the 2*10^4-prime primorial with its last prime bumped: the two
        # sigma(n)/n enclosures separate, and no exact one is built
        def refuse(f):
            raise AssertionError("exact sigma(n)/n built")

        monkeypatch.setattr(robin, "sigma_over_n_fraction", refuse)
        m = 20_000
        f = primes.primorial_factorization(m)
        rep = theorems.substitution_report(f, m - 1, primes.nth_prime(m + 1))
        assert rep.lhs_decreased is True
        assert rep.rhs_increased is True

    @pytest.mark.parametrize("entries, index, new_prime, widen", [
        # adjacent 60-bit primes: sigma(n)/n moves by ~6e-36, inside the
        # 85-bit enclosures
        (((1000000000000000003, 1),), 0, 1000000000000000009, False),
        # 35280 -> 45360, with both enclosures widened to [0, 8]
        (((2, 4), (3, 2), (5, 1), (7, 2)), 3, 11, True),
    ])
    def test_overlapping_enclosures_fall_back_to_exact(self, entries, index,
                                                        new_prime, widen,
                                                        monkeypatch):
        f = Factorization(entries)
        built = []

        def counted(g):
            built.append(g)
            return sigma_over_n_fraction(g)

        monkeypatch.setattr(robin, "sigma_over_n_fraction", counted)
        if widen:
            monkeypatch.setattr(theorems, "sigma_over_n_interval",
                                lambda g, W: RealInterval(0, 8 << W, -W))
        rep = theorems.substitution_report(f, index, new_prime)
        assert len(built) == 2
        assert rep.after.lhs < rep.before.lhs
        assert rep.lhs_decreased is True
        # the exact comparison's answer is the one reported: with every
        # sigma(n)/n read as n, the larger n has the larger lhs
        monkeypatch.setattr(robin, "sigma_over_n_fraction",
                            lambda g: Fraction(g.n()))
        rep = theorems.substitution_report(f, index, new_prime)
        assert rep.lhs_decreased is False

    def test_certified_decrease_is_false(self):
        small = Factorization(((1000000000000000003, 1),))
        large = Factorization(((1000000000000000009, 1),))
        cfg = PrecisionConfig()
        assert theorems._certify_log_increase(large, small, cfg) is False
        assert theorems._certify_log_increase(small, large, cfg) is True

    def test_log_increase_is_the_separation_of_the_enclosures(self):
        # reference: True or False at the first rung whose ln n enclosures
        # are disjoint, None when none is
        def separated(f_before, f_after, cfg):
            for bits in cfg.ladder():
                a_lo, a_hi = robin.log_n(f_before, bits)
                b_lo, b_hi = robin.log_n(f_after, bits)
                if b_lo > a_hi or b_hi < a_lo:
                    return b_lo > a_hi
            return None

        # adjacent primes near 10^18: ln n moves by ~2^-57, which rungs
        # from 8 to 128 bits separate or not
        ps = [p for p in range(10**18, 10**18 + 200) if primes.is_prime(p)]
        for top in (8, 24, 40, 48, 56, 64, 128):
            cfg = PrecisionConfig(start_bits=8, max_bits=top)
            for p, q in zip(ps, ps[1:]):
                a = Factorization(((p, 1),))
                b = Factorization(((q, 1),))
                for x, y in ((a, b), (b, a), (a, a)):
                    assert (theorems._certify_log_increase(x, y, cfg)
                            == separated(x, y, cfg)), (x, y, top)


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
