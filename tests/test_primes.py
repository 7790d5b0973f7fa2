"""Sieve, factorization, and factor-string grammar."""

import bisect
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robincheck import primes
from robincheck.factorization import Factorization
from robincheck.intervals import InvalidInput

import oracles

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


class TestSieve:
    def test_small(self):
        assert primes.primes_up_to(10) == (2, 3, 5, 7)

    def test_first_nine_end_at_23(self):
        table = primes.primes_up_to(23)
        assert len(table) == 9
        assert table[-1] == 23

    def test_count_to_million(self):
        # count frozen from an independent naive sieve run at build time
        assert len(primes.primes_up_to(10**6)) == 78498

    def test_matches_naive_trial_division(self):
        assert (list(primes.primes_up_to(10**4))
                == oracles.naive_prime_list(10**4))

    def test_limit_too_large(self):
        # refused before the source sieves anything
        before = primes._SOURCE._limit
        with pytest.raises(InvalidInput, match="exceed the sieve budget"):
            primes.primes_up_to(10**9)
        with pytest.raises(InvalidInput, match="exceed the sieve budget"):
            primes.first_primes(6_000_000)  # p_m is about 1.04 * 10^8
        assert primes._SOURCE._limit == before

    def test_bad_limit(self):
        assert primes.primes_up_to(1) == ()

    def test_growth_capped_at_budget(self, monkeypatch):
        monkeypatch.setattr(primes, "_SIEVE_BUDGET", 100_000)
        source = primes._PrimeSource()
        source._grow_to(70_000)
        # doubling would sieve to 140000; the budget stops it at 10^5
        assert len(source.primes_up_to(80_000)) == 7837
        assert source._limit == 100_000
        assert len(source.primes_up_to(100_000)) == 9592
        with pytest.raises(InvalidInput, match="exceed the sieve budget"):
            source.primes_up_to(100_001)

    def test_first_takes_every_prime_the_budget_holds(self, monkeypatch):
        # the upper estimate for m = 9592 is about 109,215, past the budget
        monkeypatch.setattr(primes, "_SIEVE_BUDGET", 100_000)
        got = primes._PrimeSource().first(9592)
        assert len(got) == 9592 and got[-1] == 99_991

    def test_first_past_the_budget_names_m(self, monkeypatch):
        monkeypatch.setattr(primes, "_SIEVE_BUDGET", 100_000)
        # the lower bound 99,620 is within the budget: refused after
        # sieving, on the sieve's array, before any tuple is built
        sieved = primes._PrimeSource()
        with pytest.raises(InvalidInput, match="first 9593 primes exceed"):
            sieved.first(9593)
        assert sieved._limit == 0 and sieved._primes == ()
        # the lower bound 104,306 is not: refused before sieving
        source = primes._PrimeSource()
        with pytest.raises(InvalidInput, match="first 10000 primes exceed"):
            source.first(10_000)
        assert source._limit == 0

    def test_sieve_at_every_limit_to_2000(self):
        naive = oracles.naive_prime_list(2000)
        for limit in range(2, 2001):
            assert (primes._sieve(limit).tolist()
                    == naive[: bisect.bisect_right(naive, limit)]), limit

    @pytest.mark.parametrize("limit", [
        p * p + d for p in (3, 5, 7, 11, 251, 257) for d in (-1, 0, 1)
    ] + [1 << 16, (1 << 16) + 1, 99_999, 100_000])
    def test_sieve_at_squares_and_powers_of_two(self, limit):
        # p^2 is the first multiple of p struck, and p^2 - 1 the last
        # limit before it; odd and even limits end on either parity
        assert (primes._sieve(limit).tolist()
                == oracles.naive_prime_list(limit))

    def test_growth_in_steps_matches_one_growth(self):
        stepped = primes._PrimeSource()
        stepped._grow_to(70_000)
        stepped._grow_to(200_000)
        whole = primes._PrimeSource()
        whole._grow_to(200_000)
        assert stepped._limit == whole._limit == 200_000
        assert stepped.primes_up_to(200_000) == whole.primes_up_to(200_000)

    def test_fresh_source_gives_the_first_primes(self):
        # below p_6 the source sieves to its 2^16 minimum, not to an estimate
        source = primes._PrimeSource()
        assert source.first(3) == (2, 3, 5)
        assert source._limit == 1 << 16


class TestNthPrime:
    @pytest.mark.parametrize("m,expected", [(1, 2), (9, 23), (10**4, 104729)])
    def test_values(self, m, expected):
        assert primes.nth_prime(m) == expected

    def test_grows_on_demand(self):
        assert primes.nth_prime(2000) == 17389

    def test_bad_index(self):
        with pytest.raises(ValueError):
            primes.nth_prime(0)


class TestPrimorial:
    def test_m4(self):
        f = primes.primorial_factorization(4)
        assert f.entries == ((2, 1), (3, 1), (5, 1), (7, 1))
        assert f.n() == 210

    def test_m6_first_above_5040(self):
        assert primes.primorial_factorization(5).n() == 2310
        assert primes.primorial_factorization(6).n() == 30030

    def test_m1(self):
        assert primes.primorial_factorization(1).entries == ((2, 1),)


class TestFactorize:
    @pytest.mark.parametrize("n,entries", [
        (5040, ((2, 4), (3, 2), (5, 1), (7, 1))),
        (5041, ((71, 2),)),
        (2, ((2, 1),)),
        # 10006 = 2 * 5003, 5003 in p - 1's stage 2; 562949953421381 is
        # the least prime above 2^49
        (10007 * 562949953421381, ((10007, 1), (562949953421381, 1))),
    ])
    def test_known(self, n, entries):
        assert primes.factorize(n).entries == entries

    def test_exhaustive_multiply_back(self):
        for n in range(2, 10**5 + 1):
            f = primes.factorize(n)
            v = 1
            for p, k in f:
                v *= p**k
            assert v == n

    def test_random_64bit_multiply_back(self):
        rng = random.Random(20260808)
        for _ in range(10**4):
            n = rng.randint(2, 2**64 - 1)
            f = primes.factorize(n)
            v = 1
            for p, k in f:
                assert primes.is_prime(p)
                v *= p**k
            assert v == n

    @staticmethod
    def _assert_validated(n):
        # factorize builds its result unvalidated; the validating
        # constructor must find nothing to sort, convert or refuse
        f = primes.factorize(n)
        assert f == Factorization(f.entries)
        assert all(type(p) is int and type(k) is int for p, k in f.entries)

    @given(st.integers(2, 2**64 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_validated_constructor(self, n):
        self._assert_validated(n)

    @pytest.mark.parametrize("p", [2, 3, 997, 1009, 65537, 2**31 - 1,
                                   2**32 - 5])
    def test_prime_powers_equal_the_validated_constructor(self, p):
        q = p
        while q < 2**64:
            self._assert_validated(q)
            q *= p

    def test_62bit_semiprimes_equal_the_validated_constructor(self):
        rng = random.Random(20261022)
        for _ in range(40):
            p, q = (_random_prime(rng, 1 << 30, 1 << 31) for _ in range(2))
            self._assert_validated(p * q)

    def test_carmichael_numbers_equal_the_validated_constructor(self):
        for k in TestStagedSplit._CHERNICK_K:
            self._assert_validated((6 * k + 1) * (12 * k + 1) * (18 * k + 1))

    @pytest.mark.parametrize("n", [np.int64(2 * 999983),
                                   np.uint64(2**64 - 59)])
    def test_numpy_integer_gives_int_entries(self, n):
        self._assert_validated(n)

    def test_input_too_large(self):
        with pytest.raises(primes.InputTooLarge):
            primes.factorize(2**64)

    def test_below_two(self):
        with pytest.raises(ValueError):
            primes.factorize(1)


def _staged(monkeypatch, n):
    """factorize(n).entries and each split stage's (stage, v, result)."""
    calls = []
    rho, pminus1 = primes._brent_rho, primes._pminus1

    def spy_rho(v):
        d = rho(v)
        calls.append(("rho", v, d))
        return d

    def spy_pminus1(v):
        d = pminus1(v)
        calls.append(("p-1", v, d))
        return d

    monkeypatch.setattr(primes, "_brent_rho", spy_rho)
    monkeypatch.setattr(primes, "_pminus1", spy_pminus1)
    return primes.factorize(n).entries, calls


def _stage1_gcd(v):
    """The first stage-1 chunk gcd of p - 1 on v that is not 1, else 1."""
    x = 2
    for e, _ in primes._pm1_tables()[0]:
        y = pow(x, e, v)
        g = math.gcd(y - 1, v)
        if g != 1:
            return g
        x = y
    return 1


def _random_prime(rng, lo, hi):
    while True:
        x = rng.randrange(lo, hi) | 1
        if primes.is_prime(x):
            return x


def _largest_prime_power_of(m):
    return max(p ** k for p, k in primes.factorize(m).entries)


class TestStagedSplit:
    """Each stage of ``factorize``'s split of a composite part, forced.

    The numbers were searched for once; each test first asserts what
    makes its stage the one that splits, against the module's constants.
    """

    @pytest.mark.parametrize("p", [2**31 - 1, 2**32 - 5])
    def test_prime_square_costs_no_rho(self, monkeypatch, p):
        entries, calls = _staged(monkeypatch, p * p)
        assert entries == ((p, 2),)
        assert calls == []

    def test_pminus1_stage1(self, monkeypatch):
        # p - 1 = 2 * 223 * 953 * 2689 is B1-smooth; q = 2 * 865030979 + 1
        p, q = 1142927183, 1730061959
        assert _largest_prime_power_of(p - 1) <= primes._PM1_B1
        assert _largest_prime_power_of(q - 1) > primes._PM1_B2
        assert _stage1_gcd(p * q) == p
        entries, calls = _staged(monkeypatch, p * q)
        assert entries == ((p, 1), (q, 1))
        assert calls == [("p-1", p * q, p)]

    def test_pminus1_stage2(self, monkeypatch):
        # p - 1 = 2 * 5 * 2551 * 43237, one prime in (B1, B2]
        p, q, ell = 1102975871, 1896740543, 43237
        assert primes._PM1_B1 < ell <= primes._PM1_B2
        assert _largest_prime_power_of((p - 1) // ell) <= primes._PM1_B1
        assert _largest_prime_power_of(q - 1) > primes._PM1_B2
        assert _stage1_gcd(p * q) == 1
        entries, calls = _staged(monkeypatch, p * q)
        assert entries == ((p, 1), (q, 1))
        assert calls == [("p-1", p * q, p)]

    def test_pminus1_backs_off_when_the_chunk_gcd_is_v(self, monkeypatch):
        # both p - 1 and q - 1 are B1-smooth: their chunk's gcd is pq, and
        # one prime at a time splits them
        p, q = 1327160039, 1437733043
        for r in (p, q):
            assert _largest_prime_power_of(r - 1) <= primes._PM1_B1
        assert _stage1_gcd(p * q) == p * q
        entries, calls = _staged(monkeypatch, p * q)
        assert entries == ((p, 1), (q, 1))
        assert calls == [("p-1", p * q, q)]

    # k with 6k + 1, 12k + 1 and 18k + 1 prime, 6k + 1 > 10^3 and their
    # product (a Carmichael number) below 2^64: 40 of the 1,666 such k
    _CHERNICK_K = (
        195, 2040, 4615, 8151, 11616, 15430, 19691, 23806, 30470, 35811,
        40420, 45096, 51096, 55855, 61670, 68215, 73695, 80300, 87065,
        92781, 97790, 105245, 111596, 118426, 124351, 131330, 136430,
        141336, 148490, 156446, 164136, 171740, 178366, 185556, 193160,
        199535, 207081, 214490, 222190, 231191)

    def test_carmichael_numbers(self):
        backed_off = 0
        for k in self._CHERNICK_K:
            ps = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            assert all(primes.is_prime(p) for p in ps)
            n = math.prod(ps)
            assert n < 2**64
            assert primes.factorize(n).entries == tuple((p, 1) for p in ps)
            backed_off += _stage1_gcd(n) == n
            # 2's orders mod the three primes tend to complete at the same
            # prime of k: p - 1 may give up, but never returns n
            d = primes._pminus1(n)
            assert d is None or (1 < d < n and n % d == 0)
        assert backed_off == 36

    def test_full_rho_splits_safe_prime_products(self, monkeypatch):
        # p = 2 * 791878313 + 1 and q = 2 * 955346471 + 1: neither p - 1
        # nor q - 1 is smooth, so only the full rho splits pq
        p, q = 1583756627, 1910692943
        for r in (p, q):
            assert primes.is_prime((r - 1) // 2)
        entries, calls = _staged(monkeypatch, p * q)
        assert entries == ((p, 1), (q, 1))
        assert [c[:2] for c in calls] == [("p-1", p * q), ("rho", p * q)]
        assert calls[0][2] is None
        assert calls[1][2] in (p, q)

    @pytest.mark.parametrize("bits,lo,count", [
        (31, 1 << 30, 100),
        (32, (1 << 32) - (1 << 24), 30),
    ])
    def test_balanced_semiprimes(self, bits, lo, count):
        rng = random.Random(20261020 + bits)
        hi = 1 << bits
        for _ in range(count):
            p = q = 0
            while p == q:
                p, q = (_random_prime(rng, lo, hi) for _ in range(2))
            assert primes.factorize(p * q).entries == (
                (min(p, q), 1), (max(p, q), 1))

    def test_stage_tables_are_built_on_first_use(self):
        code = ("import robincheck.primes as p; p.factorize(10**12 - 11); "
                "print(p._pm1_tables.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=_SRC)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "0\n"


class TestIsPrime:
    def test_matches_naive(self):
        naive = set(oracles.naive_prime_list(2000))
        for n in range(2, 2001):
            assert primes.is_prime(n) == (n in naive)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not primes.is_prime(n)

    def test_large(self):
        assert primes.is_prime(2**61 - 1)
        assert not primes.is_prime((2**31 - 1) * (2**31 + 11))

    # psi_k, the smallest strong pseudoprime to the first k prime bases
    # (OEIS A014233), for k = 1..13
    _PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
            3474749660383, 341550071728321, 341550071728321,
            3825123056546413051, 3825123056546413051, 3825123056546413051,
            318665857834031151167461, 3317044064679887385961981)

    @staticmethod
    def _strong_probable_prime(n, a):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        x = pow(a, d, n)
        if x in (1, n - 1):
            return True
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return True
        return False

    @pytest.mark.parametrize("k", range(1, 14))
    def test_strong_pseudoprimes_are_composite(self, k):
        psi = self._PSI[k - 1]
        bases = oracles.naive_prime_list(41)[:k]
        assert all(self._strong_probable_prime(psi, a) for a in bases)
        # psi_k is the least such n, so the (k+1)-th base must catch it
        # when psi_k < psi_{k+1}
        if k < 13 and psi < self._PSI[k]:
            assert not self._strong_probable_prime(
                psi, oracles.naive_prime_list(43)[k])
        if psi < primes._MR_DETERMINISTIC_BOUND:
            assert not primes.is_prime(psi)
        else:
            with pytest.raises(InvalidInput, match="deterministic"):
                primes.is_prime(psi)

    def test_psi12_times_two_is_refused_as_a_factor_string(self):
        with pytest.raises(InvalidInput,
                           match="^318665857834031151167461 is not prime$"):
            primes.parse_factor_string("2*318665857834031151167461")

    def test_matches_the_sieve_to_two_million(self):
        limit = 2 * 10 ** 6
        flags = bytearray(limit + 1)
        for p in primes.primes_up_to(limit):
            flags[p] = 1
        assert [n for n in range(limit + 1)
                if primes.is_prime(n) != flags[n]] == []


class TestParseFactorString:
    def test_grammar_on_5040(self):
        f = primes.parse_factor_string("2^4*3^2*5*7")
        assert f.entries == ((2, 4), (3, 2), (5, 1), (7, 1))

    def test_whitespace(self):
        f = primes.parse_factor_string(" 2^4 * 3^2 * 5 * 7 ")
        assert f.entries == ((2, 4), (3, 2), (5, 1), (7, 1))

    def test_sorts_bases(self):
        assert primes.parse_factor_string("3*2").entries == ((2, 1), (3, 1))

    def test_not_prime(self):
        with pytest.raises(InvalidInput, match="^4 is not prime$"):
            primes.parse_factor_string("4^2*3")

    def test_duplicate_base(self):
        with pytest.raises(InvalidInput, match="^base 2 repeated$"):
            primes.parse_factor_string("2*2")

    def test_zero_exponent(self):
        with pytest.raises(InvalidInput, match="^exponent of 3 is zero$"):
            primes.parse_factor_string("3^0")

    @pytest.mark.parametrize("s", ["", "  ", "2^", "^3", "2**3", "a*b",
                                   "2^-1", "2.5", "2^4**3"])
    def test_parse_errors(self, s):
        with pytest.raises(
                InvalidInput,
                match="^(empty factor string|bad term|negative exponent)"):
            primes.parse_factor_string(s)

    def test_roundtrip_random_factorizations(self):
        rng = random.Random(77)
        pool = list(primes.primes_up_to(10**4))
        for _ in range(1000):
            chosen = rng.sample(pool, rng.randint(1, 8))
            ents = tuple(sorted((p, rng.randint(1, 9)) for p in chosen))
            f = Factorization(ents)
            assert primes.parse_factor_string(f.as_string()) == f

    def test_bit_budget_edge(self):
        top = primes.MAX_FACTOR_BITS
        assert primes.parse_factor_string(f"2^{top}").entries == ((2, top),)
        assert primes.parse_factor_string(f"2^{top - 2}*3") is not None
        for s in (f"2^{top + 1}", f"2^{top - 1}*3", "2^40000000000",
                  "2^" + "9" * 10**6):
            with pytest.raises(InvalidInput, match="budget"):
                primes.parse_factor_string(s)

    def test_bit_budget_admits_the_documented_inputs(self):
        # check "2^10000000" in the README, the CLI's 2^3000000 test and
        # the primorial of the first 10^6 primes (about 2.23e7 bits)
        assert primes.parse_factor_string("2^10000000")
        f = primes.Factorization.from_canonical(
            tuple((p, 1) for p in primes.first_primes(10**6)))
        assert primes.within_bit_budget(f) is f

    @given(st.text(alphabet="0123456789^* \t", max_size=40))
    @example("9" * 5000 + "^2")  # past the 4300 digits int() converts
    @example("2^" + "9" * 5000)
    @settings(max_examples=500, deadline=None)
    def test_any_text_roundtrips_or_is_refused(self, s):
        try:
            f = primes.parse_factor_string(s)
        except InvalidInput:
            return
        assert primes.parse_factor_string(f.as_string()) == f


class TestFactorizationType:
    def test_canonicalizes_order(self):
        f = Factorization(((7, 1), (2, 3)))
        assert f.entries == ((2, 3), (7, 1))

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInput, match="^duplicate base 2$"):
            Factorization(((2, 1), (2, 2)))

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidInput, match="^exponent 0 must be >= 1$"):
            Factorization(((2, 0),))

    def test_rejects_unit_base(self):
        with pytest.raises(InvalidInput, match="^base 1 is not a prime$"):
            Factorization(((1, 1),))

    @given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=1,
                    unique=True),
           st.integers(1, 6))
    @settings(max_examples=100)
    def test_string_roundtrip(self, ps, k):
        f = Factorization(tuple((p, k) for p in ps))
        assert primes.parse_factor_string(f.as_string()) == f
