"""Sieve, factorization, and factor-string grammar."""

import bisect
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robincheck import primes
from robincheck.factorization import Factorization
from robincheck.intervals import InvalidInput

import oracles


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

    def test_input_too_large(self):
        with pytest.raises(primes.InputTooLarge):
            primes.factorize(2**64)

    def test_below_two(self):
        with pytest.raises(ValueError):
            primes.factorize(1)


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
