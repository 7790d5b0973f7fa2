"""sigma, the normalized inequality, and the escalating certified check."""

import dataclasses
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robincheck import explorer, factorization, primes, robin, theorems
from robincheck.factorization import (
    Factorization,
    sigma_int,
    sigma_over_n_fraction,
    sigma_over_n_interval,
)
from robincheck.intervals import (
    _GUARD,
    _ln2_fp,
    Comparison,
    DEFAULT_PRECISION,
    InvalidInput,
    PrecisionConfig,
    RealInterval,
    compare,
    dyadic_from_fraction,
)

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
        # n = 1 is refused where it enters, so sigma_int never meets it
        with pytest.raises(InvalidInput, match="n = 1"):
            Factorization(())


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


def _both_paths(f):
    """(num, den) of sigma_over_n_fraction(f) by Fraction's gcd and by
    prime cancellation; lowest terms make the pairs unique."""
    out = []
    for max_bits in (10 ** 18, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(factorization, "_GCD_MAX_BITS", max_bits)
            fr = sigma_over_n_fraction(f)
        out.append((fr.numerator, fr.denominator))
    return out


def _lowest_terms(num, den):
    fr = Fraction(num, den)
    return fr.numerator, fr.denominator


def _next_prime(n):
    while not primes.is_prime(n):
        n += 1
    return n


def _colossally_abundant(k):
    """The CA number whose largest prime is the k-th (Alaoglu-Erdos exponents)."""
    plist = primes.first_primes(k + 1)
    bound = [math.log1p(1 / p) / math.log(p) for p in plist[k - 1:k + 1]]
    eps = (bound[0] + bound[1]) / 2
    entries = []
    for p in plist[:k]:
        lp = math.log(p)
        xm1 = math.expm1(eps * lp)
        entries.append((p, math.floor(
            (math.log(p * xm1 + p - 1) - math.log(xm1)) / lp) - 1))
    return Factorization(tuple(entries))


# large enough that big + 1 mostly has a prime factor above 200
_BIG_MIN = 1 << 22


class TestSigmaOverNCancellation:
    """The per-prime cancellation gives Fraction(sigma(n), n) exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        small=st.lists(st.tuples(st.sampled_from(_PRIMES_BELOW_200),
                                 st.integers(1, 40)),
                       min_size=0, max_size=6, unique_by=lambda e: e[0]),
        big=st.integers(_BIG_MIN, 10 ** 13).map(_next_prime),
        partners=st.lists(st.integers(1, 40), min_size=4, max_size=4),
    )
    @example(small=[(2, 3)], big=2 * 2063 * 2087 - 1, partners=[1, 3, 2, 1])
    def test_equals_sigma_over_n(self, small, big, partners):
        # the partners put some of big + 1's prime factors into n, and
        # the entries cut at 8 can leave others outside it
        assert primes.is_prime(big)
        entries = dict(small)
        entries[big] = 1
        for (r, _), k in zip(primes.factorize(big + 1).entries, partners):
            entries.setdefault(r, k)
        entries = list(entries.items())[:8]
        f = Factorization(tuple(entries))
        want = _lowest_terms(sigma_int(f), f.n())
        assert _both_paths(f) == [want, want]
        den = want[1]
        for p, _ in f.entries:
            while den % p == 0:
                den //= p
        assert den == 1  # the denominator's primes are n's

    @pytest.mark.parametrize("entries", [
        # 3^2 <= sigma(3^4) = 11^2: n's primes run out
        ((3, 4),),
        # sigma(2) = 3 is left whole and cancels n's 3
        ((2, 1), (3, 1)),
        # sigma(5) = 2 * 3 leaves 3, whose exponent sigma(2) = 3 used up
        ((2, 1), (3, 1), (5, 1)),
        # 3^2 > sigma(5) = 6, which holds 2: the final gcd takes its 3
        ((3, 1), (5, 1)),
        ((3, 20000), (5, 20000)),
        ((2, 30000), (3, 20000), (7, 10000)),
        ((2, 100000),),
    ], ids=["primes_run_out", "prime_of_n_with_exponent_left",
            "prime_of_n_used_up", "part_with_prime_outside_n",
            "3^20000*5^20000", "2^30000*3^20000*7^10000", "2^100000"])
    def test_factorizations(self, entries):
        f = Factorization(entries)
        want = _lowest_terms(sigma_int(f), f.n())
        assert _both_paths(f) == [want, want]

    @pytest.mark.parametrize("m", [1, 2, 3000, 10 ** 4])
    def test_primorials(self, m):
        f = primes.primorial_factorization(m)
        want = _lowest_terms(sigma_int(f), f.n())
        assert _both_paths(f) == [want, want]

    @pytest.mark.parametrize("k", [50, 1500, 3000, 4500])
    def test_colossally_abundant(self, k):
        f = _colossally_abundant(k)
        assert any(e > 1 for _, e in f.entries)
        want = _lowest_terms(sigma_int(f), f.n())
        assert _both_paths(f) == [want, want]

    @pytest.mark.parametrize("entries", [
        tuple((p, 2) for p in primes.first_primes(600)),
        tuple((p, (1, 2, 3, 5)[i % 4])
              for i, p in enumerate(primes.first_primes(1500))),
    ], ids=["first_600_primes_squared", "k_1_2_3_5"])
    def test_small_sigmas_past_the_trial_primes(self, entries, monkeypatch):
        # most sigma(p^k) here have a few dozen bits and meet only n's
        # primes up to sqrt(p_max + 1); what those leave meets the gcd
        f = Factorization(entries)
        monkeypatch.setattr(factorization, "_GCD_MAX_BITS", 0)
        plain = Fraction(math.prod((p ** (k + 1) - 1) // (p - 1)
                                   for p, k in entries),
                         math.prod(p ** k for p, k in entries))
        fr = sigma_over_n_fraction(f)
        assert (fr.numerator, fr.denominator) == (plain.numerator,
                                                  plain.denominator)


class TestSigmaOverNInterval:
    """``sigma_over_n_interval``, check's left side, holds sigma(n)/n."""

    @staticmethod
    def _contains(f, W):
        iv = sigma_over_n_interval(f, W)
        assert iv.e == -W
        exact = sigma_over_n_fraction(f)
        assert iv.lo_m <= exact * (1 << W) <= iv.hi_m, f
        # the width bound of the docstring
        assert iv.hi_m - iv.lo_m <= 3 * len(f) * ((iv.hi_m >> W) + 1), f

    @pytest.mark.parametrize("bits", [4, 53, 212])
    def test_floor_identity_inputs(self, bits):
        for f in _floor_identity_inputs():
            self._contains(f, bits + _GUARD)

    @pytest.mark.parametrize("bits", [4, 53, 212])
    def test_powers_of_two_on_the_grid(self, bits):
        # sigma(2^k)/2^k = 2 - 2**-k lies on the 2**-W grid for k <= W,
        # and within 2**-W of 2 above it, so an upper end one ulp low
        # leaves it out
        W = bits + _GUARD
        for k in range(1, W + 9):
            self._contains(Factorization(((2, k),)), W)

    @pytest.mark.parametrize("f", [
        Factorization(((3, 10 ** 6), (5, 10 ** 6))),
        primes.primorial_factorization(2 * 10 ** 4),
        _colossally_abundant(3000),
    ], ids=["3^1000000*5^1000000", "primorial_20000", "ca_3000"])
    def test_big_inputs(self, f):
        self._contains(f, 53 + _GUARD)


def _log_n_interval(f, bits):
    """log_n's bounds on ln(n) * 2**W, as [Fraction(lo, 2**W), Fraction(hi, 2**W)]."""
    lo, hi = robin.log_n(f, bits)
    return RealInterval(lo, hi, -(bits + _GUARD))


class TestLogN:
    def test_ln2(self):
        iv = _log_n_interval(Factorization(((2, 1),)), 53)
        assert oracles.agrees_with_decimal(iv, "0.6931")
        assert oracles.interval_contains_mp(iv, mpmath.log(2))

    def test_5040(self):
        iv = _log_n_interval(primes.factorize(5040), 53)
        assert oracles.agrees_with_decimal(iv, "8.5252")
        assert oracles.interval_contains_mp(iv, mpmath.log(5040))

    def test_width_halves_when_precision_doubles(self):
        f = primes.factorize(720720)

        def width(bits):
            lo, hi = robin.log_n(f, bits)
            return Fraction(hi - lo, 1 << (bits + _GUARD))
        assert width(106) <= width(53) / 2

    def test_huge_primorial_without_materializing(self):
        f = primes.primorial_factorization(10**4)
        iv = _log_n_interval(f, 53)
        # theta(p_10000) = sum of ln p; oracle at 50 digits
        true = mpmath.fsum(mpmath.log(p) for p in primes.primes_up_to(104729))
        assert oracles.interval_contains_mp(iv, true)


class TestRobinRhs:
    def test_5040_threshold(self):
        iv = robin.robin_rhs(primes.factorize(5040), 53)
        assert oracles.agrees_with_decimal(iv, "3.817")
        assert oracles.interval_contains_mp(iv, oracles.rhs_mp(5040))

    def test_n2_undefined(self):
        assert robin.robin_rhs(Factorization(((2, 1),)), 53) is None

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
        from robincheck.intervals import _ln_fp
        W = 53 + _GUARD
        for n in (5040, 5041, 30030, 720720, 2**31 - 1):
            f = primes.factorize(n)
            via_sum = robin.robin_rhs(f, 53)
            via_direct = robin._rhs_from_log(*_ln_fp(n, n, 1, W), 53)
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

    def test_n2_at_any_start_bits(self):
        for bits in (1, 24, 53, 128):
            r = robin.check(Factorization(((2, 1),)),
                            PrecisionConfig(start_bits=bits))
            assert r.verdict is robin.Verdict.VIOLATED
            assert r.reason == robin.REASON_RHS_UNDEFINED
            assert r.precision_used == bits
            assert r.rhs is None and r.margin_lower_bound is None

    def test_ladder_exhausted_is_indeterminate(self, monkeypatch):
        # no real input stays undecided at 4096 bits; force every rung
        # to overlap so the end of the ladder is reached, with the floors,
        # which decide on ints, turned off
        monkeypatch.setattr(robin, "_below_floor", lambda hi, x, bits: False)
        monkeypatch.setattr(robin, "compare",
                            lambda lhs, rhs: Comparison.OVERLAPPING)
        r = robin.check(primes.factorize(5041))
        assert r.verdict is robin.Verdict.INDETERMINATE
        assert r.reason == robin.REASON_ESCALATION_EXHAUSTED
        assert r.precision_used == list(DEFAULT_PRECISION.ladder())[-1]
        assert r.margin_lower_bound is None
        with mpmath.workdps(1300):  # the 4096-bit rung is 1233 digits wide
            assert oracles.interval_contains_mp(r.rhs, oracles.rhs_mp(5041))
        # n = 2 is decided before any comparison
        r2 = robin.check(Factorization(((2, 1),)))
        assert r2.verdict is robin.Verdict.VIOLATED

    @staticmethod
    def _eager_margin(r):
        """The margin as check() built it before it became derived."""
        if r.verdict is robin.Verdict.SATISFIED:
            return dyadic_from_fraction(r.rhs.lo.as_fraction() - r.lhs,
                                        r.precision_used, False)
        if r.verdict is robin.Verdict.VIOLATED and r.rhs is not None:
            return dyadic_from_fraction(r.lhs - r.rhs.hi.as_fraction(),
                                        r.precision_used, False)
        return None

    def test_derived_margin_matches_eager_formula(self, monkeypatch):
        decided = [robin.check_n(n) for n in (5041, 720720, 5040, 12, 13)]
        decided.append(robin.check(primes.primorial_factorization(200),
                                   PrecisionConfig(start_bits=212)))
        n2 = robin.check(Factorization(((2, 1),)))
        monkeypatch.setattr(robin, "_below_floor", lambda hi, x, bits: False)
        monkeypatch.setattr(robin, "compare",
                            lambda lhs, rhs: Comparison.OVERLAPPING)
        undecided = robin.check_n(5041, PrecisionConfig(max_bits=212))
        verdicts = [r.verdict for r in decided]
        assert robin.Verdict.SATISFIED in verdicts
        assert robin.Verdict.VIOLATED in verdicts
        assert undecided.verdict is robin.Verdict.INDETERMINATE
        assert n2.reason == robin.REASON_RHS_UNDEFINED
        for r in decided:
            assert r.margin_lower_bound is not None
            assert r.margin_lower_bound == self._eager_margin(r)
            assert not hasattr(r, "__dict__")  # slotted: derived per read
        for r in (n2, undecided):
            assert r.margin_lower_bound is None
            assert self._eager_margin(r) is None

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
        assert robin.robin_rhs(primes.primorial_factorization(1), 53) is None
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


def _floor_identity_inputs():
    """Factorizations for the floor-versus-eager comparison."""
    fs = [Factorization.from_canonical(((p, k),))
          for p, k, _ in theorems._prime_powers_in(5040, 10 ** 5)]
    rng = random.Random(157)
    lo, hi = math.log(5041), math.log(10 ** 12)
    fs += [primes.factorize(min(max(int(math.exp(rng.uniform(lo, hi))), 5041),
                                10 ** 12))
           for _ in range(2000)]
    fs += [Factorization.from_canonical(((2, k),)) for k in range(13, 301)]
    fs += [Factorization.from_canonical(b)
           for b, *_ in explorer._enumerate_bases(
               9, 6, Fraction("27.631021"), True, 53)]
    return fs


def _fields(r):
    return (r.factorization, r.lhs, r.rhs, r.verdict, r.precision_used,
            r.reason)


def _refuse_exact(f):
    raise AssertionError(f"the verdict built sigma(n)/n of {f}")


class TestLazyLhs:
    """check() decides on the enclosure; lhs is built when it is read."""

    @pytest.mark.parametrize("f", [
        primes.primorial_factorization(2 * 10 ** 4),
        _colossally_abundant(3000),
    ], ids=["primorial_20000", "ca_3000"])
    def test_verdict_builds_no_exact_lhs(self, f, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(robin, "sigma_over_n_fraction", _refuse_exact)
            r = robin.check(f)
        eager = oracles.eager_check(f, DEFAULT_PRECISION)
        assert r._lhs is ...
        assert (r.verdict, r.precision_used) == (eager.verdict,
                                                 eager.precision_used)
        before = pickle.loads(pickle.dumps(r))
        assert before._lhs is ...
        assert before == eager and hash(before) == hash(eager)
        assert r.lhs == sigma_over_n_fraction(f) == eager.lhs
        after = pickle.loads(pickle.dumps(r))
        assert after._lhs == eager.lhs
        assert after == before and hash(after) == hash(before)
        assert _fields(after) == _fields(eager)

    def test_decide_compares_exact_where_the_enclosure_overlaps(self):
        cfg = PrecisionConfig(start_bits=8, max_bits=32)
        half = RealInterval(1, 1, -1)
        unit = RealInterval(0, 1, 0)  # [0, 1] holds both values below
        for value, want in ((Fraction(1, 3), Comparison.LESS),
                            (Fraction(2, 3), Comparison.GREATER)):
            calls = []

            def exact(value=value):
                calls.append(value)
                return value

            assert robin.decide(unit, lambda b: half, cfg, exact) == (
                want, half, 8)
            assert calls == [value]
        assert robin.decide(unit, lambda b: half, cfg) == (
            Comparison.OVERLAPPING, half, 32)

    def test_decide_escalates_past_a_rung_without_rhs(self):
        # a rung where rhs_at gives None is skipped like an overlap: the
        # next rung decides, and a ladder of only such rungs ends with
        # the last rung's None
        cfg = PrecisionConfig(start_bits=8, max_bits=32)
        half = RealInterval(1, 1, -1)
        asked = []

        def from_16(bits):
            asked.append(bits)
            return half if bits >= 16 else None

        assert robin.decide(Fraction(1, 3), from_16, cfg) == (
            Comparison.LESS, half, 16)
        assert asked == [8, 16]
        assert robin.decide(Fraction(1, 3), lambda b: None, cfg) == (
            Comparison.OVERLAPPING, None, 32)

    @pytest.mark.parametrize("bits", [4, 53])
    def test_wide_enclosure_defers_to_exact(self, bits, monkeypatch):
        # an enclosure [0, 64] no floor or rung can decide: every verdict
        # and rung then comes from the exact value, built once per check
        built = []

        def counted(f):
            built.append(f)
            return sigma_over_n_fraction(f)

        monkeypatch.setattr(robin, "sigma_over_n_fp",
                            lambda f, W: (0, 64 << W))
        monkeypatch.setattr(robin, "sigma_over_n_fraction", counted)
        cfg = PrecisionConfig(start_bits=bits)
        fs = _floor_identity_inputs()[::40] + [primes.factorize(5040)]
        for f in fs:
            got = robin.check(f, cfg)
            assert got._lhs is not ...
            assert _fields(got) == _fields(oracles.eager_check(f, cfg)), f
        assert built == fs

    def test_huge_power_of_two_builds_no_power(self, monkeypatch):
        monkeypatch.setattr(robin, "sigma_over_n_fraction", _refuse_exact)
        f = Factorization(((2, 1 << 25),))
        tracemalloc.start()
        try:
            r = robin.check(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.verdict is robin.Verdict.SATISFIED
        assert r.precision_used == DEFAULT_PRECISION.start_bits
        assert peak < 1 << 20  # 2**(2**25) alone takes 4 MiB


class TestRhsFloor:
    """check() decides on a cached floor and builds rhs when it is read."""

    @pytest.mark.parametrize("bits", [1, 4, 53, 212])
    def test_check_equals_eager_check(self, bits):
        cfg = PrecisionConfig(start_bits=bits)
        fs = _floor_identity_inputs()
        deferred = 0
        for f in fs:
            got = robin.check(f, cfg)
            deferred += got._rhs is ...
            assert _fields(got) == _fields(oracles.eager_check(f, cfg)), f
        # the floor decides the prime powers; 5040 and the other
        # conjecture-2 bases below it reach decide()
        assert 8983 <= deferred < len(fs)

    def test_deferred_result_pickles(self):
        f = primes.factorize(5041)
        eager = oracles.eager_check(f, DEFAULT_PRECISION)
        r = robin.check(f)
        assert r._rhs is ... and eager.rhs is not None
        before = pickle.loads(pickle.dumps(r))
        assert before._rhs is ...
        assert before == eager and hash(before) == hash(eager)
        assert before.rhs == eager.rhs
        assert r.rhs == eager.rhs  # read: the slot now holds the enclosure
        after = pickle.loads(pickle.dumps(r))
        assert after._rhs == eager.rhs
        assert after == eager and hash(after) == hash(eager)
        assert after.margin_lower_bound == eager.margin_lower_bound

    def test_worker_reports_equal_one_worker(self):
        assert (explorer.scan_range(2, 120_000, worker_count=2)
                == explorer.scan_range(2, 120_000, worker_count=1))
        ln_max = Fraction("27.631021")
        assert (explorer.conjecture32_search(9, 6, ln_max, worker_count=2)
                == explorer.conjecture32_search(9, 6, ln_max, worker_count=1))

    def test_sweep_builds_one_enclosure_per_floor_key(self, monkeypatch):
        # 8,983 _rhs_from_log calls before the floor: one per prime power
        calls = []
        real = robin._rhs_from_log

        def counted(*args, **kwargs):
            calls.append(args[:3])
            return real(*args, **kwargs)

        robin._floor_threshold.cache_clear()
        monkeypatch.setattr(robin, "_rhs_from_log", counted)
        results = theorems.verify_prime_powers(10 ** 5)
        assert len(results) == 8983
        assert {r.verdict for r in results} == {robin.Verdict.SATISFIED}
        assert 0 < len(calls) <= robin._floor_threshold.cache_info().currsize

    def test_sweep_rhs_reads_make_no_ziv_rerun(self, monkeypatch):
        # the sweep no longer builds its enclosures, so they are built
        # here, on read; a kernel that widened ln ln n would show up as
        # reruns
        results = theorems.verify_prime_powers(10 ** 5)
        reruns = []
        real = robin._rhs_from_log

        def counted(lo, hi, bits, ln_x):
            def rerun(b):
                reruns.append(b)
                return ln_x(b)

            return real(lo, hi, bits, rerun)

        monkeypatch.setattr(robin, "_rhs_from_log", counted)
        assert all(r.rhs.lo.as_fraction() > r.lhs for r in results)
        assert reruns == []

    @pytest.mark.parametrize("bits", [1, 4, 53, 212])
    def test_bit_length_floor_is_below_log_n_floor(self, bits):
        ln2_lo = _ln2_fp(bits + _GUARD)[0]
        for f in _floor_identity_inputs():
            b = sum(k * (p.bit_length() - 1) for p, k in f.entries)
            ln_lo = robin.log_n(f, bits)[0]
            assert b * ln2_lo <= ln_lo, f
            coarse = robin._rhs_floor(b * ln2_lo, bits)
            fine = robin._rhs_floor(ln_lo, bits)
            if coarse is not None and fine is not None:
                assert coarse.lo.as_fraction() <= fine.lo.as_fraction(), f

    @pytest.mark.parametrize("bits", [1, 4, 53, 212])
    def test_below_floor_is_compare_against_the_floor(self, bits):
        # at T - 1, T and T + 1 for the threshold T of every floor key
        # the inputs reach, at both of check's ln n bounds
        W = bits + _GUARD
        ln2_lo = _ln2_fp(W)[0]
        floors = {}
        for f in _floor_identity_inputs():
            b = sum(k * (p.bit_length() - 1) for p, k in f.entries)
            for x in (b * ln2_lo, robin.log_n(f, bits)[0]):
                key = robin._floor_key(x)
                if key not in floors:
                    floors[key] = robin._rhs_floor(x, bits)
                floor = floors[key]
                t = robin._floor_threshold(key, bits)
                # hi >= 2**W, as sigma(n)/n >= 1, where there is no floor
                for hi in ((t - 1, t, t + 1) if floor is not None
                           else (1 << W,)):
                    want = floor is not None and compare(
                        RealInterval(hi, hi, -W), floor) is Comparison.LESS
                    assert robin._below_floor(hi, x, bits) is want, (f, x, hi)
        assert None in floors.values() and len(floors) > 100

    def test_threshold_rounds_an_off_grid_floor_up(self, monkeypatch):
        # the floors above all lie on the 2**-W grid, where rounding up
        # and down agree; this one lies between grid points 1 and 2
        bits = 53
        W = bits + _GUARD
        floor = RealInterval(5, 6, -(W + 2))
        x = 1 << (W + 3)
        monkeypatch.setattr(robin, "_rhs_from_log", lambda lo, hi, b: floor)
        robin._floor_threshold.cache_clear()
        try:
            assert robin._floor_threshold(robin._floor_key(x), bits) == 2
            for hi in (1, 2, 3):
                want = compare(RealInterval(hi, hi, -W), floor)
                assert robin._below_floor(hi, x, bits) is (
                    want is Comparison.LESS), hi
        finally:
            robin._floor_threshold.cache_clear()

    def test_sweep_builds_no_interval_and_compares_nothing(self,
                                                           monkeypatch):
        # once the floor memo holds the sweep's keys, every prime power
        # is decided on ints
        theorems.verify_prime_powers(10 ** 5)
        built, compared = [], []
        real_init = RealInterval.__init__

        def counted_init(self, *args):
            built.append(args)
            real_init(self, *args)

        def counted_compare(lhs, rhs):
            compared.append((lhs, rhs))
            return compare(lhs, rhs)

        monkeypatch.setattr(RealInterval, "__init__", counted_init)
        monkeypatch.setattr(robin, "compare", counted_compare)
        results = theorems.verify_prime_powers(10 ** 5)
        assert len(results) == 8983
        assert {r.verdict for r in results} == {robin.Verdict.SATISFIED}
        assert built == [] and compared == []
        # the seams count: one check that reaches decide trips both
        robin.check(primes.factorize(5040))
        assert built and compared

    def test_sweep_runs_no_log_n(self, monkeypatch):
        calls = []
        real = robin.log_n

        def counted(f, bits):
            calls.append(f)
            return real(f, bits)

        robin._LN_PRIME_CACHE.clear()
        monkeypatch.setattr(robin, "log_n", counted)
        results = theorems.verify_prime_powers(10 ** 5)
        assert len(results) == 8983 and calls == []
        for r in results:
            eager = oracles.eager_check(r.factorization, DEFAULT_PRECISION)
            assert r.rhs == eager.rhs, r.factorization


def _slots(record):
    """Every field of a dataclass record, the lazy ``_lhs``/``_rhs`` too."""
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


class TestRecords:
    """``CheckResult`` and ``Factorization.from_canonical`` fill their
    slots through the slots' own setters; the records behave as the
    dataclass's generated ``__init__`` made them."""

    @staticmethod
    def _results():
        fs = [primes.factorize(n) for n in (5041, 5040, 720720, 12, 2)]
        fs.append(primes.primorial_factorization(200))
        for f in fs:
            for bits in (4, 53, 212):
                cfg = PrecisionConfig(start_bits=bits)
                yield robin.check(f, cfg), oracles.eager_check(f, cfg)

    def test_check_results_equal_the_eager_oracle(self):
        for r, eager in self._results():
            assert r == eager and hash(r) == hash(eager), r
            assert repr(r) == repr(eager)
            back = pickle.loads(pickle.dumps(r))
            assert back == eager and hash(back) == hash(eager)
            assert _slots(back) == _slots(r)
            # the constructor against the oracle's, slot by slot
            values = _slots(eager)
            built = robin.CheckResult(*values)
            assert _slots(built) == values
            assert _slots(robin.CheckResult(**{
                f.name: v for f, v in zip(dataclasses.fields(eager),
                                          values)})) == values
            assert (_slots(oracles.frozen_record(robin.CheckResult,
                                                 *values[:5]))
                    == _slots(robin.CheckResult(*values[:5])))

    def test_check_result_replace_and_frozen(self):
        r = robin.check_n(5041)
        moved = dataclasses.replace(r, precision_used=106, reason="x")
        assert _slots(moved) == (r.factorization, ..., ..., r.verdict, 106,
                                 "x")
        assert moved == oracles.frozen_record(
            robin.CheckResult, r.factorization, None, None, r.verdict, 106,
            "x")
        for name in ("verdict", "_lhs", "reason"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, None)
        assert r.reason is None and r._lhs is ...

    @pytest.mark.parametrize("entries", [
        ((2, 1),), ((2, 4), (3, 2), (5, 1), (7, 1)), ((71, 2),),
        tuple((p, 1) for p in _PRIMES_BELOW_200),
    ])
    def test_from_canonical_equals_the_validated_constructor(self, entries):
        f = Factorization.from_canonical(entries)
        g = Factorization(entries)
        assert f.entries is entries
        assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
        assert pickle.loads(pickle.dumps(f)) == g
        assert dataclasses.replace(f) == g
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.entries = ()
