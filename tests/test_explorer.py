"""Scanner vs brute-force oracle, the primorial table, the conjecture-2 search."""

import decimal
import functools
import itertools
import math
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from math import gcd, isqrt, prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robincheck import explorer, intervals, output, primes, robin
from robincheck.factorization import (Factorization, sigma_int,
                                      sigma_over_n_fp, sigma_over_n_fraction)
from robincheck.intervals import _GUARD, DEFAULT_PRECISION, InvalidInput
from robincheck.robin import Verdict

import oracles

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "violators_2_5040.csv")


def scan_golden_projection(report: explorer.ScanReport) -> str:
    """Scanner violations rendered in the oracle-comparable column set."""
    lines = [oracles.GOLDEN_HEADER]
    for n, result in report.violations:
        sig = sigma_int(result.factorization)
        lines.append(f"{n},{sig},{result.lhs.numerator},"
                     f"{result.lhs.denominator},{result.reason}")
    return "\n".join(lines) + "\n"


class TestScanGolden:
    def test_matches_frozen_golden_file_byte_for_byte(self):
        report = explorer.scan_range(2, 5040)
        with open(GOLDEN_PATH) as fh:
            golden = fh.read()
        assert scan_golden_projection(report) == golden

    def test_frozen_file_matches_regenerated_oracle(self):
        rows = oracles.golden_violator_rows(2, 5040)
        regenerated = oracles.GOLDEN_HEADER + "\n" + "\n".join(rows) + "\n"
        with open(GOLDEN_PATH) as fh:
            assert fh.read() == regenerated

    def test_contains_5040_not_5041(self):
        report = explorer.scan_range(2, 5041)
        violators = {n for n, _ in report.violations}
        assert 5040 in violators
        assert 5041 not in violators

    def test_single_point_5041(self):
        report = explorer.scan_range(5041, 5041)
        assert report.violations == ()
        assert report.indeterminates == ()
        assert report.checked_count == 1

    def test_exact_path_stays_cold_from_2(self, monkeypatch):
        checked = []

        def counting_check(f, cfg):
            checked.append(f)
            return robin.check(f, cfg)

        monkeypatch.setattr(explorer, "check", counting_check)
        report = explorer.scan_range(2, 5040)
        assert len(report.violations) == 27
        # the 27 violators plus a few near misses; every other n is
        # certified by the block filter
        assert len(checked) <= 64

    def test_segment_returns_the_unsatisfied_pairs_ascending(self,
                                                             monkeypatch):
        flagged = explorer._scan_segment(2, 5041, DEFAULT_PRECISION)
        assert flagged == list(explorer.scan_range(2, 5040).violations)
        # forced overlaps leave n = 2 violated and every other candidate
        # undecided: one list, ascending, with both verdicts (the floors
        # decide on ints, apart from compare, so they are turned off)
        monkeypatch.setattr(robin, "_below_floor", lambda hi, x, bits: False)
        monkeypatch.setattr(robin, "compare",
                            lambda lhs, rhs: intervals.Comparison.OVERLAPPING)
        flagged = explorer._scan_segment(2, 5041, DEFAULT_PRECISION)
        ns = [n for n, _ in flagged]
        assert ns == sorted(set(ns)) and ns[0] == 2 and 5040 in ns
        assert {r.verdict for _, r in flagged} == {Verdict.VIOLATED,
                                                   Verdict.INDETERMINATE}
        assert [(n, r.verdict) for n, r in flagged if n > 2] == [
            (n, Verdict.INDETERMINATE) for n in ns[1:]]

    def test_block_threshold_zero_below_e(self):
        # ln 2 < 1: no RHS bound at t = 2, so its whole block is checked
        assert explorer._rhs_floor_scaled(2, 53) == 0
        assert explorer._rhs_floor_scaled(3, 53) > 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            explorer.scan_range(10, 2)
        with pytest.raises(ValueError):
            explorer.scan_range(1, 10)

    @pytest.mark.parametrize("worker_count", [-3, 0])
    @pytest.mark.parametrize("entry", [
        functools.partial(explorer.scan_range, 2, 300),
    ], ids=["scan_range"])
    def test_worker_count_below_one_refused(self, entry, worker_count,
                                            monkeypatch):
        # the scan runs in one process and ignores a valid worker_count,
        # but a bad one is still refused before any work
        def no_check(f, cfg):
            raise AssertionError("work started before the refusal")

        monkeypatch.setattr(explorer, "check", no_check)
        with pytest.raises(InvalidInput, match="worker_count"):
            entry(worker_count=worker_count)


class TestScanDeterminism:
    def test_byte_identical_across_worker_counts(self, monkeypatch):
        monkeypatch.setattr(explorer, "SEGMENT_SIZE", 1 << 14)
        reports = {}
        for workers in (1, 4, 8):
            rep = explorer.scan_range(2, 120_000, worker_count=workers)
            reports[workers] = scan_golden_projection(rep)
        assert reports[1] == reports[4] == reports[8]

    def test_segment_size_does_not_change_results(self, monkeypatch):
        b = explorer.scan_range(2, 30_000)  # one 2^20 window
        monkeypatch.setattr(explorer, "SEGMENT_SIZE", 1 << 12)
        a = explorer.scan_range(2, 30_000)
        assert [n for n, _ in a.violations] == [n for n, _ in b.violations]


class TestScanOracleEquivalence:
    def test_verdicts_match_naive_checker_to_1e5(self):
        limit = 10**5
        sig = oracles.sigma_sieve(limit)
        report = explorer.scan_range(2, limit)
        scanner_violators = {n for n, _ in report.violations}
        assert report.indeterminates == ()
        for n in range(2, limit + 1):
            verdict = oracles.naive_verdict(n, sig[n])
            if verdict == "close":  # oracle margin too thin: certified path
                verdict = ("violated"
                           if robin.check_n(n).verdict is Verdict.VIOLATED
                           else "satisfied")
            assert (n in scanner_violators) == (verdict == "violated"), n

    def test_sigma_segment_matches_naive_sieve(self):
        # P = isqrt(3000) = 54: s by trial division, sigma(s) from the
        # naive divisor sieve
        sig = oracles.sigma_sieve(3000)
        seg, smooth = explorer._sigma_segment(1000, 3001)
        for n in range(1000, 3001):
            s = oracles.smooth_part_sigma(n, 54)[1]
            got = int(seg[n - 1000]), int(smooth[n - 1000])
            assert got == (sig[s], s), n


def smooth_limit(b):
    """P of a window ending at b, as the scanner documents it."""
    return min(explorer._SMOOTH_MAX, isqrt(b - 1))


def assert_sigma_segment_exact(a, b):
    """(sigma(s), s) of every n in [a, b) against trial division to P."""
    seg, smooth = explorer._sigma_segment(a, b)
    assert seg.dtype == smooth.dtype == "int64"
    assert seg.size == smooth.size == b - a
    P = smooth_limit(b)
    for n in range(a, b):
        got = int(seg[n - a]), int(smooth[n - a])
        assert got == oracles.smooth_part_sigma(n, P), n


class TestSigmaSegment:
    def test_top_segment_ending_at_max_scan_hi(self):
        hi = explorer.MAX_SCAN_HI
        assert_sigma_segment_exact(hi - 4095, hi + 1)

    @pytest.mark.parametrize("a", [1, 2])
    def test_segment_starting_at_1_and_2(self, a):
        assert_sigma_segment_exact(a, a + 5000)

    def test_segment_narrower_than_largest_sieving_prime(self):
        # the sieving primes 101 to 127 exceed the width, and some have no
        # multiple inside
        a = 10**12 - 10**6
        assert_sigma_segment_exact(a, a + 97)

    @pytest.mark.parametrize("pk", [2**39, 3**25, 5**17, 7**14, 11**11,
                                    997**4])
    def test_segment_containing_high_prime_power(self, pk):
        assert_sigma_segment_exact(pk - 300, pk + 300)

    @pytest.mark.parametrize("p, k", [(1031, 3), (9973, 3), (999983, 2)])
    def test_full_window_with_big_prime_power(self, p, k):
        # p > _SMOOTH_MAX: p^k is left out of s, whole
        pk = p ** k
        rng = random.Random(pk)
        a = pk - rng.randrange(explorer.SEGMENT_SIZE)
        b = a + explorer.SEGMENT_SIZE
        seg, smooth = explorer._sigma_segment(a, b)
        assert (int(seg[pk - a]), int(smooth[pk - a])) == (1, 1)
        P = smooth_limit(b)
        assert P == explorer._SMOOTH_MAX < p
        for n in rng.sample(range(a, b), 256):
            got = int(seg[n - a]), int(smooth[n - a])
            assert got == oracles.smooth_part_sigma(n, P), n

    def test_peak_memory_of_a_window_at_1e11(self):
        a, b = 10**11, 10**11 + 2**20
        # grow the shared prime source first: the peak is the sieve's own
        explorer._sigma_segment(a, a + 1000)
        tracemalloc.start()
        try:
            explorer._sigma_segment(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two result arrays: 2.00 of them measured
        assert peak <= 2.125 * 8 * (b - a)

    def test_peak_memory_of_a_fresh_interpreters_first_window(self):
        # the first window of a process allocates no more than any other:
        # two result arrays, nothing built and kept for later windows
        a, b = 2, explorer._COVER_FROM
        code = (
            "import tracemalloc\n"
            "from robincheck import explorer, primes\n"
            "primes.primes_up_to(1000)\n"
            "tracemalloc.start()\n"
            f"explorer._sigma_segment({a}, {b})\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert int(proc.stdout) <= 2.125 * 8 * (b - a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12),
           st.integers(min_value=1, max_value=4096))
    def test_matches_factorize_on_random_windows(self, a, width):
        # s is the product of the prime powers of factorize(n) up to P
        b = min(a + width, explorer.MAX_SCAN_HI + 1)
        seg, smooth = explorer._sigma_segment(a, b)
        P = smooth_limit(b)
        for n in range(a, b):
            sig = s = 1
            for p, k in primes.factorize(n).entries if n > 1 else ():
                if p <= P:
                    sig *= (p ** (k + 1) - 1) // (p - 1)
                    s *= p ** k
            assert (int(seg[n - a]), int(smooth[n - a])) == (sig, s), n


def assert_sigma_segment_sampled(a, b, extra=()):
    """``assert_sigma_segment_exact`` on 256 random n of [a, b) and extra."""
    seg, smooth = explorer._sigma_segment(a, b)
    P = smooth_limit(b)
    rng = random.Random(a)
    for n in itertools.chain(rng.sample(range(a, b), 256), extra):
        got = int(seg[n - a]), int(smooth[n - a])
        assert got == oracles.smooth_part_sigma(n, P), n


# 2^5 3^2 5 7 11 and its exponents c_p: windows at each residue mod _L
# and around multiples of p^(c_p + 1) to p^(c_p + 4) take the sigma
# array's exact division through several powers of each p
_L = 110_880
_CAPS = {2: 5, 3: 2, 5: 1, 7: 1, 11: 1}


class TestWheel:
    # L - 1500: the 3000 n straddle a period boundary in their middle
    @pytest.mark.parametrize("r", [0, 1, _L - 1500, _L - 1])
    @pytest.mark.parametrize("q", [9000, 9_000_000])
    def test_windows_at_each_residue(self, r, q):
        a = q * _L + r
        assert_sigma_segment_exact(a, a + 3000)
        # wider than L: three period boundaries inside
        edges = [a + k * _L - a % _L + d for k in (1, 2, 3) for d in (-1, 0, 1)]
        assert_sigma_segment_sampled(a, a + explorer.SEGMENT_SIZE, edges)

    @pytest.mark.parametrize("a, b", [(2, 121), (60, 121), (2, 50), (2, 49),
                                      (2, 26), (2, 10), (2, 4), (1, 121)])
    def test_tiny_windows_use_only_primes_up_to_p(self, a, b):
        # P = isqrt(b - 1) < 11 here, down to 1, where no prime is sieved
        assert smooth_limit(b) < 11
        assert_sigma_segment_exact(a, b)

    @pytest.mark.parametrize("p", list(_CAPS))
    def test_multiples_of_powers_above_the_cap(self, p):
        # p^(c_p + 1), ..., p^(c_p + 4) times a cofactor prime to p
        c = _CAPS[p]
        for e in range(c + 1, c + 5):
            n = p ** e * (10**9 // p ** e // p * p + 1)
            assert_sigma_segment_exact(n - 200, n + 200)


_ABOVE_128 = (131, 137, 139, 149, 151)
_BOUND_WINDOWS = {
    # the scan_range grid of 4096-wide segments: P from 64 to 128
    "every_n_to_5e4": [(a, min(a + 4096, 50_001))
                       for a in range(2, 50_001, 4096)],
    "top_4096": [(explorer.MAX_SCAN_HI - 4095, explorer.MAX_SCAN_HI + 1)],
    # 600 n around the product of the j smallest primes above 128,
    # j = 1..5, which holds j primes just above P: the tightest case
    "products_above_128": [(max(q - 300, 2), q + 300) for q in (
        prod(_ABOVE_128[:j]) for j in range(1, 6))],
}


class TestSmoothBound:
    @pytest.mark.parametrize("name", list(_BOUND_WINDOWS))
    def test_bound_by_brute_force(self, name, monkeypatch):
        for a, b in _BOUND_WINDOWS[name]:
            sigma_n = {n: sigma_int(primes.factorize(n)) for n in range(a, b)}
            seg, smooth = explorer._sigma_segment(a, b)
            P, down, up = explorer._smooth_bound(b)
            k = 0
            while (P + 1) ** (k + 1) <= b - 1:
                k += 1
            assert (P, down, up) == (smooth_limit(b), P ** k, (P + 1) ** k)
            if name == "products_above_128":
                # the product's own primes are all above P, k of them
                q = b - 300
                assert int(smooth[q - a]) == 1 and up <= q < up * (P + 1)
            # sigma(n)/n <= sigma(s)/s * ((P+1)/P)^k, on integers
            for n in range(a, b):
                assert (sigma_n[n] * down * int(smooth[n - a])
                        <= int(seg[n - a]) * up * n), n

            # the filter at each n's own floor(sigma(n)/n * 2^16), the
            # tightest threshold the bound allows, must flag every n
            flagged = types.SimpleNamespace(verdict=Verdict.VIOLATED)
            with monkeypatch.context() as m:
                m.setattr(explorer, "_BLOCK", 1)
                m.setattr(explorer, "_rhs_floor_scaled", lambda t, bits: (
                    sigma_n[t] << explorer._THR_SHIFT) // t)
                m.setattr(primes, "factorize", int)
                m.setattr(explorer, "check", lambda n, cfg: flagged)
                pairs = explorer._scan_segment(a, b, DEFAULT_PRECISION)
            assert [n for n, _ in pairs] == list(range(a, b))


class TestScanRangeEnd:
    def test_top_block_at_max_scan_hi(self):
        # int64 headroom of the block filter at the end of the supported
        # range: sigma(s) << 16 and thr' * s <= thr * n must both stay
        # below 2^63
        hi = explorer.MAX_SCAN_HI
        lo = hi - 4095
        rep = explorer.scan_range(lo, hi)  # a covered window: no sieve
        assert rep.violations == () and rep.indeterminates == ()
        assert rep.checked_count == 4096
        assert explorer._scan_segment(lo, hi + 1, DEFAULT_PRECISION) == []
        sig, smooth = explorer._sigma_segment(lo, hi + 1)
        thr = explorer._rhs_floor_scaled(lo, 53)
        assert int(sig.max()) << explorer._THR_SHIFT < 2**63
        assert thr * hi < 2**63
        assert 1 <= int(smooth.min()) and int(smooth.max()) <= hi
        P = smooth_limit(hi + 1)
        rng = random.Random(20121)
        for n in rng.sample(range(lo, hi + 1), 64):
            got = int(sig[n - lo]), int(smooth[n - lo])
            assert got == oracles.smooth_part_sigma(n, P), n
            f = primes.factorize(n)
            assert robin.check(f).verdict is Verdict.SATISFIED, n

    def test_top_window_sieves_no_prime_above_smooth_max(self, monkeypatch):
        # a fresh prime source sieves to 2^16 on its first call; sieving
        # to sqrt(10^12) would have grown it to 10^6
        monkeypatch.setattr(primes, "_SOURCE", primes._PrimeSource())
        hi = explorer.MAX_SCAN_HI
        flagged = explorer._scan_segment(hi - 4095, hi + 1, DEFAULT_PRECISION)
        assert flagged == []
        assert primes._SOURCE._limit == 1 << 16

    def test_segments_are_not_built_ahead(self):
        # 953,675 segments of 2^20 up to 10^12; none exists before it runs
        tracemalloc.start()
        try:
            it = explorer.iter_scan_results(2, explorer.MAX_SCAN_HI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        it.close()
        assert peak < 1 << 20


def _hr_of(n: int, plist) -> int:
    """n's exponents sorted non-increasing on the first primes."""
    ks = sorted((e for _, e in primes.factorize(n).entries), reverse=True)
    return prod(p ** k for p, k in zip(plist, ks))


class TestCoverReduction:
    """Each step of ``_cover_bound``'s argument, by brute force."""

    def test_substitution_and_exchange_to_1e5(self):
        sig = oracles.sigma_sieve(10 ** 5)
        plist = oracles.naive_prime_list(50)
        for n in range(5041, 10 ** 5 + 1):
            h = _hr_of(n, plist)
            assert h <= n, n
            assert Fraction(sig[h], h) >= Fraction(sig[n], n), n
            assert h > 5040 or Fraction(sig[n], n) <= Fraction(403, 105), n

    def test_5040_beats_every_smaller_m(self):
        sig = oracles.sigma_sieve(5040)
        assert Fraction(sig[5040], 5040) == explorer._SIGMA_OVER_N_5040
        for m in range(1, 5040):
            assert Fraction(sig[m], m) < explorer._SIGMA_OVER_N_5040, m

    @pytest.mark.parametrize("bits", [24, 53, 128])
    def test_crossing_between_5582_and_5583(self, bits):
        x = explorer._SIGMA_OVER_N_5040
        below = robin.robin_rhs(primes.factorize(5582), bits)
        above = robin.robin_rhs(primes.factorize(explorer._COVER_FROM), bits)
        assert intervals.compare(x, below) is not intervals.Comparison.LESS
        assert intervals.compare(x, above) is intervals.Comparison.LESS


_W = DEFAULT_PRECISION.start_bits + _GUARD


def _hr_walk(X, prune=None):
    """``_cover_bound``'s walk: the HR integers n <= X, at _W."""
    return explorer._hr_walk(explorer._hr_primes(X), _W, X.bit_length() - 1,
                             True, prune, X=X)


class TestHrWalk:
    def test_walk_is_the_oracle_set_to_1e12(self):
        walk = list(_hr_walk(10 ** 12))
        assert all(n == Factorization(e).n() for e, n, *_ in walk)
        got = [n for _, n, *_ in walk if n > 5040]
        assert len(got) == len(set(got)) == 4290
        assert set(got) == {h for h in oracles.hr_integers(10 ** 12)
                             if h > 5040}

    def test_inclusion_is_exact_at_hr_integers(self):
        hr = sorted(oracles.hr_integers(10 ** 12))
        rng = random.Random(3101)
        for h in [2, 5040, 55440, hr[-1]] + rng.sample(hr, 24):
            for x in (h, h - 1):
                assert ({node[1] for node in _hr_walk(x)}
                        == oracles.hr_integers(x)), x

    def test_carried_state_is_what_check_computes_to_1e12(self):
        start = DEFAULT_PRECISION.start_bits
        for entries, n, hi, ln_lo, ln_hi in _hr_walk(10 ** 12):
            f = Factorization(entries)
            assert hi == sigma_over_n_fp(f, _W)[1], n
            assert (ln_lo, ln_hi) == robin.log_n(f, start), n


def _bit_length_sum(entries) -> int:
    """B = sum k (bit_length(p) - 1), so n >= 2**B."""
    return sum(k * (p.bit_length() - 1) for p, k in entries)


def _hr_entries(d: int) -> tuple[tuple[int, int], ...]:
    """The entries of an HR integer d, by division on the first primes."""
    entries = []
    for p in oracles.naive_prime_list(100):
        if d == 1:
            return tuple(entries)
        k = 0
        while d % p == 0:
            d //= p
            k += 1
        entries.append((p, k))
    raise AssertionError("not an HR integer below 2 * 10^36")


class TestSubtreeLayers:
    @staticmethod
    def spied_cover_bound(monkeypatch, hi):
        """The walked n and each pruned n's layers, of one cover bound."""
        walked, layers = set(), {}
        real_walk, real_layers = explorer._hr_walk, explorer._subtree_layers

        def walk(*args, **kwargs):
            for node in real_walk(*args, **kwargs):
                walked.add(node[1])
                yield node

        def subtree_layers(s_hi, n, *rest):
            layers[n] = []
            for layer in real_layers(s_hi, n, *rest):
                layers[n].append(layer)
                yield layer

        monkeypatch.setattr(explorer, "_hr_walk", walk)
        monkeypatch.setattr(explorer, "_subtree_layers", subtree_layers)
        bound = explorer._cover_bound(hi, DEFAULT_PRECISION)
        return bound, walked, layers

    @pytest.mark.parametrize("D, least_skipped", [(12, 3000), (20, 50_000)])
    def test_skipped_hr_integers_lie_inside_their_layer(
            self, monkeypatch, D, least_skipped):
        # every HR integer d > 5040 the walk does not hand out lies under
        # a pruned ancestor h, its deepest one handed out.  With j more
        # primes than h, d >= h P_j, and d's own hi and ln_lo are on the
        # floor's side of layer j's U_j and ln_lo_j
        hi = 10 ** D
        bound, walked, layers = self.spied_cover_bound(monkeypatch, hi)
        assert bound == hi + 1
        skipped = [d for d in oracles.hr_integers(hi)
                   if d > 5040 and d not in walked]
        assert len(skipped) > least_skipped
        start = DEFAULT_PRECISION.start_bits
        for d in skipped:
            entries = _hr_entries(d)
            r = next(r for r in range(len(entries) - 1, 0, -1)
                     if prod(p ** k for p, k in entries[:r]) in walked)
            h = prod(p ** k for p, k in entries[:r])
            j = len(entries) - r
            assert len(layers[h]) >= j, d
            hP, U, ln_lo = layers[h][j - 1]
            f = Factorization.from_canonical(entries)
            assert d >= hP == h * prod(p for p, _ in entries[r:]), d
            assert sigma_over_n_fp(f, _W)[1] <= U, d
            assert robin.log_n(f, start)[0] >= ln_lo, d

    @staticmethod
    def floor_calls(monkeypatch):
        """(B, hi, ln_lo, bits) per ``explorer._below_floor`` call.

        B is ``_bit_length_sum`` of n for a node that ``_unsatisfied``
        decides, and of h P_j for layer j of a subtree the prune tests.
        """
        calls, now = [], []
        real_task = explorer._unsatisfied
        real_layers = explorer._subtree_layers

        def task(cfg, node, j=None):
            entries = node[0] if j is None else explorer._bumped(node[0], j)
            now[:] = [_bit_length_sum(entries)]
            return real_task(cfg, node, j)

        def subtree_layers(s_hi, n, ln_lo, tail, X):
            entries = _hr_entries(n)
            for (p, _), layer in zip(tail, real_layers(s_hi, n, ln_lo, tail,
                                                        X)):
                entries += ((p, 1),)
                now[:] = [_bit_length_sum(entries)]
                yield layer

        def floor(hi, ln_lo, bits):
            calls.append((now.pop(), hi, ln_lo, bits))
            return robin._below_floor(hi, ln_lo, bits)

        monkeypatch.setattr(explorer, "_unsatisfied", task)
        monkeypatch.setattr(explorer, "_subtree_layers", subtree_layers)
        monkeypatch.setattr(explorer, "_below_floor", floor)
        return calls

    def test_dropped_bit_length_floor_never_decided_alone(self, monkeypatch):
        # wherever check's floor at B ln 2 puts an hi that the walk or the
        # search asks about below it, the ln n floor does too
        calls = self.floor_calls(monkeypatch)
        for D in (12, 20):
            assert (explorer._cover_bound(10 ** D, DEFAULT_PRECISION)
                    == 10 ** D + 1)
        for non_increasing in (True, False):
            explorer.conjecture32_search(9, 6, Fraction("27.631021"),
                                         non_increasing_only=non_increasing)
        ln2_lo = intervals._ln2_fp(_W)[0]
        by_bits = 0
        for B, hi, ln_lo, bits in calls:
            if robin._below_floor(hi, B * ln2_lo, bits):
                by_bits += 1
                assert robin._below_floor(hi, ln_lo, bits), (B, hi, ln_lo)
        assert len(calls) > 55_000 and by_bits > 50_000


class TestCoverBoundPins:
    """The layered walk's bound, and how few nodes it takes."""

    @pytest.mark.parametrize("D", [12, 20, 30, 50])
    def test_bound_at_10_to_the_D(self, D):
        # every HR integer up to 10^D is certified satisfied
        assert explorer._cover_bound(10 ** D, DEFAULT_PRECISION) == 10 ** D + 1

    # the single subtree bound walked 1,578 and 81,317 nodes, and the
    # layered one 388 and 1,989 while it pruned no h <= 5040
    @pytest.mark.parametrize("D, count", [(12, 365), (30, 1966)])
    def test_node_count_ceiling(self, monkeypatch, D, count):
        bound, walked, _ = TestSubtreeLayers.spied_cover_bound(monkeypatch,
                                                                10 ** D)
        assert bound == 10 ** D + 1
        assert len(walked) == count


def _windows(lo, hi, size):
    return [(a, min(a + size, hi + 1)) for a in range(lo, hi + 1, size)]


def _stretch_windows(lo, hi, size, bound):
    """The windows a scan with cover bound ``bound`` sieves.

    [lo, 5582] and [max(lo, 5583, bound), hi], each cut from its own
    start into windows of size n, the last one ending at its end.
    """
    return (_windows(lo, min(hi, 5582), size)
            + _windows(max(lo, 5583, bound), hi, size))


class TestCoveredWindows:
    LO, HI, SIZE = 2, 60_000, 4096
    H0 = 25_920  # 2^6 3^4 5, whose ancestor 5184 = 2^6 3^4 may skip it

    @staticmethod
    def spy_sieve(monkeypatch):
        """The (a, b) of every ``_sigma_segment`` call, in order."""
        calls = []
        real = explorer._sigma_segment

        def spy(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(explorer, "_sigma_segment", spy)
        return calls

    @pytest.fixture
    def sieved(self, monkeypatch):
        monkeypatch.setattr(explorer, "SEGMENT_SIZE", self.SIZE)
        return self.spy_sieve(monkeypatch)

    def assert_sieved_alike(self, rep):
        """rep is the concatenated per-window ``_scan_segment`` output."""
        flagged = [pair for a, b in _windows(self.LO, self.HI, self.SIZE)
                   for pair in explorer._scan_segment(a, b,
                                                      DEFAULT_PRECISION)]
        assert list(rep.violations) == [
            (n, r) for n, r in flagged if r.verdict is Verdict.VIOLATED]
        assert list(rep.indeterminates) == [
            n for n, r in flagged if r.verdict is not Verdict.VIOLATED]

    def test_only_windows_below_5583_are_sieved(self, sieved):
        rep = explorer.scan_range(self.LO, self.HI)
        assert sieved == _stretch_windows(self.LO, self.HI, self.SIZE,
                                          self.HI + 1)
        self.assert_sieved_alike(rep)

    def test_unsatisfied_hr_integer_sieves_the_windows_past_it(
            self, sieved, monkeypatch):
        # h0 fails the walk's node decision, and no ancestor of it may
        # skip it by its subtree layers
        real, real_layers = explorer._unsatisfied, explorer._subtree_layers

        def decision(cfg, node, j=None):
            entries, n, *_ = node
            if n != self.H0:
                return real(cfg, node, j)
            return robin.CheckResult(Factorization(entries), ..., ...,
                                     Verdict.INDETERMINATE, cfg.start_bits)

        monkeypatch.setattr(explorer, "_unsatisfied", decision)
        # unpatched, an ancestor's layers skip h0, so it is never decided
        assert (explorer._cover_bound(self.HI, DEFAULT_PRECISION)
                == self.HI + 1)
        monkeypatch.setattr(explorer, "_subtree_layers", lambda s_hi, n, *a: (
            real_layers(1 << 1000 if self.H0 % n == 0 else s_hi, n, *a)))
        assert explorer._cover_bound(self.HI, DEFAULT_PRECISION) == self.H0
        rep = explorer.scan_range(self.LO, self.HI)
        assert sieved == _stretch_windows(self.LO, self.HI, self.SIZE,
                                          self.H0)
        self.assert_sieved_alike(rep)

    def test_undecided_small_case_covers_nothing(self, sieved, monkeypatch):
        monkeypatch.setattr(explorer, "decide", lambda lhs, rhs_at, cfg: (
            intervals.Comparison.OVERLAPPING, None, cfg.start_bits))
        assert explorer._cover_bound(self.HI, DEFAULT_PRECISION) == 0
        rep = explorer.scan_range(self.LO, self.HI)
        assert sieved == _stretch_windows(self.LO, self.HI, self.SIZE, 0)
        self.assert_sieved_alike(rep)

    def test_scan_to_the_top_sieves_only_below_5583(self, monkeypatch):
        calls = self.spy_sieve(monkeypatch)
        rep = explorer.scan_range(2, explorer.MAX_SCAN_HI)
        assert calls == [(2, explorer._COVER_FROM)]
        assert len(rep.violations) == 27 and rep.indeterminates == ()

    def test_covered_scan_yields_no_window(self):
        assert list(explorer.iter_scan_results(
            explorer._COVER_FROM, explorer.MAX_SCAN_HI)) == []

    @pytest.mark.parametrize("bits, bound, want", [
        (16, 0, [(2, 5583), (5583, 9001)]),
        (17, 9001, [(2, 5583)]),
    ])
    def test_ladders_to_16_bits_sieve_past_5583(self, monkeypatch, bits,
                                                bound, want):
        # below 17 bits decide leaves 403/105 < e^gamma ln ln 5583 open
        cfg = intervals.PrecisionConfig(bits, bits)
        assert explorer._cover_bound(9000, cfg) == bound
        calls = self.spy_sieve(monkeypatch)
        explorer.scan_range(2, 9000, cfg)
        assert calls == want

    def test_ladders_from_17_bits_sieve_nothing_past_5583(self):
        # the 16-bit side is the [16-0] case above
        cfg = intervals.PrecisionConfig(17, 17)
        assert (explorer._cover_bound(explorer.MAX_SCAN_HI, cfg)
                == explorer.MAX_SCAN_HI + 1)

    def test_worker_counts_agree_across_5583(self, monkeypatch):
        monkeypatch.setattr(explorer, "SEGMENT_SIZE", 2048)
        assert (explorer.scan_range(2, 30_000, worker_count=2)
                == explorer.scan_range(2, 30_000, worker_count=1))

    @pytest.mark.parametrize("size", [1000, 4096])
    @pytest.mark.parametrize("bound", [0, 5040, 5583, 6000, 8191, 8192,
                                       8193, 27_720, HI, HI + 1])
    def test_sieved_windows_are_those_not_covered(self, monkeypatch, size,
                                                  bound):
        monkeypatch.setattr(explorer, "SEGMENT_SIZE", size)
        monkeypatch.setattr(explorer, "_cover_bound", lambda hi, cfg: bound)
        calls = []
        monkeypatch.setattr(explorer, "_scan_segment", lambda a, b, cfg: (
            calls.append((a, b)) or [(a, None)]))
        got = list(explorer.iter_scan_results(self.LO, self.HI))
        want = _stretch_windows(self.LO, self.HI, size, bound)
        assert calls == want
        assert got == [[(a, None)] for a, _ in want]

    def test_covered_scan_starts_no_pool(self, monkeypatch):
        def pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        lo, hi = 10 ** 9, 10 ** 9 + 2 ** 21 - 1  # two covered windows
        rep = explorer.scan_range(lo, hi, worker_count=2)
        assert (rep.lo, rep.hi, rep.checked_count) == (lo, hi, hi - lo + 1)
        assert rep.violations == () and rep.indeterminates == ()


class TestPrecisionStability:
    def test_verdicts_identical_at_24_53_128_start_bits(self):
        from robincheck.intervals import PrecisionConfig
        baselines = None
        for bits in (24, 53, 128):
            cfg = PrecisionConfig(start_bits=bits)
            rep = explorer.scan_range(2, 10**5, cfg=cfg, worker_count=4)
            key = ([n for n, _ in rep.violations], list(rep.indeterminates))
            if baselines is None:
                baselines = key
            else:
                assert key == baselines, bits


class TestConjecture31Table:
    def test_row_values(self):
        rows = explorer.conjecture31_table(10)
        assert len(rows) == 10
        assert rows[1].q_num == 2 and rows[1].q_den == 1
        assert Fraction(rows[8].q_num, rows[8].q_den) == Fraction(3981312, 1062347)
        assert [r.m for r in rows] == list(range(1, 11))

    def test_m1_alpha_undefined_marker(self):
        rows = explorer.conjecture31_table(1)
        assert len(rows) == 1
        assert rows[0].alpha is None and rows[0].ratio is None

    def test_first_exceed_at_m6(self):
        rows = explorer.conjecture31_table(8)
        assert [r.n_exceeds_5040 for r in rows] == [
            False, False, False, False, False, True, True, True]

    def test_q_strictly_increasing_exact(self):
        rows = explorer.conjecture31_table(300)
        for a, b in zip(rows, rows[1:]):
            assert a.q_num * b.q_den < b.q_num * a.q_den

    def test_alpha_strictly_increasing_certified(self):
        rows = explorer.conjecture31_table(300)
        for a, b in zip(rows[1:], rows[2:]):
            assert b.alpha.lo.as_fraction() > a.alpha.hi.as_fraction()

    def test_q_matches_independent_product(self):
        rows = explorer.conjecture31_table(200)
        for m in (1, 7, 50, 200):
            q = Fraction(1)
            for p in primes.first_primes(m):
                q *= Fraction(p + 1, p)
            assert Fraction(rows[m - 1].q_num, rows[m - 1].q_den) == q

    def test_alpha_and_ratio_contain_oracle(self):
        rows = explorer.conjecture31_table(500)
        mpmath.mp.dps = 60
        plist = list(primes.primes_up_to(10**4))
        for m in (2, 10, 100, 500):
            row = rows[m - 1]
            s = mpmath.fsum(mpmath.log(p) for p in plist[:m])
            alpha = mpmath.exp(mpmath.mp.euler) * mpmath.log(s)
            assert oracles.interval_contains_mp(row.alpha, alpha)
            q = Fraction(row.q_num, row.q_den)
            ratio = alpha / oracles.mp_of_fraction(q)
            assert oracles.interval_contains_mp(row.ratio, ratio)

    def test_undecided_rows_rerun_ln_primorial(self, monkeypatch):
        # a lower bound 2^-40 below ln p leaves every row's first
        # enclosure wider than two grid steps, so its rounding is
        # undecided and ln(p_m#) is recomputed at more guard bits
        want = explorer.conjecture31_table(300)
        ln_prime, primorial_log = explorer._ln_prime_fp, explorer._primorial_log
        reruns = []

        def wide(p, W):
            L, H = ln_prime(p, W)
            return L - (L >> 40), H

        def counting(m, bits):
            reruns.append(m)
            return primorial_log(m, bits)

        monkeypatch.setattr(explorer, "_ln_prime_fp", wide)
        monkeypatch.setattr(explorer, "_primorial_log", counting)
        assert explorer.conjecture31_table(300) == want
        assert reruns == list(range(2, 301))  # m = 1 has no alpha

    def test_ratio_midpoints_nondecreasing(self):
        rows = explorer.conjecture31_table(2000)
        mids = [r.ratio.midpoint() for r in rows if r.ratio is not None][9:]
        for a, b in zip(mids, mids[1:]):
            assert b >= a


def _reference_walk(plist, d):
    """(p, qn, qd) of prod (p + d)/p in lowest terms, by exact gcds."""
    steps = []
    qn = qd = 1
    for p in plist:
        g1, g2 = gcd(qn, p), gcd(qd, p + d)
        qn = (qn // g1) * ((p + d) // g2)
        qd = (qd // g2) * (p // g1)
        steps.append((p, qn, qd))
    return steps


def _reference_table(m_max):
    """The primorial table with q reduced by exact gcds and ratio divided
    exactly, and the d = 1 and d = -1 walks."""
    bits = DEFAULT_PRECISION.start_bits
    W = bits + _GUARD
    plist = primes.first_primes(m_max)
    walks = {d: _reference_walk(plist, d) for d in (1, -1)}
    rows = []
    s_lo = s_hi = 0
    primorial = 1
    for m, (p, qn, qd) in enumerate(walks[1], 1):
        L, H = robin._ln_prime_fp(p, W)
        s_lo += L
        s_hi += H
        primorial *= p
        alpha = robin._rhs_from_log(s_lo, s_hi, bits)
        ratio = None if alpha is None else intervals.outward_interval(
            alpha.lo.m * qd, alpha.hi.m * qd, qn << -alpha.lo.e, W)
        rows.append(explorer.ConjectureRow(m, p, qn, qd, alpha, ratio,
                                           primorial > 5040))
    return rows, walks


class TestTableWithoutBigGcds:
    """q from bookkeeping and ratio from q's top bits equal the exact table."""

    M = 3000

    @pytest.fixture(scope="class")
    def reference(self):
        return _reference_table(self.M)

    @staticmethod
    def _count_exact_ratios(monkeypatch):
        calls = []
        exact = intervals.outward_interval

        def counting(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(intervals, "outward_interval", counting)
        return calls

    def test_q_steps_equal_the_gcds(self, reference):
        plist = primes.first_primes(self.M)
        for d in (1, -1):
            assert list(explorer.q_steps(plist, d)) == reference[1][d], d
        # the exact walk is the running product
        q = Fraction(1)
        for p, qn, qd in reference[1][-1][:50]:
            q *= Fraction(p - 1, p)
            assert (q.numerator, q.denominator) == (qn, qd)

    def test_q_steps_on_exact_decimals_give_the_same_values(self, reference):
        ctx = output.exact_context()
        plist = primes.first_primes(self.M)
        for d in (1, -1):
            walk = list(explorer.q_steps(plist, d, decimal.Decimal(1),
                                         ctx.divide_int, ctx.multiply))
            assert len(walk) == self.M
            # each row is the next one's input; the rest of the rows cost
            # a quadratic int(Decimal) each
            for m in [*range(1, 30), *range(100, self.M + 1, 100)]:
                p, qn, qd = walk[m - 1]
                assert (p, int(qn), int(qd)) == reference[1][d][m - 1], (d, m)

    def test_rows_equal_and_top_bits_decide_every_ratio(self, reference,
                                                         monkeypatch):
        exact_calls = self._count_exact_ratios(monkeypatch)
        assert explorer.conjecture31_table(self.M) == reference[0]
        assert exact_calls == []

    def test_rows_equal_when_every_ratio_falls_back(self, reference,
                                                    monkeypatch):
        monkeypatch.setattr(intervals, "_TOP_SLACK_BITS", -10 ** 6)
        exact_calls = self._count_exact_ratios(monkeypatch)
        assert explorer.conjecture31_table(self.M) == reference[0]
        assert len(exact_calls) == self.M - 1  # every row but m = 1


def _per_base_search(prime_count_max, exponent_max, log_n_max,
                     cfg=DEFAULT_PRECISION, non_increasing_only=True):
    """The search as a per-base loop: each enumerated base > 5040 is
    checked, then, if satisfied, each single-exponent increment; an n
    that is a base and an increment is checked twice."""
    log_n_max = Fraction(log_n_max)
    all_bases = explorer._enumerate_bases(
        prime_count_max, exponent_max, log_n_max, non_increasing_only,
        cfg.start_bits)
    rows, probed = [], 0
    for entries, *_ in all_bases:
        f = Factorization(entries)
        if f.n() <= 5040:
            continue
        r = explorer.check(f, cfg)
        if r.verdict is not Verdict.SATISFIED:
            rows.append((f, None, r))
            continue
        probed += 1
        for j, (p, k) in enumerate(entries):
            bumped = list(entries)
            bumped[j] = (p, k + 1)  # still canonical
            r = explorer.check(Factorization.from_canonical(tuple(bumped)),
                               cfg)
            if r.verdict is not Verdict.SATISFIED:
                rows.append((f, j, r))
    return explorer.SearchReport(prime_count_max, exponent_max, log_n_max,
                                 len(all_bases), probed, tuple(rows))


@pytest.fixture
def checked(monkeypatch):
    """The entries of every n the search checks, in call order."""
    calls = []
    real = explorer.check

    def counting(f, cfg=DEFAULT_PRECISION):
        calls.append(f.entries)
        return real(f, cfg)

    monkeypatch.setattr(explorer, "check", counting)
    return calls


@pytest.fixture
def decided(monkeypatch):
    """The entries of every n the search decides, in call order."""
    calls = []
    real = explorer._unsatisfied

    def counting(cfg, node, j=None):
        entries = node[0]
        calls.append(entries if j is None else explorer._bumped(entries, j))
        return real(cfg, node, j)

    monkeypatch.setattr(explorer, "_unsatisfied", counting)
    return calls


def _floors_off(monkeypatch):
    """Send every n the search decides to ``explorer.check``."""
    monkeypatch.setattr(explorer, "_below_floor",
                        lambda hi, ln_lo, bits: False)


def _node(entries, cfg=DEFAULT_PRECISION):
    """(entries, n, hi, ln_lo) of n as the search's walk carries them."""
    f = Factorization(entries)
    return (f.entries, f.n(),
            sigma_over_n_fp(f, cfg.start_bits + _GUARD)[1],
            robin.log_n(f, cfg.start_bits)[0])


class TestConjecture32Probe:
    """How the search probes a base: its check, then its increments'."""

    def test_35280_all_increments_satisfied(self, decided):
        base = primes.parse_factor_string("2^4*3^2*5*7^2").entries
        # its exponents do not fall: every arrangement is enumerated
        rep = explorer.conjecture32_search(4, 4, Fraction("10.5"),
                                           non_increasing_only=False)
        bumped = [primes.parse_factor_string(s).entries for s in (
            "2^5*3^2*5*7^2", "2^4*3^3*5*7^2", "2^4*3^2*5^2*7^2",
            "2^4*3^2*5*7^3")]
        assert {base, *bumped} <= set(decided)
        assert rep.counterexamples == ()

    def test_prime_power_5041(self, monkeypatch):
        # 71^2 is no base of a search over a prefix of the primes: the
        # task decides it and its increment alone, by the floors, then
        # with them off by check
        node = _node(((71, 2),))
        for _ in range(2):
            for j in (None, 0):
                assert explorer._unsatisfied(DEFAULT_PRECISION, node,
                                                  j) is None
            _floors_off(monkeypatch)

    def test_base_5040_not_satisfied(self):
        # a result, not a refusal: the task hands back the violated check
        r = explorer._unsatisfied(
            DEFAULT_PRECISION, _node(primes.factorize(5040).entries))
        assert r.verdict is Verdict.VIOLATED
        assert r == robin.check(primes.factorize(5040))

    def test_increment_shape(self, decided):
        # the only base > 5040 is 30030.  Its six increments share one
        # sorted form, 2^2*3*5*7*11*13, which decides them all
        f = primes.parse_factor_string("2*3*5*7*11*13")
        rep = explorer.conjecture32_search(6, 1, Fraction("10.4"))
        assert rep.bases_probed == 1
        assert decided == [f.entries, ((2, 2),) + f.entries[1:]]
        # with every arrangement, each of its six exponents goes up
        decided.clear()
        rep = explorer.conjecture32_search(6, 1, Fraction("10.4"),
                                           non_increasing_only=False)
        assert rep.bases_probed == 1
        want = [f.entries]
        for j, (p, k) in enumerate(f.entries):
            expect = list(f.entries)
            expect[j] = (p, k + 1)
            want.append(tuple(expect))
        assert decided == want


def _recursive_enumerate(prime_count_max, exponent_max, log_n_max,
                         non_increasing_only, bits):
    """The enumeration as one recursive call per prime, for its order."""
    W = bits + _GUARD
    x_fp = (log_n_max.numerator << W) // log_n_max.denominator
    plist = primes.first_primes(prime_count_max)
    ln_hi = [robin._ln_prime_fp(p, W)[1] for p in plist]
    out = []

    def recurse(pos, k_cap, s_hi, prefix):
        if pos == len(plist):
            return
        cap = k_cap if non_increasing_only else exponent_max
        acc = s_hi
        for k in range(1, cap + 1):
            acc += ln_hi[pos]
            if acc > x_fp:
                break
            prefix.append((plist[pos], k))
            out.append(tuple(prefix))
            recurse(pos + 1, k, acc, prefix)
            prefix.pop()

    recurse(0, exponent_max, 0, [])
    return out


def _naive_enumerate(prime_count, exp_max, ln_max_float, non_increasing):
    """Independent brute-force enumeration by itertools product."""
    import math
    plist = list(primes.first_primes(prime_count))
    found = set()
    for m in range(1, prime_count + 1):
        for ks in itertools.product(range(0, exp_max + 1), repeat=m):
            if ks[-1] == 0 or any(k == 0 for k in ks):
                continue
            if non_increasing and any(a < b for a, b in zip(ks, ks[1:])):
                continue
            s = sum(k * math.log(p) for p, k in zip(plist, ks))
            if s <= ln_max_float:
                found.add(tuple(zip(plist[:m], ks)))
    return found


class TestConjecture32Search:
    def test_enumeration_matches_naive(self):
        got = [b for b, *_ in explorer._enumerate_bases(
            4, 3, Fraction("11.0"), True, 53)]
        naive = _naive_enumerate(4, 3, 11.0, True)
        assert set(got) == naive

    def test_enumeration_all_arrangements_matches_naive(self):
        got = [b for b, *_ in explorer._enumerate_bases(
            3, 3, Fraction("9.5"), False, 53)]
        naive = _naive_enumerate(3, 3, 9.5, False)
        assert set(got) == naive

    @pytest.mark.parametrize("non_increasing_only", [True, False])
    def test_enumeration_carries_n(self, non_increasing_only):
        got = explorer._enumerate_bases(5, 4, Fraction("16.0"),
                                        non_increasing_only, 53)
        assert all(n == Factorization(b).n() for b, n, *_ in got)

    def test_enumeration_unique(self):
        got = [b for b, *_ in explorer._enumerate_bases(
            5, 4, Fraction("16.0"), True, 53)]
        assert len(got) == len(set(got))

    @pytest.mark.parametrize("args", [
        (4, 3, Fraction("11.0"), True),
        (3, 3, Fraction("9.5"), False),
        (5, 4, Fraction("16.0"), True),
        (4, 2, Fraction("12.0"), False),
        (9, 6, Fraction("27.631021"), True),
    ])
    def test_enumeration_order_matches_recursion(self, args):
        assert ([b for b, *_ in explorer._enumerate_bases(*args, 53)]
                == _recursive_enumerate(*args, 53))

    def test_enumeration_deeper_than_the_recursion_limit(self):
        got = [b for b, *_ in explorer._enumerate_bases(
            1200, 1, Fraction(20000), True, 53)]
        plist = primes.first_primes(1200)
        assert got == [tuple((p, 1) for p in plist[:m])
                       for m in range(1, 1201)]

    def test_walk_past_the_base_budget_is_refused(self, monkeypatch):
        # the all-arrangements (12, 8, 45) search fits the real budget
        assert explorer._BASE_BUDGET == 1 << 21 > 1_649_524
        args = (5, 4, Fraction("16.0"), True, 53)
        count = len(explorer._enumerate_bases(*args))
        monkeypatch.setattr(explorer, "_BASE_BUDGET", count)
        assert len(explorer._enumerate_bases(*args)) == count
        walked = []
        real_walk = explorer._hr_walk

        def counted_walk(*a, **kw):
            for node in real_walk(*a, **kw):
                walked.append(node)
                yield node

        monkeypatch.setattr(explorer, "_hr_walk", counted_walk)
        monkeypatch.setattr(explorer, "_BASE_BUDGET", count // 2)
        with pytest.raises(InvalidInput,
                           match=rf"^more than {count // 2} bases to search "
                                 r"\(the base budget\)"):
            explorer._enumerate_bases(*args)
        # the walk stops at the first node past the budget
        assert len(walked) == count // 2 + 1
        with pytest.raises(InvalidInput, match="base budget"):
            explorer.conjecture32_search(5, 4, Fraction("16.0"))

    @pytest.mark.parametrize("search, non_increasing, count, per_base", [
        ((9, 6, "27.631021"), True, 1210, True),
        # the per-base loop takes about 1.8 s here
        ((9, 6, "27.631021"), False, 46_634, False),
        ((12, 8, "45"), True, 10_693, True),
    ], ids=["default", "all_arrangements", "12_8_45"])
    def test_each_distinct_n_checked_once(self, decided, checked, search,
                                          non_increasing, count, per_base):
        p, e, x = search
        rep = explorer.conjecture32_search(
            p, e, Fraction(x), non_increasing_only=non_increasing)
        assert len(decided) == len(set(decided)) == count
        # the floors on carried state decide every one of them
        assert checked == []
        if per_base:
            assert rep == _per_base_search(
                p, e, x, non_increasing_only=non_increasing)

    def test_sorted_forms_decide_their_increments(self):
        # the exchange lemma, by brute force over the default search: the
        # form that decides base + e_j is sorted, no larger, and has a
        # sigma(n)/n at least as large
        for base, *_ in explorer._enumerate_bases(
                9, 6, Fraction("27.631021"), True, 53):
            exps = [k for _, k in base]
            for j, k in enumerate(exps):
                i = exps.index(k)  # the entry that starts j's run
                n = Factorization.from_canonical(explorer._bumped(base, j))
                h = Factorization.from_canonical(explorer._bumped(base, i))
                ks = [k for _, k in h.entries]
                assert ks == sorted(ks, reverse=True), (base, j)
                assert h.n() <= n.n()
                assert sigma_over_n_fraction(h) >= sigma_over_n_fraction(n)

    def test_every_arrangement_checked_once(self, decided):
        # exponents in any order: more bases share an increment
        bases = [b for b, *_ in explorer._enumerate_bases(
            4, 3, Fraction(12), False, 53) if Factorization(b).n() > 5040]
        want = set(bases)
        for b in bases:
            for j, (p, k) in enumerate(b):
                want.add(b[:j] + ((p, k + 1),) + b[j + 1:])
        explorer.conjecture32_search(4, 3, Fraction(12),
                                     non_increasing_only=False)
        assert len(decided) == len(want) < sum(len(b) + 1 for b in bases)
        assert set(decided) == want

    @pytest.mark.parametrize("non_increasing_only", [True, False])
    def test_increments_are_not_held(self, non_increasing_only, monkeypatch):
        # 200 bases of up to 200 primes: holding their 20,100 increments
        # at once took 23 MiB
        monkeypatch.setattr(explorer, "check", lambda f, cfg: robin.CheckResult(
            f, Fraction(1), None, Verdict.SATISFIED, cfg.start_bits))
        _floors_off(monkeypatch)
        tracemalloc.start()
        try:
            rep = explorer.conjecture32_search(
                200, 1, Fraction(10000),
                non_increasing_only=non_increasing_only)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.bases_probed == 200 - 5  # 2, 6, 30, 210 and 2310 are not
        assert peak < 8 << 20

    def test_long_bases_match_the_per_base_loop(self, monkeypatch):
        # 500 bases of up to 500 primes, 125,250 increments: building and
        # hashing each increment's entries took 1.7 s before the first
        # check.  The stub decides from the exponent multiset alone, as a
        # sound check may (an increment and its sorted form agree), and
        # some rows are bases, some increments.
        def stub(f, cfg):
            e = f.entries
            pick = (len(e) + 3 * sum(k for _, k in e)) % 11
            verdict = (Verdict.VIOLATED, Verdict.INDETERMINATE)[pick] \
                if pick < 2 else Verdict.SATISFIED
            return robin.CheckResult(f, Fraction(1), None, verdict,
                                     cfg.start_bits)

        monkeypatch.setattr(explorer, "check", stub)
        _floors_off(monkeypatch)
        want = _per_base_search(500, 1, 10000)
        # rows of bases, of first and of last entries
        assert {None, 0} < {j for _, j, _ in want.counterexamples}
        assert explorer.conjecture32_search(500, 1, Fraction(10000)) == want

    def test_no_increment_built_before_its_check(self, monkeypatch):
        # 1000 bases of up to 1000 primes: a raise is found by its n, the
        # base's n times p_i, so no entries are built until the tasks run
        # (all 500,500 increments were once built and hashed first, 11.8 s),
        # and a task builds them only for check, once the floors (turned
        # off here) leave n open
        built = []
        real = explorer._bumped

        def counting(entries, j):
            built.append(j)
            return real(entries, j)

        class FirstCheck(Exception):
            pass

        def first_check(f, cfg):
            raise FirstCheck

        monkeypatch.setattr(explorer, "_bumped", counting)
        monkeypatch.setattr(explorer, "check", first_check)
        _floors_off(monkeypatch)
        with pytest.raises(FirstCheck):
            explorer.conjecture32_search(1000, 1, Fraction(10000))
        assert built == []

    @pytest.mark.parametrize("args", [
        (6, 3, "12.5", True),
        (4, 4, "14", True),
        (4, 3, "12", False),
    ])
    def test_rows_match_the_per_base_loop(self, args, monkeypatch):
        # n is forced undecided in a band of sigma(n)/n and violated above
        # it, between the 60th and 85th and above the 85th percentile of
        # the bases' sigma(n)/n.  Like a sound check, this never makes a
        # sorted form satisfied and its increment not.
        *search, non_increasing = args
        ratios = sorted(
            float(sigma_over_n_fraction(f)) for f in (
                Factorization(b) for b, *_ in explorer._enumerate_bases(
                    search[0], search[1], Fraction(search[2]),
                    non_increasing, 53))
            if f.n() > 5040)
        band = ratios[len(ratios) * 60 // 100], ratios[len(ratios) * 85 // 100]
        real = robin.compare

        def forced(lhs, rhs):
            x = (math.ldexp(lhs.lo_m, lhs.e)
                 if isinstance(lhs, intervals.RealInterval) else float(lhs))
            if x >= band[1]:
                return intervals.Comparison.GREATER
            if x >= band[0]:
                return intervals.Comparison.OVERLAPPING
            return real(lhs, rhs)

        monkeypatch.setattr(robin, "_below_floor", lambda hi, x, bits: False)
        monkeypatch.setattr(robin, "compare", forced)
        _floors_off(monkeypatch)
        want = _per_base_search(*search, non_increasing_only=non_increasing)
        assert {j is None for _, j, _ in want.counterexamples} == {True, False}
        assert {r.verdict for _, _, r in want.counterexamples} == {
            Verdict.INDETERMINATE, Verdict.VIOLATED}
        got = explorer.conjecture32_search(
            search[0], search[1], Fraction(search[2]),
            non_increasing_only=non_increasing)
        assert got == want

    def test_prime_powers_only(self):
        rep = explorer.conjecture32_search(1, 20, Fraction("20.7"))
        assert rep.counterexamples == ()
        assert rep.bases_probed > 0  # 2^13..2^20 and similar

    def test_squarefree_four_primes(self):
        import math
        rep = explorer.conjecture32_search(4, 1, Fraction("13.8"))
        assert rep.counterexamples == ()

    def test_undecided_base_is_a_row_without_index(self, monkeypatch):
        monkeypatch.setattr(robin, "_below_floor", lambda hi, x, bits: False)
        _floors_off(monkeypatch)
        monkeypatch.setattr(robin, "compare",
                            lambda lhs, rhs: intervals.Comparison.OVERLAPPING)
        cfg = intervals.PrecisionConfig(53, 106)
        rep = explorer.conjecture32_search(1, 20, Fraction("20.7"), cfg)
        assert rep.bases_probed == 0
        assert rep.counterexamples
        for f, j, r in rep.counterexamples:
            assert j is None and r.factorization == f
            assert r.verdict is Verdict.INDETERMINATE

    def test_base_not_satisfied_pickles_with_its_result(self):
        # the row's result for 5040, and a report holding it
        f = primes.factorize(5040)
        r = explorer._unsatisfied(DEFAULT_PRECISION, _node(f.entries))
        assert pickle.loads(pickle.dumps(r)) == r
        rep = explorer.SearchReport(1, 1, Fraction(9), 1, 0, ((f, None, r),))
        assert pickle.loads(pickle.dumps(rep)) == rep

    def test_validation(self):
        with pytest.raises(ValueError):
            explorer.conjecture32_search(0, 1, Fraction(10))
        with pytest.raises(ValueError):
            explorer.conjecture32_search(2, 1, Fraction(-1))


class TestSearchState:
    """The state the search decides by equals, or bounds, ``check``'s."""

    @pytest.mark.parametrize("args", [
        (9, 6, Fraction("27.631021"), True),
        (4, 3, Fraction(12), False),
    ])
    def test_bases_carry_what_check_computes(self, args, monkeypatch):
        walked = []
        real = explorer._hr_walk

        def walk(*a, **kw):
            for node in real(*a, **kw):
                walked.append(node)
                yield node

        monkeypatch.setattr(explorer, "_hr_walk", walk)
        got = explorer._enumerate_bases(*args, 53)
        assert got == [node[:5] for node in walked]
        for entries, n, hi, ln_lo, ln_hi in walked:
            f = Factorization(entries)
            assert hi == sigma_over_n_fp(f, 53 + _GUARD)[1], n
            assert (ln_lo, ln_hi) == robin.log_n(f, 53), n

    # of the 1,210 and 46,634 decisions; most bases are some earlier
    # base's increment, and are decided as that
    @pytest.mark.parametrize("non_increasing, increments", [
        (True, 1194), (False, 46_595)])
    def test_increments_bound_what_check_computes(self, non_increasing,
                                                  increments, monkeypatch):
        # each decision's floor sees, for base + e_j, an hi at or above
        # sigma(n)/n * 2**W and check's own ln_lo
        seen, task_now = [], []
        real_task, real_floor = explorer._unsatisfied, explorer._below_floor

        def task_spy(cfg, node, j=None):
            task_now[:] = [(node, j)]
            return real_task(cfg, node, j)

        def floor_spy(hi, ln_lo, bits):
            seen.append((task_now[0], hi, ln_lo))
            return real_floor(hi, ln_lo, bits)

        monkeypatch.setattr(explorer, "_unsatisfied", task_spy)
        monkeypatch.setattr(explorer, "_below_floor", floor_spy)
        explorer.conjecture32_search(9, 6, Fraction("27.631021"),
                                     non_increasing_only=non_increasing)
        assert sum(j is not None for (_, j), *_ in seen) == increments
        for ((entries, *_), j), hi, ln_lo in seen:
            f = Factorization.from_canonical(
                entries if j is None else explorer._bumped(entries, j))
            if j is None:
                assert hi == sigma_over_n_fp(f, _W)[1]
            assert Fraction(hi, 1 << _W) >= sigma_over_n_fraction(f), f
            assert ln_lo == robin.log_n(f, DEFAULT_PRECISION.start_bits)[0]

    @pytest.mark.parametrize("search, ladder, non_increasing, rows", [
        ((6, 4, 25), (2, 4), True, 63),
        ((5, 5, 22), (3, 6), False, 3),
    ])
    def test_low_ladders_match_the_per_base_loop(self, checked, decided,
                                                 search, ladder,
                                                 non_increasing, rows):
        # no stub: at these ladders the floors leave real nodes open, and
        # check decides them, some not satisfied
        cfg = intervals.PrecisionConfig(*ladder)
        p, e, x = search
        rep = explorer.conjecture32_search(
            p, e, Fraction(x), cfg, non_increasing_only=non_increasing)
        assert checked
        # the increments of a base that is not satisfied are not decided
        assert len(decided) == {(6, 4, 25): 263, (5, 5, 22): 3563}[search]
        assert len(rep.counterexamples) == rows
        assert {j is None for _, j, _ in rep.counterexamples} == {True, False}
        assert rep == _per_base_search(p, e, x, cfg,
                                       non_increasing_only=non_increasing)
