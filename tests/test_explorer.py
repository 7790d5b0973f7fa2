"""Scanner vs brute-force oracle, the primorial table, conjecture probes."""

import itertools
import multiprocessing
import os
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robincheck import explorer, primes, robin
from robincheck.factorization import Factorization, sigma_int
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

    def test_range_validation(self):
        with pytest.raises(ValueError):
            explorer.scan_range(10, 2)
        with pytest.raises(ValueError):
            explorer.scan_range(1, 10)


class TestScanDeterminism:
    def test_byte_identical_across_worker_counts(self):
        reports = {}
        for workers in (1, 4, 8):
            rep = explorer.scan_range(2, 120_000, worker_count=workers,
                                      segment_size=1 << 14)
            reports[workers] = scan_golden_projection(rep)
        assert reports[1] == reports[4] == reports[8]

    def test_segment_size_does_not_change_results(self):
        a = explorer.scan_range(2, 30_000, segment_size=1 << 12)
        b = explorer.scan_range(2, 30_000, segment_size=1 << 20)
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
        sig = oracles.sigma_sieve(3000)
        seg = explorer._sigma_segment(1000, 3001)
        for n in range(1000, 3001):
            assert int(seg[n - 1000]) == sig[n], n


def assert_sigma_segment_exact(a, b):
    seg = explorer._sigma_segment(a, b)
    assert seg.dtype == "int64" and seg.size == b - a
    for n in range(a, b):
        expect = 1 if n == 1 else sigma_int(primes.factorize(n))
        assert int(seg[n - a]) == expect, n


class TestSigmaSegment:
    def test_top_segment_ending_at_max_scan_hi(self):
        hi = explorer.MAX_SCAN_HI
        assert_sigma_segment_exact(hi - 4095, hi + 1)

    @pytest.mark.parametrize("a", [1, 2])
    def test_segment_starting_at_1_and_2(self, a):
        assert_sigma_segment_exact(a, a + 5000)

    def test_segment_narrower_than_largest_sieving_prime(self):
        # sieving primes reach ~10^6 here; most have no multiple inside
        a = 10**12 - 10**6
        assert_sigma_segment_exact(a, a + 97)

    @pytest.mark.parametrize("pk", [2**39, 3**25, 5**17, 7**14, 997**4])
    def test_segment_containing_high_prime_power(self, pk):
        assert_sigma_segment_exact(pk - 300, pk + 300)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12),
           st.integers(min_value=1, max_value=64))
    def test_matches_factorize_on_random_windows(self, a, width):
        b = min(a + width, explorer.MAX_SCAN_HI + 1)
        assert_sigma_segment_exact(a, b)


class TestScanRangeEnd:
    def test_top_block_at_max_scan_hi(self):
        # int64 headroom of the block filter at the end of the supported
        # range: sigma << 16 and thr * n must both stay below 2^63
        hi = explorer.MAX_SCAN_HI
        lo = hi - 4095
        rep = explorer.scan_range(lo, hi, segment_size=4096)
        assert rep.violations == () and rep.indeterminates == ()
        assert rep.checked_count == 4096
        sig = explorer._sigma_segment(lo, hi + 1)
        thr = explorer._rhs_floor_scaled(lo, 53)
        assert int(sig.max()) << explorer._THR_SHIFT < 2**63
        assert thr * hi < 2**63
        rng = random.Random(20121)
        for n in rng.sample(range(lo, hi + 1), 64):
            f = primes.factorize(n)
            assert int(sig[n - lo]) == sigma_int(f), n
            assert robin.check(f).verdict is Verdict.SATISFIED, n


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

    def test_ratio_midpoints_nondecreasing(self):
        rows = explorer.conjecture31_table(2000)
        mids = [r.ratio.midpoint() for r in rows if r.ratio is not None][9:]
        for a, b in zip(mids, mids[1:]):
            assert b >= a


class TestConjecture32Probe:
    def test_35280_all_increments_satisfied(self):
        f = primes.parse_factor_string("2^4*3^2*5*7^2")
        rep = explorer.conjecture32_probe(f)
        assert len(rep.increments) == 4
        assert all(r.verdict is Verdict.SATISFIED for _, r in rep.increments)
        assert rep.failures() == ()

    def test_prime_power_5041(self):
        rep = explorer.conjecture32_probe(Factorization(((71, 2),)))
        (j, r), = rep.increments
        assert r.factorization.entries == ((71, 3),)
        assert r.verdict is Verdict.SATISFIED

    def test_base_5040_not_satisfied(self):
        with pytest.raises(explorer.BaseNotSatisfied):
            explorer.conjecture32_probe(primes.factorize(5040))

    def test_base_below_5041_rejected(self):
        with pytest.raises(ValueError):
            explorer.conjecture32_probe(Factorization(((7, 1),)))

    def test_increment_shape(self):
        f = primes.parse_factor_string("2*3*5*7*11*13")
        rep = explorer.conjecture32_probe(f)
        for j, r in rep.increments:
            expect = list(f.entries)
            p, k = expect[j]
            expect[j] = (p, k + 1)
            assert r.factorization.entries == tuple(expect)


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


def _failing_probe_task(args):
    raise RuntimeError("probe failed")


class TestConjecture32Search:
    def test_enumeration_matches_naive(self):
        got = explorer._enumerate_bases(4, 3, Fraction("11.0"), True, 53)
        naive = _naive_enumerate(4, 3, 11.0, True)
        assert set(got) == naive

    def test_enumeration_all_arrangements_matches_naive(self):
        got = explorer._enumerate_bases(3, 3, Fraction("9.5"), False, 53)
        naive = _naive_enumerate(3, 3, 9.5, False)
        assert set(got) == naive

    def test_enumeration_unique(self):
        got = explorer._enumerate_bases(5, 4, Fraction("16.0"), True, 53)
        assert len(got) == len(set(got))

    def test_prime_powers_only(self):
        rep = explorer.conjecture32_search(1, 20, Fraction("20.7"))
        assert rep.counterexamples == ()
        assert rep.bases_probed > 0  # 2^13..2^20 and similar

    def test_squarefree_four_primes(self):
        import math
        rep = explorer.conjecture32_search(4, 1, Fraction("13.8"))
        assert rep.counterexamples == ()

    def test_worker_counts_agree(self):
        a = explorer.conjecture32_search(6, 3, Fraction("12.5"),
                                         worker_count=1)
        b = explorer.conjecture32_search(6, 3, Fraction("12.5"),
                                         worker_count=4)
        assert a.candidates_enumerated == b.candidates_enumerated
        assert a.bases_probed == b.bases_probed
        assert a.counterexamples == b.counterexamples

    def test_worker_exception_propagates_without_leaking_pool(
            self, monkeypatch):
        # module level, so the pool's workers can unpickle it by name
        monkeypatch.setattr(explorer, "_probe_base_task", _failing_probe_task)
        with pytest.raises(RuntimeError, match="probe failed"):
            explorer.conjecture32_search(6, 3, Fraction("12.5"),
                                         worker_count=2)
        assert multiprocessing.active_children() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            explorer.conjecture32_search(0, 1, Fraction(10))
        with pytest.raises(ValueError):
            explorer.conjecture32_search(2, 1, Fraction(-1))
