"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
PASS/FAIL verdict per criterion.
"""

import os
import random
from contextlib import contextmanager
from fractions import Fraction

from robincheck import explorer, primes, robin, theorems
from robincheck.factorization import (
    Factorization,
    sigma_int,
    sigma_over_n_fraction,
)
from robincheck.intervals import PrecisionConfig
from robincheck.output import sig_str_fraction
from robincheck.robin import Verdict

import oracles
from test_explorer import scan_golden_projection

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "violators_2_5040.csv")


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


def test_criterion_1_threshold_constant():
    with criterion("1 threshold e^gamma*loglog(5040)"):
        thr = theorems.threshold_5040()
        lo = thr.lo.as_fraction()
        hi = thr.hi.as_fraction()
        assert Fraction("3.8160") <= lo <= hi <= Fraction("3.8175")
        assert sig_str_fraction(thr.midpoint(), 4) == "3.817"


def test_criterion_2_corollary_bounds():
    with criterion("2 corollary bounds"):
        assert theorems.unbounded_exponent_bound(2).bound_value == 3
        assert theorems.unbounded_exponent_bound(3).bound_value == Fraction(15, 4)
        sf9 = theorems.squarefree_bound(9)
        assert sig_str_fraction(sf9.bound_value, 4) == "3.748"
        for m in range(1, 13):
            assert theorems.squarefree_bound(m).passes == (m <= 9)


def test_criterion_3_violator_golden_set():
    with criterion("3 violator golden set 2..5040"):
        report = explorer.scan_range(2, 5040)
        with open(GOLDEN_PATH) as fh:
            golden = fh.read()
        # byte-for-byte against the frozen brute-force-oracle file
        assert scan_golden_projection(report) == golden
        # and the frozen file is what the oracle still produces today
        regenerated = (oracles.GOLDEN_HEADER + "\n"
                       + "\n".join(oracles.golden_violator_rows(2, 5040))
                       + "\n")
        assert golden == regenerated
        violators = {n for n, _ in report.violations}
        assert 5040 in violators
        wider = explorer.scan_range(2, 5041)
        assert 5041 not in {n for n, _ in wider.violations}


def test_criterion_4_scan_to_1e7():
    with criterion("4 scan 5041..10^7 clean"):
        report = explorer.scan_range(5041, 10**7, worker_count=4)
        assert report.violations == ()
        assert report.indeterminates == ()
        assert report.checked_count == 10**7 - 5041 + 1


def test_criterion_5_prime_power_sweep():
    with criterion("5 prime powers (5040, 10^6] + lhs < 2 grid"):
        results = theorems.verify_prime_powers(10**6)
        assert all(r.verdict is Verdict.SATISFIED for r in results)
        # exhaustive: every prime power in range is present exactly once
        ns = sorted(r.factorization.entries[0][0]
                    ** r.factorization.entries[0][1] for r in results)
        assert len(ns) == len(set(ns))
        assert ns[0] == 5041 and ns[-1] <= 10**6
        rng = random.Random(1234)
        plist = list(primes.primes_up_to(10**5))
        for _ in range(10**4):
            p = rng.choice(plist)
            k = rng.randint(1, 40)
            assert sigma_over_n_fraction(Factorization(((p, k),))) < 2


def test_criterion_6_substitution_suite():
    with criterion("6 substitution property suite"):
        rng = random.Random(987654321)
        pool = list(primes.primes_up_to(3000))
        done = 0
        while done < 1000:
            ps = sorted(rng.sample(pool, rng.randint(1, 6)))
            f = Factorization(tuple((p, rng.randint(1, 5)) for p in ps))
            if f.n() <= 5040:
                continue
            if robin.check(f).verdict is not Verdict.SATISFIED:
                continue
            idx = rng.randrange(len(f.entries))
            new = primes.nth_prime(rng.randint(1, 500))
            if new <= f.entries[idx][0] or any(p == new for p, _ in f.entries):
                continue
            rep = theorems.substitution_report(f, idx, new)
            assert rep.after.verdict is Verdict.SATISFIED
            assert rep.lhs_decreased
            assert rep.rhs_increased
            done += 1
        # exhaustive per-prime-factor monotonicity, primes <= 10^4, k <= 16:
        # consecutive-prime comparisons cover every pair by transitivity
        plist = list(primes.primes_up_to(10**4))
        for k in range(1, 17):
            prev = sigma_over_n_fraction(Factorization(((plist[0], k),)))
            for p in plist[1:]:
                cur = sigma_over_n_fraction(Factorization(((p, k),)))
                assert cur < prev
                prev = cur


def test_criterion_7_conjecture31_table():
    with criterion("7 conjecture 3.1 table to m = 10^4"):
        rows = explorer.conjecture31_table(10**4)
        assert len(rows) == 10**4
        # q exactly increasing: each step is q_{m+1} = q_m * (p+1)/p with
        # p = p_{m+1}, checked by one exact division per row
        for a, b in zip(rows, rows[1:]):
            p = b.p_m
            k, r = divmod(a.q_num * (p + 1), b.q_num)
            assert r == 0 and k > 0
            assert a.q_den * p == k * b.q_den
        # alpha certified increasing for m >= 2
        assert rows[0].alpha is None
        for a, b in zip(rows[1:], rows[2:]):
            assert b.alpha.lo.as_fraction() > a.alpha.hi.as_fraction()
        # first primorial beyond 5040 at m = 6
        flags = [r.n_exceeds_5040 for r in rows[:8]]
        assert flags == [False] * 5 + [True] * 3
        # ratio midpoints nondecreasing from m = 10 on
        mids = [r.ratio.midpoint() for r in rows[9:]]
        for a, b in zip(mids, mids[1:]):
            assert b >= a
        # ratio enclosure at m = 10^4 inside the stated band
        last = rows[-1].ratio
        assert Fraction("1.55") <= last.lo.as_fraction()
        assert last.hi.as_fraction() <= Fraction("1.66")


def test_criterion_8_conjecture32_bounded_search():
    with criterion("8 conjecture 3.2 search (9, 6, ln 10^12)"):
        report = explorer.conjecture32_search(
            9, 6, Fraction("27.631021"), worker_count=4)
        assert report.counterexamples == ()
        assert report.bases_probed > 500  # the experiment actually ran


def test_criterion_9_precision_stability():
    with criterion("9 verdict stability at 24/53/128 start bits"):
        outcomes = []
        for bits in (24, 53, 128):
            cfg = PrecisionConfig(start_bits=bits)
            rep = explorer.scan_range(2, 10**5, cfg=cfg, worker_count=4)
            outcomes.append(([n for n, _ in rep.violations],
                             list(rep.indeterminates)))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][1] == []


def test_criterion_10_sigma_oracles():
    with criterion("10 sigma oracle equivalence"):
        sig = oracles.sigma_sieve(10**5)
        for n in range(2, 10**5 + 1):
            assert sigma_int(primes.factorize(n)) == sig[n]
        rng = random.Random(55555)
        pool = list(primes.primes_up_to(10**4))
        for _ in range(1000):
            ps = rng.sample(pool, rng.randint(1, 8))
            f = Factorization(tuple((p, rng.randint(1, 7)) for p in ps))
            assert sigma_over_n_fraction(f) * f.n() == sigma_int(f)
