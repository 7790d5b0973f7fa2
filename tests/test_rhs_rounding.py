"""Every printed right side is the correctly rounded value on its grid.

``robin._rhs_from_log`` rounds e^gamma * ln(ln n) down and up to
``precision_bits`` significant bits and proves by Ziv's test that the two
ends are the true value's RD and RU.  The oracle is mpmath at three times
the precision (``oracles.rhs_rd_ru``), which shares no code with the ln
kernel.
"""

import csv
import io
import json
import math
import os
import random
from fractions import Fraction

import mpmath
import pytest

from robincheck import explorer, intervals, primes, robin, theorems
from robincheck.intervals import _GUARD, GAMMA_MAX_BITS, PrecisionConfig

import oracles

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "cli_golden")


def _endpoints(iv) -> tuple[Fraction, Fraction]:
    return iv.lo.as_fraction(), iv.hi.as_fraction()


def _terms(n: int) -> list[tuple[int, int]]:
    return list(primes.factorize(n).entries)


@pytest.mark.parametrize("bits", [53, 106])
def test_check_endpoints_are_rd_ru(bits):
    rng = random.Random(bits)
    cfg = PrecisionConfig(bits, 4096)
    for _ in range(300):
        n = int(math.exp(rng.uniform(math.log(3), math.log(10 ** 12))))
        r = robin.check(primes.factorize(n), cfg)
        assert r.precision_used == bits
        assert _endpoints(r.rhs) == oracles.rhs_rd_ru(_terms(n), bits), n


def _factor_terms(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split("*"):
        p, _, k = part.partition("^")
        out.append((int(p), int(k or 1)))
    return out


def _row_terms(row: dict, field: str):
    """The (p, k) list of the n whose right side ``field`` encloses."""
    if field == "threshold":
        return _terms(5040)
    if row.get("factorization"):
        return _factor_terms(row["factorization"])
    if row.get("n"):
        return _terms(int(row["n"]))
    return [(p, 1) for p in primes.first_primes(int(row["m"]))]


def _golden_endpoints():
    """(file, terms, bits, lo, hi) of each enclosure a golden prints in full."""
    with open(os.path.join(_GOLDEN_DIR, "manifest.json")) as fh:
        cases = json.load(fh)
    for case in cases:
        argv, name = case["argv"], case["stdout"]
        bits = 53
        if "--precision-bits" in argv:
            bits = int(argv[argv.index("--precision-bits") + 1])
        with open(os.path.join(_GOLDEN_DIR, name)) as fh:
            text = fh.read()
        if name.endswith(".csv"):
            rows = list(csv.DictReader(io.StringIO(text)))
        elif name.endswith(".json"):
            doc = json.loads(text)
            rows = [doc] + doc.get("rows", []) + doc.get("violations", [])
        else:
            continue
        for row in rows:
            for field in ("rhs", "alpha", "threshold"):
                if name.endswith(".csv"):
                    lo, hi = row.get(f"{field}_lo"), row.get(f"{field}_hi")
                else:
                    iv = row.get(field) or {}
                    lo, hi = iv.get("lo"), iv.get("hi")
                if lo in (None, "", "undefined"):
                    continue
                yield (name, _row_terms(row, field),
                       int(row.get("precision_bits") or bits),
                       Fraction(lo), Fraction(hi))


def test_golden_endpoints_are_rd_ru():
    seen = set()
    for name, terms, bits, lo, hi in _golden_endpoints():
        assert (lo, hi) == oracles.rhs_rd_ru(terms, bits), (name, terms)
        seen.add(name)
    # every golden that prints an rhs, alpha or threshold in full
    assert seen == {
        "check_5040.csv", "check_5041.json", "check_primorial200.csv",
        "check_primorial200.json", "scan_2_300.csv", "scan_2_300.json",
        "conjecture1_60.csv", "conjecture1_12.json", "bounds_12.csv",
        "bounds_12.json", "prime_powers_6000.csv"}


def test_block_thresholds_and_table_alpha_are_rd_ru():
    for t in (3, 4, 16, 4112, 10 ** 9 + 7):
        rd, _ = oracles.rhs_rd_ru(_terms(t), 53)
        want = (rd.numerator << explorer._THR_SHIFT) // rd.denominator
        assert explorer._rhs_floor_scaled(t, 53) == want, t
    rows = explorer.conjecture31_table(300, PrecisionConfig(106, 4096))
    plist = primes.first_primes(300)
    for row in rows[1::37]:
        terms = [(p, 1) for p in plist[:row.m]]
        assert _endpoints(row.alpha) == oracles.rhs_rd_ru(terms, 106)


class _Widened:
    """``_ln_fp`` whose first ``fail`` calls on ln n lose 2**-20 of ln ln n.

    Calls on ln n are the ones at den = 2**W (ln p has den = 1).  The
    loss is sound (the lower bound only drops) but spans many grid
    points, so Ziv's test fails on those attempts.
    """

    def __init__(self, fail: int):
        self.fail = fail
        self.calls = []
        self.real = intervals._ln_fp

    def __call__(self, lo, hi, den, W):
        L, H = self.real(lo, hi, den, W)
        if den == 1 << W:
            self.calls.append(W)
            if len(self.calls) <= self.fail:
                L -= 1 << (W - 20)
        return L, H


@pytest.mark.parametrize("n", [5040, 5041, 2 ** 61 - 1, 10 ** 12 - 11])
def test_ziv_rerun_still_gives_rd_ru(monkeypatch, n):
    kernel = _Widened(fail=1)
    monkeypatch.setattr(robin, "_ln_fp", kernel)
    rhs = robin.robin_rhs(primes.factorize(n), 53)
    assert kernel.calls == [53 + _GUARD, 53 + 2 * _GUARD]
    assert _endpoints(rhs) == oracles.rhs_rd_ru(_terms(n), 53)


def test_prime_power_sweep_makes_no_ziv_rerun(monkeypatch):
    # a kernel that widened its ln ln n would show up here as reruns
    reruns = []
    real = robin._rhs_from_log

    def counted(lo, hi, bits, ln_x=None):
        def rerun(b):
            reruns.append(b)
            return ln_x(b)

        return real(lo, hi, bits, rerun)

    monkeypatch.setattr(robin, "_rhs_from_log", counted)
    results = theorems.verify_prime_powers(10 ** 5)
    assert len(results) == 8983
    assert all(r.verdict is robin.Verdict.SATISFIED for r in results)
    assert reruns == []


@pytest.mark.parametrize("bits", [53, GAMMA_MAX_BITS])
def test_fallback_at_the_cap_is_sound(monkeypatch, bits):
    kernel = _Widened(fail=10 ** 6)
    monkeypatch.setattr(robin, "_ln_fp", kernel)
    rhs = robin.robin_rhs(primes.factorize(5041), bits)
    # at the top of the ladder there is no digit left for a rerun
    reruns = 0 if bits == GAMMA_MAX_BITS else robin._ZIV_RERUNS
    assert len(kernel.calls) == 1 + reruns
    lo, hi = _endpoints(rhs)
    rd, ru = oracles.rhs_rd_ru(_terms(5041), bits)
    assert lo < rd and ru <= hi  # wider than RD/RU, never narrower


def test_wide_input_is_rounded_outward_without_reruns(monkeypatch):
    kernel = _Widened(fail=0)
    monkeypatch.setattr(robin, "_ln_fp", kernel)
    W = 53 + _GUARD
    rhs = robin._rhs_from_log(5 << (W - 2), 7 << (W + 100), 53)
    assert len(kernel.calls) == 1
    eg = mpmath.exp(mpmath.euler)
    for x in (mpmath.mpf(5) / 4, mpmath.mpf(7) * 2 ** 100):
        assert oracles.interval_contains_mp(rhs, eg * mpmath.log(x))


def _wide_exp_gamma(widen: int):
    """``exp_gamma`` with each bound moved out by ``widen`` ulps at 2**W."""
    def wide(bits):
        L, H = intervals.exp_gamma(bits)
        return L - widen, H + widen
    return wide


def _printed_enclosures(bits: int) -> list:
    """Right sides of 300 n, the 5040 threshold, and 300 rows' alpha and ratio."""
    cfg = PrecisionConfig(bits, 4096)
    rng = random.Random(4700 + bits)
    out = [robin.robin_rhs(primes.factorize(int(math.exp(
        rng.uniform(math.log(3), math.log(10 ** 12))))), bits)
        for _ in range(300)]
    out.append(theorems.threshold_5040(cfg))
    for row in explorer.conjecture31_table(300, cfg):
        out += [row.alpha, row.ratio]
    return out


@pytest.mark.parametrize("widen", [1, 2 ** 24])
@pytest.mark.parametrize("bits", [1, 4, 53, 212])
def test_enclosures_do_not_depend_on_exp_gammas_width(monkeypatch, bits,
                                                      widen):
    # Ziv's test makes each printed end the true value's RD or RU, so a
    # sound but wider e^gamma moves no byte
    want = _printed_enclosures(bits)
    monkeypatch.setattr(robin, "exp_gamma", _wide_exp_gamma(widen))
    got = _printed_enclosures(bits)
    assert sum(iv is not None for iv in got) > 800
    assert got == want
