"""Independent oracles for the test suite.

Nothing here shares code with the package under test: sigma comes from
plain divisor enumeration (or a naive pure-python divisor sieve), the
P-smooth part of n and its sigma from trial division, the
right-hand side from mpmath at 50 significant digits.  Verdicts with an
oracle margin below 1e-6 are not decided here; callers re-check those
through the certified path.  ``fused_atanh_fp`` is the two-sided atanh
chain, copied as the bit-exact reference for the package's one chain,
``table_ln_fp`` composes it into the table-driven ln bounds by exact
rational arithmetic, and ``rhs_rd_ru`` gives the correctly rounded
right-hand side that every printed enclosure must equal.
``eager_check`` is the exception: it is ``robin.check`` as it was before
the cached right-side floor, built from the package's own ``decide`` and
``robin_rhs``, the reference that the floor's shortcut must reproduce.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 50

# published digits, used to pin the embedded constant independently
GAMMA_60_DIGITS = (
    "0.577215664901532860606512090082402431042159335939923598805767"
)

ORACLE_MARGIN = 1e-6


def sigma_by_divisors(n: int) -> int:
    """Sum of divisors by explicit divisor-pair enumeration."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            q = n // d
            if q != d:
                total += q
        d += 1
    return total


def smooth_part_sigma(n: int, P: int) -> tuple[int, int]:
    """(sigma(s), s) for s the largest divisor of n with no prime above P.

    Trial division by every d in [2, P]: a composite d divides nothing
    that is left, since its primes were divided out before it.
    """
    sig = s = 1
    for d in range(2, P + 1):
        term = pk = 1
        while n % d == 0:
            n //= d
            pk *= d
            term += pk
        sig *= term
        s *= pk
    return sig, s


def sigma_sieve(limit: int) -> list[int]:
    """sigma(n) for 0 <= n <= limit by the additive divisor sieve."""
    sig = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for mult in range(d, limit + 1, d):
            sig[mult] += d
    return sig


def rhs_mp(n: int) -> mpmath.mpf:
    """e^gamma * ln(ln n) at 50 digits; meaningful for n >= 3."""
    return mpmath.exp(mpmath.mp.euler) * mpmath.log(mpmath.log(n))


def mp_of_fraction(fr: Fraction) -> mpmath.mpf:
    return mpmath.mpf(fr.numerator) / mpmath.mpf(fr.denominator)


def interval_contains_mp(iv, value: mpmath.mpf) -> bool:
    lo = iv.lo.as_fraction()
    hi = iv.hi.as_fraction()
    return mp_of_fraction(lo) <= value <= mp_of_fraction(hi)


def dyadic_fraction(d) -> Fraction:
    """The value m * 2**e of a dyadic endpoint."""
    return Fraction(d.m) * Fraction(2) ** d.e


def compare_by_fractions(lhs: Fraction, iv) -> str:
    """'less' / 'greater' / 'overlapping' of lhs against [lo, hi].

    The reference for intervals.compare: each endpoint becomes a reduced
    Fraction and is compared as a rational, as the package did before it
    compared integers at the endpoints' shared exponent.
    """
    if lhs < dyadic_fraction(iv.lo):
        return "less"
    if lhs > dyadic_fraction(iv.hi):
        return "greater"
    return "overlapping"


def _floor_div_shift(num: int, den: int, shift: int) -> int:
    if shift >= 0:
        return (num << shift) // den
    return num // (den << -shift)


def fused_atanh_fp(num: int, den: int, W: int) -> tuple[int, int]:
    """[L, H] on atanh(num/den) * 2**W, 0 <= num/den <= 1/3, both chains fused.

    The reference for ``intervals._atanh_pair``, the package's one atanh
    chain: one loop carries the floor and the ceiling chain and stops
    when the ceiling chain's power reaches its divisor.
    """
    S = 1 << W
    t_lo = _floor_div_shift(num, den, W)
    t_hi = -_floor_div_shift(-num, den, W)
    if t_hi == 0:
        return 0, 0
    t2_lo = (t_lo * t_lo) >> W
    t2_hi = ((t_hi * t_hi) + S - 1) >> W
    L, H = t_lo, t_hi
    p_lo, p_hi = t_lo, t_hi
    k = 1
    while True:
        p_lo = (p_lo * t2_lo) >> W
        p_hi = ((p_hi * t2_hi) + S - 1) >> W
        d = 2 * k + 1
        L += p_lo // d
        H += (p_hi + d - 1) // d
        if p_hi <= d:
            p_next = ((p_hi * t2_hi) + S - 1) >> W
            H += (2 * p_next) // (2 * k + 3) + 2
            return L, H
        k += 1


def table_ln_fp(num: int, den: int, W: int, K: int = 7,
                extra: int = 16) -> tuple[int, int]:
    """[L, H] on ln(num/den) * 2**W, composed from ``fused_atanh_fp`` alone.

    num/den = y * 2**s with i = floor(y * 2**K) in [i0, 2 i0), i0 =
    floor(2**(K+1) / 3), and c = i / 2**K; then
    ln(num/den) = s ln 2 + ln c + 2 atanh((y-c)/(y+c)).  ln c = s_c ln 2 +
    2 atanh(|y_c-1|/(y_c+1)) with c = y_c * 2**s_c, y_c in [2/3, 4/3),
    its ln 2 at W; s ln 2 uses ln 2 at W + extra bits, each end rounded
    once.  The package's table-driven kernel, written with Fractions.
    """
    x = Fraction(num, den)
    i0 = (2 << K) // 3
    s = 0
    while x >= Fraction(2 * i0, 2 ** K) * Fraction(2) ** s:
        s += 1
    while x < Fraction(i0, 2 ** K) * Fraction(2) ** s:
        s -= 1
    y = x / Fraction(2) ** s
    c = Fraction(math.floor(y * 2 ** K), 2 ** K)
    t = (y - c) / (y + c)
    aL, aH = fused_atanh_fp(t.numerator, t.denominator, W)

    def ln2(bits):
        lo, hi = fused_atanh_fp(1, 3, bits)
        return 2 * lo, 2 * hi

    s_c = -1 if c < Fraction(2, 3) else 0
    y_c = c / Fraction(2) ** s_c
    u = abs(y_c - 1) / (y_c + 1)
    uL, uH = fused_atanh_fp(u.numerator, u.denominator, W)
    cL, cH = (2 * uL, 2 * uH) if y_c >= 1 else (-2 * uH, -2 * uL)
    l2L, l2H = ln2(W)
    cL += s_c * (l2L if s_c >= 0 else l2H)
    cH += s_c * (l2H if s_c >= 0 else l2L)
    e2L, e2H = ln2(W + extra)
    sL = math.floor(Fraction(s * (e2L if s >= 0 else e2H), 2 ** extra))
    sH = math.ceil(Fraction(s * (e2H if s >= 0 else e2L), 2 ** extra))
    return cL + 2 * aL + sL, cH + 2 * aH + sH


def rhs_rd_ru(ln_n_terms, bits: int) -> tuple[Fraction, Fraction]:
    """e^gamma * ln(ln n) rounded down and up to ``bits`` significant bits.

    ``ln_n_terms`` is a list of (p, k) with n = prod p^k, so huge n are
    never formed.  The value is taken from mpmath at 3 * bits + 64 bits
    of precision; the grid's exponent comes from the value's magnitude
    (2**(e-1) <= v < 2**e gives steps of 2**(e - bits)).
    """
    with mpmath.workprec(3 * bits + 64):
        ln_n = mpmath.fsum(k * mpmath.log(p) for p, k in ln_n_terms)
        v = mpmath.exp(mpmath.euler) * mpmath.log(ln_n)
        _, e = mpmath.frexp(v)
        scaled = mpmath.ldexp(v, bits - e)
        lo, hi = int(mpmath.floor(scaled)), int(mpmath.ceil(scaled))
    step = Fraction(2) ** (e - bits)
    return lo * step, hi * step


def frozen_record(cls, *values):
    """An instance of the frozen dataclass ``cls`` built as a generated
    ``__init__`` builds one: ``object.__setattr__`` on each field in
    order, the values given then the fields' defaults."""
    fields = dataclasses.fields(cls)
    values += tuple(f.default for f in fields[len(values):])
    obj = object.__new__(cls)
    for f, value in zip(fields, values):
        object.__setattr__(obj, f.name, value)
    return obj


def eager_check(f, cfg):
    """``robin.check`` with no floor: ``decide`` from the start rung, the
    deciding enclosure kept in the result, which ``frozen_record``
    builds."""
    from robincheck import robin
    from robincheck.factorization import sigma_over_n_fraction
    from robincheck.intervals import Comparison

    def result(*values):
        return frozen_record(robin.CheckResult, f, lhs, *values)

    lhs = sigma_over_n_fraction(f)
    if f.entries == ((2, 1),):
        return result(None, robin.Verdict.VIOLATED, cfg.start_bits,
                      robin.REASON_RHS_UNDEFINED)
    cmp_result, rhs, bits = robin.decide(
        lhs, functools.partial(robin.robin_rhs, f), cfg)
    if cmp_result is Comparison.LESS:
        return result(rhs, robin.Verdict.SATISFIED, bits)
    if cmp_result is Comparison.GREATER:
        return result(rhs, robin.Verdict.VIOLATED, bits,
                      robin.REASON_LHS_EXCEEDS_RHS)
    return result(rhs, robin.Verdict.INDETERMINATE, bits,
                  robin.REASON_ESCALATION_EXHAUSTED)


def agrees_with_decimal(iv, stated: str) -> bool:
    """Enclosure matches a stated decimal to one unit in its last place.

    'Interval containing 0.6931471805' style claims quote a rounded
    prefix of the true value; the enclosure itself can be far tighter
    than the quote, so containment of the literal is the wrong check.
    """
    target = Fraction(stated)
    frac_digits = len(stated.split(".")[1]) if "." in stated else 0
    tol = Fraction(1, 10 ** frac_digits)
    mid = (iv.lo.as_fraction() + iv.hi.as_fraction()) / 2
    return abs(mid - target) <= tol


def naive_verdict(n: int, sigma_n: int) -> str:
    """'violated' / 'satisfied' / 'close' (margin below ORACLE_MARGIN)."""
    if n < 3:
        # ln ln n not certifiably positive; inequality cannot hold
        return "violated"
    lhs = mpmath.mpf(sigma_n) / n
    rhs = rhs_mp(n)
    if abs(lhs - rhs) < ORACLE_MARGIN:
        return "close"
    return "violated" if lhs > rhs else "satisfied"


def golden_violator_rows(lo: int, hi: int) -> list[str]:
    """Violator CSV rows for [lo, hi] from the brute-force oracle only."""
    sig = sigma_sieve(hi)
    rows = []
    for n in range(lo, hi + 1):
        verdict = naive_verdict(n, sig[n])
        assert verdict != "close", f"oracle margin too small at {n}"
        if verdict == "violated":
            fr = Fraction(sig[n], n)
            reason = "rhs_undefined" if n < 3 else "lhs_exceeds_rhs"
            rows.append(
                f"{n},{sig[n]},{fr.numerator},{fr.denominator},{reason}"
            )
    return rows


GOLDEN_HEADER = "n,sigma,sigma_over_n_num,sigma_over_n_den,reason"


def write_golden_file(path, lo: int = 2, hi: int = 5040):
    rows = golden_violator_rows(lo, hi)
    with open(path, "w") as fh:
        fh.write(GOLDEN_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def naive_prime_list(limit: int) -> list[int]:
    """Primes by trial division, independent of the sieve under test."""
    out = []
    for n in range(2, limit + 1):
        for p in out:
            if p * p > n:
                out.append(n)
                break
            if n % p == 0:
                break
        else:
            out.append(n)
    return out


def hr_integers(x: int) -> set[int]:
    """Every Hardy-Ramanujan integer 2 <= h <= x, for x < 2 * 10^36.

    h = 2^k1 3^k2 ... p_r^kr with k1 >= ... >= kr >= 1, by recursion over
    the exponent of each prime in turn, from trial-division primes.
    """
    plist = naive_prime_list(100)  # their product is about 2.3 * 10^36
    assert x < 2 * 10 ** 36
    found = set()

    def extend(i: int, h: int, k_max: int):
        for k in range(1, k_max + 1):
            h *= plist[i]
            if h > x:
                return
            found.add(h)
            extend(i + 1, h, k)

    extend(0, 1, x.bit_length())
    return found


if __name__ == "__main__":
    import sys

    write_golden_file(sys.argv[1] if len(sys.argv) > 1 else
                      "tests/data/violators_2_5040.csv")
    print("golden file written")
