"""Independent oracles for the test suite.

Nothing here shares code with the package under test: sigma comes from
plain divisor enumeration (or a naive pure-python divisor sieve), the
right-hand side from mpmath at 50 significant digits.  Verdicts with an
oracle margin below 1e-6 are not decided here; callers re-check those
through the certified path.  ``fused_ln_fp`` is the package's earlier
two-sided ln kernel, copied as the bit-exact reference for its
one-sided successor.
"""

from __future__ import annotations

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

    The package's earlier kernel, kept verbatim as the reference for the
    one-sided ``intervals._atanh_bound``: one loop carries the floor and
    the ceiling chain and stops when the ceiling chain's power reaches
    its divisor.
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


def fused_ln_fp(num: int, den: int, W: int) -> tuple[int, int]:
    """[L, H] on ln(num/den) * 2**W from ``fused_atanh_fp``, num, den > 0.

    The package's earlier two-sided ln kernel, verbatim but uncached:
    reduction to y in [2/3, 4/3) by a power of two, ln y = 2 atanh
    ((y-1)/(y+1)) and ln 2 = 2 atanh(1/3).
    """
    if num == den:
        return 0, 0
    n3, d2 = 3 * num, 2 * den
    s = n3.bit_length() - d2.bit_length()
    if n3 << max(-s, 0) < d2 << max(s, 0):
        s -= 1
    a, b = num << max(-s, 0), den << max(s, 0)
    tn, td = a - b, a + b
    if tn >= 0:
        aL, aH = fused_atanh_fp(tn, td, W)
        L, H = 2 * aL, 2 * aH
    else:
        aL, aH = fused_atanh_fp(-tn, td, W)
        L, H = -2 * aH, -2 * aL
    l2L, l2H = fused_atanh_fp(1, 3, W)
    l2L, l2H = 2 * l2L, 2 * l2H
    if s >= 0:
        return L + s * l2L, H + s * l2H
    return L + s * l2H, H + s * l2L


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


if __name__ == "__main__":
    import sys

    write_golden_file(sys.argv[1] if len(sys.argv) > 1 else
                      "tests/data/violators_2_5040.csv")
    print("golden file written")
