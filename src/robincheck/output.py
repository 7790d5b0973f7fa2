"""Number formatting shared by the CLI renderers.

Every decimal the CLI prints is derived from the exact rational or the
certified enclosure by integer arithmetic; no value is ever recomputed
in binary floating point on the way out, and exact integers of any size
convert in near-linear time (``int_str``).
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from typing import Optional

from .intervals import Dyadic, RealInterval


# Python 3.11's int-to-str is quadratic in the digit count, but below
# about 2^15 bits the split below does not beat it (measured).
_INT_STR_LEAF_BITS = 1 << 15


def int_str(n: int) -> str:
    """str(n), in time near-linear in the digit count for huge n.

    n is split in binary, the pieces become exact Decimals and are
    recombined as hi * 2**k + lo, so the one quadratic conversion left
    is that of pieces of at most ``_INT_STR_LEAF_BITS`` bits.  n of at
    most that size is str(n), so past 4300 digits it needs Python's
    int/str digit limit lifted, as ``cli.main`` does.
    """
    if n.bit_length() <= _INT_STR_LEAF_BITS:
        return str(n)
    pow2: dict[int, decimal.Decimal] = {}

    def to_decimal(v: int, bits: int) -> decimal.Decimal:
        if bits <= _INT_STR_LEAF_BITS:
            return decimal.Decimal(v)
        k = bits // 2
        if k not in pow2:
            pow2[k] = decimal.Decimal(2) ** k
        hi = v >> k
        return to_decimal(hi, bits - k) * pow2[k] + to_decimal(v - (hi << k), k)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(to_decimal(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def sig_str_num_den(num: int, den: int, sig: int = 6) -> str:
    """Positional decimal of num/den, rounded half-even to sig significant digits."""
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    ip = num // den
    if ip > 0:
        e10 = len(str(ip)) - 1
    else:
        e10 = -1
        scaled = num * 10
        while scaled < den:
            scaled *= 10
            e10 -= 1
    decimals = sig - 1 - e10
    while True:
        if decimals >= 0:
            scaled_num = num * 10 ** decimals
            scaled_den = den
        else:
            scaled_num = num
            scaled_den = den * 10 ** (-decimals)
        q, r = divmod(scaled_num, scaled_den)
        if 2 * r > scaled_den or (2 * r == scaled_den and q % 2 == 1):
            q += 1
        if len(str(q)) > sig and decimals > 0:
            decimals -= 1  # carry (e.g. 9.99999x -> 10.0000) dropped a place
            continue
        break
    s = str(q)
    if decimals <= 0:
        return sign + s + "0" * (-decimals)
    s = s.rjust(decimals + 1, "0")
    return f"{sign}{s[:-decimals]}.{s[-decimals:]}"


def sig_str_fraction(fr: Fraction, sig: int = 6) -> str:
    return sig_str_num_den(fr.numerator, fr.denominator, sig)


def sig_str_dyadic(d: Dyadic, sig: int = 6) -> str:
    num, den = d.as_num_den()
    return sig_str_num_den(num, den, sig)


def interval_json(iv: Optional[RealInterval]):
    if iv is None:
        return None
    return {"lo": iv.lo.decimal_str(), "hi": iv.hi.decimal_str()}


def interval_sig(iv: RealInterval, sig: int = 6) -> str:
    """Human-mode rendering: [lo, hi] at sig digits each."""
    return f"[{sig_str_dyadic(iv.lo, sig)}, {sig_str_dyadic(iv.hi, sig)}]"
