"""Canonical factored-integer representation n = p_1^k_1 * ... * p_m^k_m."""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log2

from .intervals import InvalidInput, RealInterval

# Up to this many bits of n Fraction's one gcd beats cancelling against n's
# primes: trial/gcd time on primorials, colossally abundant numbers read
# 1.05, 1.07 at 10.5k bits; 1.00, 0.99 at 12k; 0.93, 0.91 at 13.2k (2 vCPUs)
_GCD_MAX_BITS = 13_000

# A sigma(p^k) of at most this many bits meets only the trial primes that
# every k = 1 entry needs, and what they leave goes to the final gcd.  The
# first 3000 primes to the 5th power took 0.51 s at 64 bits against 0.10 s
# here, and to the 30th power 3.2 s at 1024 bits against 2.2 s (2 vCPUs)
_SMALL_SIGMA_BITS = 256

# Fraction(num, den) from coprime num, den > 0 without Fraction's gcd:
# Python 3.12 names it _from_coprime_ints, 3.10 and 3.11 _normalize=False
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or (
    lambda num, den: Fraction(num, den, _normalize=False))


def _tree_product(values: list[int]) -> int:
    """Balanced product; avoids quadratic growth on long factor lists."""
    if not values:
        return 1
    while len(values) > 1:
        values = [
            values[i] * values[i + 1] if i + 1 < len(values) else values[i]
            for i in range(0, len(values), 2)
        ]
    return values[0]


@dataclass(frozen=True, slots=True)
class Factorization:
    """Ordered (prime, exponent) pairs, primes strictly ascending.

    Construction canonicalizes (sorts by prime) and validates structure,
    refusing the empty factorization (n = 1) here, so no operation on a
    factorization meets it; primality of the bases is the producer's
    responsibility and is enforced at the parsing/substitution
    boundaries.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ents = tuple(sorted((int(p), int(k)) for p, k in self.entries))
        if not ents:
            raise InvalidInput("n = 1 has no prime factor; n must be >= 2")
        for p, k in ents:
            if p < 2:
                raise InvalidInput(f"base {p} is not a prime")
            if k < 1:
                raise InvalidInput(f"exponent {k} must be >= 1")
        for (p1, _), (p2, _) in zip(ents, ents[1:]):
            if p1 == p2:
                raise InvalidInput(f"duplicate base {p1}")
        object.__setattr__(self, "entries", ents)

    @classmethod
    def from_canonical(cls, entries: tuple[tuple[int, int], ...]
                       ) -> "Factorization":
        """The factorization of entries already in canonical form.

        For producers that emit at least one int (prime, exponent) pair,
        with strictly ascending primes and exponents >= 1: it skips the
        sort and the checks that ``__post_init__`` makes, and the result
        equals the validated constructor's.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "entries", entries)
        return f

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def n(self) -> int:
        """Materialize the integer; may be astronomically large."""
        return _tree_product([p ** k for p, k in self.entries])

    def log2_magnitude(self) -> float:
        """log2(n) as the float sum of k * log2(p); no power is built."""
        return sum(k * log2(p) for p, k in self.entries)

    def as_string(self) -> str:
        """Canonical factor string, e.g. '2^4*3^2*5*7'."""
        parts = []
        for p, k in self.entries:
            parts.append(f"{p}^{k}" if k > 1 else str(p))
        return "*".join(parts)

    __str__ = as_string


def sigma_over_n_fraction(f: Factorization) -> Fraction:
    """Exact sigma(n)/n = prod sigma(p^k) / prod p^k, in lowest terms.

    While sum k * bit_length(p) is at most ``_GCD_MAX_BITS``, ``Fraction``
    reduces the terms with one gcd, quadratic in CPython.  A larger n is
    reduced against its own primes, the only ones that can divide the
    reduced denominator: each c = sigma(p^k) is divided by n's primes q in
    ascending order until q^2 > c, each q cancelling while its exponent
    in n lasts.  If n's primes run out first, c has none of them.
    Otherwise any prime of n left in c exceeds sqrt(c), so at most one is:
    c is 1, one prime of n, which cancels unless its exponent is used up
    (exponents only fall, so a used-up one stays in the numerator), or a
    part with a prime outside n; only such parts meet the denominator's gcd.
    A c of at most ``_SMALL_SIGMA_BITS`` bits is tried only against n's
    primes up to sqrt(p_max + 1) and the next one, which settle every
    k = 1 entry; if they run out first, what is left of c meets the gcd
    too, so a product of many squared primes costs no trial per pair of
    its primes.  The gcd leaves tail / g and den / g coprime, and every
    kept part is coprime to den, so the result is in lowest terms.
    """
    bits = 0  # from n's bit length up to twice it
    for p, k in f.entries:
        bits += k * p.bit_length()
    if bits <= _GCD_MAX_BITS:
        nums = []
        dens = []
        for p, k in f.entries:
            pk = p ** k
            nums.append(pk * p - 1)
            dens.append(pk * (p - 1))
        return Fraction(_tree_product(nums), _tree_product(dens))
    left = dict(f.entries)  # n's primes, ascending, to the exponent left
    kept = []  # numerator parts coprime to the reduced denominator
    rest = []  # numerator parts still to meet the denominator
    qs = list(left)
    few = qs[:bisect(qs, isqrt(qs[-1] + 1)) + 1]
    for p, k in f.entries:
        c = (p ** (k + 1) - 1) // (p - 1)
        tried = few if c.bit_length() <= _SMALL_SIGMA_BITS else qs
        for q in tried:
            if q * q > c:
                break
            while c % q == 0:
                c //= q
                if left[q]:
                    left[q] -= 1
                else:
                    kept.append(q)
        else:
            # no prime of n is left in c once they have all been tried
            (kept if len(tried) == len(qs) else rest).append(c)
            continue
        d = left.get(c)
        if d:
            left[c] = d - 1
        elif d == 0:
            kept.append(c)
        elif c > 1:
            rest.append(c)
    tail = _tree_product(rest)
    den = _tree_product([p ** d for p, d in left.items() if d])
    g = gcd(tail, den)
    return _coprime_fraction(_tree_product(kept) * (tail // g), den // g)


def sigma_over_n_interval(f: Factorization, W: int) -> RealInterval:
    """Outward enclosure [lo, hi] * 2**-W of sigma(n)/n, with no big p^k.

    sigma(n)/n is the product of f(p, k) = sigma(p^k)/p^k = p/(p-1) *
    (1 - p^-(k+1)).  A running pair from 2**W takes each factor, lo
    rounded down and hi up, so [lo, hi] * 2**-W holds the product after
    every step.  Where (k+1)(bit_length(p) - 1) > W + 1, p^(k+1) >=
    2**(W+2), so f(p, k) lies in p/(p-1) * [1 - 2**-(W+1), 1] and no
    power of p is built; otherwise f(p, k) is sigma(p^k) / p^k exactly,
    numbers of at most W + k + 2 bits ((p + 1) / p for k = 1).  Each step
    moves an end by at most an ulp, and the lower one by half the running
    value more where p^(k+1) is not built; the later factors scale that by
    at most sigma(n)/n, so the width is below 3m * sigma(n)/n ulps for m
    entries.
    """
    lo = hi = 1 << W
    for p, k in f.entries:
        if k == 1:  # most entries of a big n: (p + 1) / p
            c, pk = p + 1, p
        elif (k + 1) * (p.bit_length() - 1) > W + 1:
            lo = lo * p * ((2 << W) - 1) // ((p - 1) << (W + 1))
            hi = -(-hi * p // (p - 1))
            continue
        else:
            pk = p ** k
            c = (pk * p - 1) // (p - 1)
        lo = lo * c // pk
        hi = -(-hi * c // pk)
    return RealInterval(lo, hi, -W)


def sigma_int(f: Factorization) -> int:
    """Exact sum of divisors via the geometric-series closed form."""
    terms = []
    for p, k in f.entries:
        terms.append((p ** (k + 1) - 1) // (p - 1))
    return _tree_product(terms)
