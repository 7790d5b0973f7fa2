"""Canonical factored-integer representation n = p_1^k_1 * ... * p_m^k_m."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log2

from .intervals import InvalidInput

# Up to this many bits of n Fraction's one gcd beats cancelling against n's
# primes: trial/gcd time on primorials, colossally abundant numbers read
# 1.05, 1.07 at 10.5k bits; 1.00, 0.99 at 12k; 0.93, 0.91 at 13.2k (2 vCPUs)
_GCD_MAX_BITS = 13_000

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
    for p, k in f.entries:
        c = (p ** (k + 1) - 1) // (p - 1)
        for q in left:
            if q * q > c:
                break
            while c % q == 0:
                c //= q
                if left[q]:
                    left[q] -= 1
                else:
                    kept.append(q)
        else:
            kept.append(c)  # n's primes ran out
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


def sigma_int(f: Factorization) -> int:
    """Exact sum of divisors via the geometric-series closed form."""
    terms = []
    for p, k in f.entries:
        terms.append((p ** (k + 1) - 1) // (p - 1))
    return _tree_product(terms)
