"""Canonical factored-integer representation n = p_1^k_1 * ... * p_m^k_m."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log2

from .intervals import InvalidInput

# Below this many entries Fraction's one gcd of the unreduced terms is
# cheaper than cancelling prime by prime (measured on primorials).
_CANCEL_MIN_ENTRIES = 1200
# sigma(p) = p + 1 is factored over the primes up to this bound, which
# factors it completely for every p below about 4 * 10^6
_SMALL_PRIME_BOUND = 1 << 11

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

    A factorization of fewer than ``_CANCEL_MIN_ENTRIES`` entries builds
    the unreduced fraction and lets ``Fraction`` reduce it.  That one gcd
    is quadratic in the size of n in CPython, so a larger factorization
    is reduced prime by prime instead: each sigma(p) = p + 1 is factored
    over the primes up to ``_SMALL_PRIME_BOUND`` and its primes cancel
    against the denominator's exponents, since only n's primes can
    divide the reduced denominator.  The rest of the numerator (every
    sigma(p^k) with k > 1, and any part of a p + 1 that trial division
    could not factor) meets the denominator in one gcd whose smaller
    side is only that rest.
    """
    if len(f.entries) < _CANCEL_MIN_ENTRIES:
        nums = []
        dens = []
        for p, k in f.entries:
            pk = p ** k
            nums.append(pk * p - 1)
            dens.append(pk * (p - 1))
        return Fraction(_tree_product(nums), _tree_product(dens))
    from .primes import factor_small, primes_up_to  # primes imports this module
    small = primes_up_to(_SMALL_PRIME_BOUND)
    left = dict(f.entries)  # each prime's exponent still in the denominator
    kept = []  # numerator terms coprime to the reduced denominator
    rest = []  # numerator terms still to meet the denominator
    for p, k in f.entries:
        if k > 1:
            rest.append((p ** (k + 1) - 1) // (p - 1))
            continue
        powers, unfactored = factor_small(p + 1, small)
        if unfactored > 1:
            rest.append(unfactored)
        term = 1
        for r, e in powers:
            d = left.get(r, 0)
            if d:
                cut = min(d, e)
                left[r] = d - cut
                e -= cut
            if e:
                term *= r ** e
        kept.append(term)
    num = _tree_product(kept)
    den = _tree_product([p ** d for p, d in left.items() if d])
    if rest:
        tail = _tree_product(rest)
        g = gcd(tail, den)
        num *= tail // g
        if g != 1:
            den //= g
    return _coprime_fraction(num, den)


def sigma_int(f: Factorization) -> int:
    """Exact sum of divisors via the geometric-series closed form."""
    terms = []
    for p, k in f.entries:
        terms.append((p ** (k + 1) - 1) // (p - 1))
    return _tree_product(terms)
