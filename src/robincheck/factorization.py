"""Canonical factored-integer representation n = p_1^k_1 * ... * p_m^k_m."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class EmptyFactorization(Exception):
    """The operation needs at least one prime factor (n >= 2)."""


class InvalidFactorization(Exception):
    """Structural invariant violated (duplicate base, exponent < 1, ...)."""


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


@dataclass(frozen=True)
class Factorization:
    """Ordered (prime, exponent) pairs, primes strictly ascending.

    The empty factorization represents n = 1 and is rejected by every
    checking operation.  Construction canonicalizes (sorts by prime) and
    validates structure; primality of the bases is the producer's
    responsibility and is enforced at the parsing/substitution
    boundaries.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ents = tuple(sorted((int(p), int(k)) for p, k in self.entries))
        for p, k in ents:
            if p < 2:
                raise InvalidFactorization(f"base {p} is not a prime")
            if k < 1:
                raise InvalidFactorization(f"exponent {k} must be >= 1")
        for (p1, _), (p2, _) in zip(ents, ents[1:]):
            if p1 == p2:
                raise InvalidFactorization(f"duplicate base {p1}")
        object.__setattr__(self, "entries", ents)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def n(self) -> int:
        """Materialize the integer; may be astronomically large."""
        return _tree_product([p ** k for p, k in self.entries])

    def log2_magnitude(self) -> float:
        """Cheap upper-ish estimate of log2(n), for display decisions only."""
        total = 0.0
        for p, k in self.entries:
            total += k * p.bit_length()
        return total

    def with_exponent_bumped(self, index: int) -> "Factorization":
        """Copy with entries[index] exponent raised by one."""
        p, k = self.entries[index]
        ents = list(self.entries)
        ents[index] = (p, k + 1)
        return Factorization(tuple(ents))

    def as_string(self) -> str:
        """Canonical factor string, e.g. '2^4*3^2*5*7'."""
        parts = []
        for p, k in self.entries:
            parts.append(f"{p}^{k}" if k > 1 else str(p))
        return "*".join(parts)

    def __str__(self):
        return self.as_string() if self.entries else "1"


def sigma_over_n_fraction(f: Factorization) -> Fraction:
    """Exact sigma(n)/n = prod (p^(k+1) - 1) / (p^k (p - 1)), lowest terms.

    Numerators and denominators are accumulated unreduced through a
    balanced product and reduced once at the end, which keeps the gcd
    work linear-ish even for factorizations with 10^5 primes.
    """
    if not f.entries:
        raise EmptyFactorization("sigma(1) has no factored form here")
    nums = []
    dens = []
    for p, k in f.entries:
        pk = p ** k
        nums.append(pk * p - 1)
        dens.append(pk * (p - 1))
    return Fraction(_tree_product(nums), _tree_product(dens))


def sigma_int(f: Factorization) -> int:
    """Exact sum of divisors via the geometric-series closed form."""
    if not f.entries:
        raise EmptyFactorization("sigma(1) has no factored form here")
    terms = []
    for p, k in f.entries:
        terms.append((p ** (k + 1) - 1) // (p - 1))
    return _tree_product(terms)
