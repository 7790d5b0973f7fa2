"""Prime generation, deterministic primality, factorization, parsing.

One module-level prime source, grown on demand behind a lock, is the
only prime API (``primes_up_to``, ``first_primes``, ``nth_prime``).  It
sieves segment by segment, so flag memory stays proportional to the
segment, and readers only see fully built immutable snapshots.  It never
sieves past 10^8: a larger request raises ``LimitTooLarge`` up front.

Raw-integer factorization is supported up to 64-bit magnitude: trial
division by the primes below 10^3, then Brent's variant of Pollard
rho with a deterministic Miller-Rabin primality test (the 12-witness
set, valid far beyond 2^64).  Anything larger must arrive pre-factored
as a factor string.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from math import gcd, isqrt

import numpy as np

from .factorization import Factorization


class LimitTooLarge(Exception):
    """A prime request would sieve past the fixed budget (primes up to 10^8)."""


class InputTooLarge(Exception):
    """Raw integer outside the supported factoring range; pass a factor string."""


class ParseError(Exception):
    """Factor string does not match the grammar."""


class NotPrime(Exception):
    """A factor-string base (or substituted prime) failed the primality check."""


class PrimalityUnknown(ValueError):
    """n is past the deterministic Miller-Rabin range; is_prime cannot decide."""


class DuplicateBase(Exception):
    """The same prime appears twice in a factor string."""


class ZeroExponent(Exception):
    """Exponents in factor strings must be >= 1."""


# Raw n must fit in 64 bits; larger inputs arrive pre-factored.
MAX_FACTOR_INPUT = 2 ** 64 - 1

# Deterministic Miller-Rabin witness set, valid for n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SEGMENT = 1 << 20
_SIEVE_BUDGET = 10 ** 8  # its ~5.8 M primes already fill a few hundred MB


def _simple_sieve(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array; plain sieve, used for base primes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _segmented_primes(limit: int):
    """Yield numpy arrays of primes covering [2, limit] segment by segment."""
    if limit < 2:
        return
    root = isqrt(limit)
    base = _simple_sieve(max(root, 2))
    yield base[base <= limit]
    lo = max(root + 1, 3)
    while lo <= limit:
        hi = min(lo + _SEGMENT - 1, limit)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            if start < p * p:
                start = p * p
            if start <= hi:
                flags[start - lo :: p] = False
        yield (np.nonzero(flags)[0] + lo).astype(np.int64)
        lo = hi + 1


class _PrimeSource:
    """On-demand-growing shared prime list; growth is serialized."""

    def __init__(self):
        self._lock = threading.Lock()
        self._limit = 0
        self._primes: tuple[int, ...] = ()

    def _grow_to(self, limit: int):
        if limit > _SIEVE_BUDGET:
            raise LimitTooLarge(
                f"primes up to {limit} exceed the sieve budget {_SIEVE_BUDGET}"
            )
        with self._lock:
            if limit <= self._limit:
                return
            new_limit = min(max(limit, 2 * self._limit, 1 << 16), _SIEVE_BUDGET)
            chunks = list(_segmented_primes(new_limit))
            self._primes = tuple(int(p) for chunk in chunks for p in chunk)
            self._limit = new_limit

    def primes_up_to(self, limit: int) -> tuple[int, ...]:
        if limit > self._limit:
            self._grow_to(limit)
        primes = self._primes
        # snapshot may extend past limit; cut by bisection
        return primes[: bisect.bisect_right(primes, limit)]

    def first(self, m: int) -> tuple[int, ...]:
        if len(self._primes) < m:
            # p_m < m (ln m + ln ln m) for m >= 6 (Rosser-Schoenfeld);
            # padded, and 16 > p_5 covers the rest
            if m < 6:
                est = 16
            else:
                est = int(m * (math.log(m) + math.log(math.log(m)))) + 16
            self._grow_to(est)
        return self._primes[:m]


_SOURCE = _PrimeSource()


def nth_prime(m: int) -> int:
    """The m-th prime, 1-indexed: nth_prime(1) == 2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _SOURCE.first(m)[m - 1]


def first_primes(m: int) -> tuple[int, ...]:
    """The first m primes as an ascending tuple."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _SOURCE.first(m)


def primes_up_to(limit: int) -> tuple[int, ...]:
    """Shared-source view of the primes <= limit."""
    if limit < 2:
        return ()
    return _SOURCE.primes_up_to(limit)


def primorial_factorization(m: int) -> Factorization:
    """Product of the first m primes, every exponent 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Factorization(tuple((p, 1) for p in _SOURCE.first(m)))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.317e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_DETERMINISTIC_BOUND:
        raise PrimalityUnknown(f"{n} exceeds the deterministic primality range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n with no tiny prime factor."""
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m_batch, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m_batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m_batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in range


def factorize(n: int) -> Factorization:
    """Canonical factorization of 2 <= n <= 2^64 - 1; never wrong, may refuse."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > MAX_FACTOR_INPUT:
        # n itself may have more digits than str() may convert
        raise InputTooLarge(
            f"a {n.bit_length()}-bit n exceeds the 64-bit raw-input range; "
            "supply a factor string instead"
        )
    factors: dict[int, int] = {}
    rem = n
    # strip the dense small factors by trial division; everything past
    # 10^3 is cheaper to find with rho (~sqrt(p) steps) than by trial
    for p in _SOURCE.primes_up_to(min(isqrt(rem), 1000)):
        if p * p > rem:
            break
        while rem % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rem //= p
    stack = [rem] if rem > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            factors[v] = factors.get(v, 0) + 1
            continue
        d = _brent_rho(v)
        stack.append(d)
        stack.append(v // d)
    return Factorization(tuple(factors.items()))


_TERM_RE = re.compile(r"^(\d+)(?:\^(-?\d+))?$")


def parse_factor_string(s: str) -> Factorization:
    """Parse 'p^k*q^j*...' into a canonical Factorization.

    Grammar: term ('*' term)*, term = integer ('^' integer)?, whitespace
    allowed around tokens.  Bases must be distinct primes, exponents >= 1.
    """
    if not s or not s.strip():
        raise ParseError("empty factor string")
    seen: dict[int, int] = {}
    for raw in s.split("*"):
        term = "".join(raw.split())
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad term {raw!r}")
        try:
            base = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError as exc:  # more digits than int() may convert
            raise ParseError(str(exc)) from None
        if exp == 0:
            raise ZeroExponent(f"exponent of {base} is zero")
        if exp < 0:
            raise ParseError(f"negative exponent on {base}")
        if base >= _MR_DETERMINISTIC_BOUND:
            raise ParseError(
                f"base {base} exceeds the deterministic primality range"
            )
        if not is_prime(base):
            raise NotPrime(f"{base} is not prime")
        if base in seen:
            raise DuplicateBase(f"base {base} repeated")
        seen[base] = exp
    return Factorization(tuple(seen.items()))
