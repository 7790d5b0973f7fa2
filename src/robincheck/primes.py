"""Prime generation, deterministic primality, factorization, parsing.

One module-level prime source, grown on demand behind a lock, is the
only prime API (``primes_up_to``, ``first_primes``, ``nth_prime``).
Readers only see fully built immutable snapshots.  It never sieves past
10^8: a larger request raises ``InvalidInput`` up front.

Raw-integer factorization is supported up to 64-bit magnitude: trial
division by the primes below 10^3, then Brent's variant of Pollard
rho with a deterministic Miller-Rabin primality test on the first k
prime bases, k the least with n below psi_k, the smallest strong
pseudoprime to all of them (13 bases, 2 to 41, below psi_13 ~ 3.3e24).
Anything larger must arrive pre-factored as a factor string.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from math import gcd, isqrt

import numpy as np

from .factorization import Factorization
from .intervals import InvalidInput


class InputTooLarge(Exception):
    """Raw integer outside the supported factoring range; pass a factor string."""


# Raw n must fit in 64 bits; larger inputs arrive pre-factored.
MAX_FACTOR_INPUT = 2 ** 64 - 1

# A factored n may have at most this many bits (log2 n).  Memory and time
# grow with it: on a 2-vCPU x86-64 machine under Python 3.11, `check
# 2^33554432` took 14.7 s at a 103 MB peak and `check 3^21000000` 38 s
# at 106 MB, while `check 2^40000000000` would ask for gigabytes.  The
# primorial of the first 10^6 primes has about 2.23e7 bits.
MAX_FACTOR_BITS = 1 << 25
_PAST_BUDGET = f"n exceeds the {MAX_FACTOR_BITS}-bit budget for factored input"

# Deterministic Miller-Rabin: an odd n < psi_k that passes the first k
# prime bases is prime, psi_k the smallest strong pseudoprime to all of
# them (OEIS A014233; psi_7 = psi_8 and psi_9 = psi_10 = psi_11).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 8),
    (3_825_123_056_546_413_051, 11),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MR_DETERMINISTIC_BOUND = _MR_TIERS[-1][0]

# Growing the source to 10^8 peaks near 294 MB RSS (x86-64, CPython 3.11),
# almost all of it the 5.76 M primes as Python ints; the 50 MB of flags are
# freed before then
_SIEVE_BUDGET = 10 ** 8


def _sieve(limit: int) -> np.ndarray:
    """Primes <= limit, for limit >= 2, as an int64 array.

    One pass over the odd n only: flag i stands for 2i + 1, and each odd
    p <= sqrt(limit) strikes its odd multiples from p^2.  The surviving
    indices map to primes in place, with index 0 (n = 1) standing in for 2.
    """
    flags = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    primes = np.flatnonzero(flags)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


class _PrimeSource:
    """On-demand-growing shared prime list; growth is serialized."""

    def __init__(self):
        self._lock = threading.Lock()
        self._limit = 0
        self._primes: tuple[int, ...] = ()

    def _grow_to(self, limit: int, count: int = 0):
        """Sieve to at least ``limit``; keep it only if it holds ``count`` primes.

        The count is read on the sieve's array, so a sieve that ``first``
        will refuse never becomes the tuple of Python ints, several times
        its size.
        """
        if limit > _SIEVE_BUDGET:
            raise InvalidInput(
                f"primes up to {limit} exceed the sieve budget {_SIEVE_BUDGET}"
            )
        with self._lock:
            if limit <= self._limit:
                return
            new_limit = min(max(limit, 2 * self._limit, 1 << 16), _SIEVE_BUDGET)
            primes = _sieve(new_limit)
            if len(primes) < count:
                return
            self._primes = tuple(primes.tolist())
            self._limit = new_limit

    def primes_up_to(self, limit: int) -> tuple[int, ...]:
        if limit > self._limit:
            self._grow_to(limit)
        primes = self._primes
        # snapshot may extend past limit; cut by bisection
        return primes[: bisect.bisect_right(primes, limit)]

    def first(self, m: int) -> tuple[int, ...]:
        if len(self._primes) < m:
            # m (ln m + ln ln m - 1) <= p_m < m (ln m + ln ln m) for m >= 6
            # (Dusart 1999; Rosser-Schoenfeld), and 16 > p_5: grown to the
            # padded upper bound unless the lower one passes the budget
            est = lower = 16
            if m >= 6:
                ln = math.log(m)
                lower = m * (ln + math.log(ln) - 1)
                est = int(m * (ln + math.log(ln))) + 16
            if lower <= _SIEVE_BUDGET:
                self._grow_to(min(est, _SIEVE_BUDGET), m)
            if len(self._primes) < m:
                raise InvalidInput(f"the first {m} primes exceed the sieve "
                                   f"budget {_SIEVE_BUDGET}")
        return self._primes[:m]


_SOURCE = _PrimeSource()


def nth_prime(m: int) -> int:
    """The m-th prime, 1-indexed: nth_prime(1) == 2."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    return _SOURCE.first(m)[m - 1]


def first_primes(m: int) -> tuple[int, ...]:
    """The first m primes as an ascending tuple."""
    if m < 0:
        raise InvalidInput("m must be >= 0")
    return _SOURCE.first(m)


def primes_up_to(limit: int) -> tuple[int, ...]:
    """Shared-source view of the primes <= limit."""
    if limit < 2:
        return ()
    return _SOURCE.primes_up_to(limit)


def factor_small(c: int, small: tuple[int, ...]) -> tuple[list[tuple[int, int]], int]:
    """Trial division of c >= 1 by ``small``, every prime up to small[-1].

    Returns the prime powers (r, e) found, ascending, and the part of c
    they leave: 1 when c factored completely.  Otherwise the primes ran
    out below the square root of that part, which then has no prime
    factor in ``small`` and is at least small[-1]**2.
    """
    powers = []
    for r in small:
        if r * r > c:
            break
        if c % r == 0:
            c //= r
            e = 1
            while c % r == 0:
                c //= r
                e += 1
            powers.append((r, e))
    if c >= small[-1] ** 2:
        return powers, c
    if c > 1:
        powers.append((c, 1))
    return powers, 1


def primorial_factorization(m: int) -> Factorization:
    """Product of the first m primes, every exponent 1."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    return Factorization.from_canonical(
        tuple((p, 1) for p in _SOURCE.first(m)))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.317e24, on the bases n needs."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    for psi, k in _MR_TIERS:
        if n < psi:
            break
    else:
        raise InvalidInput(f"{n} exceeds the deterministic primality range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:k]:
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
        raise InvalidInput("n must be >= 2")
    if n > MAX_FACTOR_INPUT:
        # n itself may have more digits than str() may convert
        raise InputTooLarge(
            f"a {n.bit_length()}-bit n exceeds the 64-bit raw-input range; "
            "supply a factor string instead"
        )
    # strip the dense small factors by trial division; everything past
    # 10^3 is cheaper to find with rho (~sqrt(p) steps) than by trial
    powers, rem = factor_small(n, primes_up_to(1000))
    factors = dict(powers)
    stack = [rem] if rem > 1 else []
    while stack:
        v = stack.pop()
        if is_prime(v):
            factors[v] = factors.get(v, 0) + 1
            continue
        d = _brent_rho(v)
        stack.append(d)
        stack.append(v // d)
    return Factorization(tuple(factors.items()))


_TERM_RE = re.compile(r"^(\d+)(?:\^(-?\d+))?$", re.ASCII)


def within_bit_budget(f: Factorization) -> Factorization:
    """f itself, refused if n has more than MAX_FACTOR_BITS bits.

    It reads only ``f.log2_magnitude()``: no power is built.
    """
    if f.log2_magnitude() > MAX_FACTOR_BITS:
        raise InvalidInput(_PAST_BUDGET)
    return f


def parse_factor_string(s: str) -> Factorization:
    """Parse 'p^k*q^j*...' into a canonical Factorization.

    Grammar: term ('*' term)*, term = integer ('^' integer)?, whitespace
    allowed around tokens.  Bases must be distinct primes, exponents >= 1,
    and n at most MAX_FACTOR_BITS bits (``within_bit_budget``); an
    exponent with more digits than that bound is refused unconverted.
    """
    if not s or not s.strip():
        raise InvalidInput("empty factor string")
    exponents: dict[int, int] = {}
    terms = s.split("*")
    for i, raw in enumerate(terms, 1):
        term = "".join(raw.split())
        m = _TERM_RE.match(term)
        if not m:
            raise InvalidInput(f"bad term {raw!r} (term {i} of {len(terms)})")
        exp_str = m.group(2) or "1"
        if (exp_str[0] != "-"
                and len(exp_str.lstrip("0")) > len(str(MAX_FACTOR_BITS))):
            raise InvalidInput(_PAST_BUDGET)
        try:
            base = int(m.group(1))
            exp = int(exp_str)
        except ValueError as exc:  # more digits than int() may convert
            raise InvalidInput(str(exc)) from None
        if exp == 0:
            raise InvalidInput(f"exponent of {base} is zero")
        if exp < 0:
            raise InvalidInput(f"negative exponent on {base}")
        if base >= _MR_DETERMINISTIC_BOUND:
            raise InvalidInput(
                f"base {base} exceeds the deterministic primality range"
            )
        if not is_prime(base):
            raise InvalidInput(f"{base} is not prime")
        if base in exponents:
            raise InvalidInput(f"base {base} repeated")
        exponents[base] = exp
    return within_bit_budget(Factorization(tuple(exponents.items())))
