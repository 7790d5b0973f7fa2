"""Prime generation, deterministic primality, factorization, parsing.

One module-level prime source, grown on demand behind a lock, is the
only prime API (``primes_up_to``, ``first_primes``, ``nth_prime``).
Readers only see fully built immutable snapshots.  It never sieves past
10^8: a larger request raises ``InvalidInput`` up front.

Raw-integer factorization is supported up to 64-bit magnitude.  One
gcd of n with the product of the primes below 10^3 names the small
primes that divide n, and only those are divided out.  What is left has
no prime factor below 10^3, so each part of it below 10^6 is prime, and
a larger part is prime when a deterministic Miller-Rabin test on the
first k prime bases says so, k the least with the part below psi_k, the
smallest strong pseudoprime to all of them (13 bases, 2 to 41, below
psi_13 ~ 3.3e24).  A composite part v is split in stages, cheapest
first: a perfect square gives its root; from 45 bits on, Pollard's
p - 1 (stage 1 to B1, Montgomery's paired stage 2 to B2) finds a p
whose p - 1 is smooth; one Brent rho walk splits the rest.  No stage
can make a result wrong: each only proposes a divisor, a gcd with v or
the root of v itself, strictly between 1 and v, so every split is
exact, and every final part is declared prime only by the bound or the
test above.  Which stage splits v changes the path, never the entries,
which come out sorted.
Anything larger must arrive pre-factored as a factor string.
"""

from __future__ import annotations

import bisect
import functools
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


def factor_small(c: int, small: tuple[int, ...]) -> list[tuple[int, int]]:
    """The prime powers (r, e) of c >= 1, ascending, by trial division.

    ``small`` holds every prime up to small[-1], and c must have at most
    one prime factor above small[-1], counted with multiplicity: once
    the trial primes pass the square root of what is left, or run out,
    that part is 1 or prime.
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
    if c > 1:
        powers.append((c, 1))
    return powers


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


# The staged split of a composite part v (see the module docstring).
# p - 1 runs only for v of at least _STAGED_BITS bits, which keeps it
# away from every n <= 10^12, with stage 1 to _PM1_B1 and stage 2 to
# _PM1_B2.  The sweep below timed each point against the factorize it
# replaced (trial division to 10^3, then the full rho), the two
# alternating per n, min of 3 passes, on the 120 products of two 31-bit
# primes of perfbench's certify seeds 31-35, 3,000 log-uniform
# n <= 10^12 and 1,500 uniform 64-bit n (Python 3.11, x86-64, one core of
# a machine whose speed swings 1.9x; repeats moved a ratio by up to 0.05).
# Ratio of times, lower is faster; * marks the point kept:
#
#     B1       B2  bits | semiprimes  n <= 10^12  64-bit n
# * 5000   150000    45 |   0.49        0.72        0.96
#   neither stage       |   0.99        0.71        0.95
#   (the gcd, the square check and the full rho only)
#
# The points around it were timed the same way with a short Brent rho,
# its cycle capped at 2^9, run before p - 1:
#
#     B1       B2  bits | semiprimes  n <= 10^12  64-bit n
#   5000   150000    45 |   0.51-0.53   0.72-0.77   0.81-0.89
#   5000   150000    40 |   0.53        0.72        0.83
#   5000   150000    50 |   0.52        0.72        0.84
#   5000   300000    45 |   0.55        0.72        0.91
#   3000   100000    45 |   0.52        0.71        0.86
#  10000   300000    45 |   0.50        0.72        0.91
#  10000   600000    45 |   0.55        0.72        0.97
#
# That short rho split none of the 240 staged parts of 240 certify
# semiprimes (drawn as certify draws them, seeds 501-510; p - 1 split
# 153, the full rho 87) but 744 of the 973 staged parts of 1,500 uniform
# 64-bit n, whose second largest factor is usually small; without it
# p - 1 splits 890 and the one rho 57 of their 947.  Timed against the
# split that ran it (min of 3 passes, six alternating process pairs, a
# 2-vCPU x86-64 machine, Python 3.11), the split without it read
# 0.88-1.03 (median 0.92) on the semiprimes, 0.89-1.09 (0.99) on
# n <= 10^12, which runs the same code, and 0.99-1.09 (1.09) on uniform
# 64-bit n.  The split runs no short rho: it pays only on uniform 64-bit
# n, which no benchmark workload draws.
#
# A stage 2 that steps through the primes by their gaps, two products per
# prime instead of one per pair, read 0.65 and 1.08 at 5000, 150000, 45
# with the short rho.  The column n <= 10^12 never reaches the staged
# split; its gain is the one gcd that replaces trial division.
# _PM1_CHUNK and _PM1_GCD_BLOCKS only set how often a gcd is taken: one
# per 32 primes in stage 1, one per 16 blocks of _PM1_D in stage 2.
_STAGED_BITS = 45
_PM1_B1 = 5_000
_PM1_B2 = 150_000
_PM1_CHUNK = 32
_PM1_D = 2310     # 2 * 3 * 5 * 7 * 11
_PM1_GCD_BLOCKS = 16


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
                    # the sign of x - y leaves gcd(q, n) as it is
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m_batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in range


@functools.cache
def _small_primorial() -> int:
    """The product of the primes below 10^3."""
    return math.prod(primes_up_to(1000))


@functools.cache
def _pm1_tables() -> tuple[tuple, int, tuple, tuple[bytes, ...]]:
    """p - 1's tables, built on first use.

    Stage 1: chunks of _PM1_CHUNK primes p <= B1, each as (the product of
    their largest powers <= B1, those primes with multiplicity).  Stage 2:
    the residues r < D/2 prime to D, the first block k0, and for each
    block k from k0 on the indices i with k*D - r_i or k*D + r_i a prime
    in (B1, B2].  Every such prime q is k*D +- r for k = round(q/D).
    """
    plist = primes_up_to(_PM1_B2)
    cut = bisect.bisect_right(plist, _PM1_B1)
    chunks = []
    for i in range(0, cut, _PM1_CHUNK):
        steps = []
        for p in plist[i : i + _PM1_CHUNK]:
            pk = p
            while pk * p <= _PM1_B1:
                pk *= p
                steps.append(p)
            steps.append(p)
        chunks.append((math.prod(steps), tuple(steps)))
    residues = tuple(r for r in range(1, _PM1_D // 2) if gcd(r, _PM1_D) == 1)
    stage2 = bytearray(_PM1_B2 + _PM1_D)
    for q in plist[cut:]:
        stage2[q] = 1
    k0 = (plist[cut] + _PM1_D // 2) // _PM1_D
    k1 = (plist[-1] + _PM1_D // 2) // _PM1_D
    blocks = tuple(
        bytes(i for i, r in enumerate(residues)
              if stage2[k * _PM1_D - r] or stage2[k * _PM1_D + r])
        for k in range(k0, k1 + 1))
    return tuple(chunks), k0, residues, blocks


def _pminus1(v: int) -> int | None:
    """A nontrivial factor of odd composite v, or None: Pollard's p - 1.

    It finds a prime p | v whose p - 1 is B1-smooth but for at most one
    prime in (B1, B2], unless every prime of v does at the same step.
    Stage 1 raises x = 2 to each chunk's prime powers with one gcd per
    chunk; a chunk whose gcd is v is redone one prime at a time.  Stage 2
    pairs q = kD - r and kD + r (Montgomery 1987): with V_m = x^m + x^-m,
    V_kD - V_r = x^-kD (x^kD - x^r)(x^kD - x^-r), one product for both.
    """
    chunks, k0, residues, blocks = _pm1_tables()
    x = 2
    for e, steps in chunks:
        y = pow(x, e, v)
        g = gcd(y - 1, v)
        if g == 1:
            x = y
            continue
        if g == v:
            for p in steps:
                x = pow(x, p, v)
                g = gcd(x - 1, v)
                if g != 1:
                    break
        return g if 1 < g < v else None
    x_inv = pow(x, -1, v)

    def lucas(m):
        return (pow(x, m, v) + pow(x_inv, m, v)) % v

    v_r = [lucas(r) for r in residues]
    v_d = lucas(_PM1_D)
    v_k, v_prev = lucas(k0 * _PM1_D), lucas((k0 - 1) * _PM1_D)
    acc = 1
    for j, block in enumerate(blocks, 1):
        for i in block:
            acc = acc * (v_k - v_r[i]) % v
        v_k, v_prev = (v_k * v_d - v_prev) % v, v_k
        if j % _PM1_GCD_BLOCKS == 0 or j == len(blocks):
            g = gcd(acc, v)
            if g != 1:
                return g if g != v else None
    return None


def _split(v: int) -> int:
    """A factor strictly between 1 and v of composite v > 10^6.

    v has no prime factor below 10^3.  The stages run cheapest first;
    each result is checked by its gcd or by squaring, never trusted.
    """
    root = isqrt(v)
    if root * root == v:
        return root
    if v.bit_length() >= _STAGED_BITS:
        d = _pminus1(v)
        if d:
            return d
    return _brent_rho(v)


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
    # one gcd names the primes below 10^3 that divide n, and only they are
    # divided out; everything past 10^3 is cheaper to split than to try
    found = factor_small(gcd(n, _small_primorial()), primes_up_to(1000))
    factors = {}
    for r, _ in found:
        e = 0
        while n % r == 0:
            n //= r
            e += 1
        factors[r] = e
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        # v has no prime factor below 10^3, so v < 10^6 is prime
        if v < 10 ** 6 or is_prime(v):
            factors[v] = factors.get(v, 0) + 1
            continue
        d = _split(v)
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
