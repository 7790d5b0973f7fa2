"""Range scanning and the two conjecture experiments.

The scanner certifies a whole segment at a time.  sigma(n) for every n
in the segment comes from a multiplicative sieve over the primes
p <= sqrt(segment end), with no division until the end: each multiple
of p multiplies in 1 + p + ... + p^k and records p^k, by strided numpy
slices for the primes up to sqrt(segment width) and by batched
``np.multiply.at`` index lists for the rest.  One division of n by what
was recorded leaves a prime cofactor or 1, and the prime contributes its
own factor; no per-n trial division happens.
Each block of consecutive n is then compared against a certified lower
bound of the right-hand side at the block start (the RHS is increasing
in n), using pure int64 arithmetic, and only the handful of
near-extremal candidates that survive the block filter are routed
through the fully certified per-n check.  Violations are therefore
confirmed by the exact machinery, and everything filtered out is
certified Satisfied by the block bound.  Where the RHS kernel gives no
bound (the block at 2, since ln 2 < 1) the threshold is 0 and every n
of the block is a candidate.

Output is deterministic and independent of the worker count: the
segment grid depends only on (lo, hi, segment size) and results are
merged in ascending order.  ``_pool_imap`` is the one worker pool, for
the scanner and the conjecture-2 search; it never starts more processes
than there are CPUs or tasks.
"""

from __future__ import annotations

import bisect
import functools
import multiprocessing
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod
from typing import Iterator, Optional, Sequence

import numpy as np

from .factorization import Factorization
from .intervals import (
    _GUARD,
    DEFAULT_PRECISION,
    InvalidInput,
    PrecisionConfig,
    RealInterval,
    _ln_fp,
    outward_ratio,
)
from .robin import (
    CheckResult,
    Verdict,
    _ln_prime_fp,
    _rhs_from_log,
    check,
    log_n,
)
from . import primes as _primes


SEGMENT_SIZE = 1 << 20
# n per block-filter threshold.  Uncapped blocks [t, min(2t, b)) take 1
# threshold per 2^20 window instead of 256 and find the same candidates,
# but the cap also bounds the int64 temporaries sig << _THR_SHIFT and
# thr * ns, 8 MB each over a whole window: scan peak RSS went from 60.3
# to 67.8 MB without it.
_BLOCK = 4096
# tier-1 threshold fixed-point scale; 2^-16 of slack costs a few extra
# candidates and keeps the comparison in exact int64 arithmetic
_THR_SHIFT = 16
MAX_SCAN_HI = 10 ** 12  # keeps sigma * 2^16 and thr * n inside int64
# index entries per batch of the sieving primes above isqrt(width): the
# batch temporaries stay near 2 MiB at every height, where indexing all
# of a 2^20 window's entries at once would add tens of MiB
_SIEVE_BATCH = 1 << 16


@dataclass(frozen=True)
class ScanReport:
    lo: int
    hi: int
    violations: tuple[tuple[int, CheckResult], ...]
    indeterminates: tuple[int, ...]
    checked_count: int


def _sigma_segment(a: int, b: int) -> np.ndarray:
    """sigma(n) for n in [a, b) as int64, via a multiplicative prime sieve.

    For every prime p <= sqrt(b - 1), each multiple's sigma picks up the
    factor 1 + p + ... + p^k for the exact power p^k it holds, and
    ``found`` (the product of the prime powers taken out of n so far)
    picks up p^k.  One division at the end leaves n // found, which is 1
    or a single prime above sqrt(b - 1) that contributes its own factor.

    A prime with p^2 <= width strides over the window once per power.
    The primes above isqrt(width) have at most one multiple of p^2 in
    the window; their multiples are indexed all at once, _SIEVE_BATCH
    entries at a time, multiplied in as 1 + p and p, and the few
    multiples of p^2 are fixed up one by one.

    int64 headroom for b <= MAX_SCAN_HI + 1: found divides n <= 10^12.
    Each partial product in sig is sigma of a unitary divisor of n, or,
    before a p^2 fix-up, such a product with 1 + p <= sigma(p^k) in place
    of sigma(p^k), so it stays <= sigma(n) < 7n < 2^43, and a per-prime
    factor stays below 2 * p^k <= 2 * 10^12.
    """
    width = b - a
    sig = np.ones(width, dtype=np.int64)
    found = np.ones(width, dtype=np.int64)
    plist = _primes.primes_up_to(isqrt(b - 1))
    n_small = bisect.bisect_right(plist, isqrt(width))
    for p in plist[:n_small]:
        s = -a % p
        view = found[s::p]
        view *= p
        term = 1 + p
        q = p * p
        j = -a % q
        if j < width:
            # some multiple holds p^2: per-element factors from here on
            term = np.full(view.size, 1 + p, dtype=np.int64)
            while j < width:
                # in the view, multiples of q = p^k are q // p apart
                i, step = (j - s) // p, q // p
                view[i::step] *= p
                term[i::step] += q
                q *= p
                j = -a % q
        sig[s::p] *= term

    big = np.array(plist[n_small:], dtype=np.int64)
    first = -a % big
    count = (width - 1 - first) // big + 1  # 0 when first >= width
    # the multiples of big[g] are entries ends[g] - count[g] to
    # ends[g] - 1 of one list over all big primes; entry t is the index
    # origin[g] + t * big[g]
    ends = np.cumsum(count)
    origin = first - (ends - count) * big
    start = 0
    while start < big.size:
        base = int(ends[start] - count[start])
        stop = max(int(np.searchsorted(ends, base + _SIEVE_BATCH, "right")),
                   start + 1)
        step = np.repeat(big[start:stop], count[start:stop])
        idx = np.repeat(origin[start:stop], count[start:stop])
        idx += np.arange(base, base + step.size, dtype=np.int64) * step
        # two big primes can divide one n: unbuffered products
        np.multiply.at(found, idx, step)
        step += 1
        np.multiply.at(sig, idx, step)
        start = stop
    square = -a % (big * big)
    hit = square < width
    for p, j in zip(big[hit].tolist(), square[hit].tolist()):
        # n = a + j holds p^k, k >= 2: swap 1 + p for sigma(p^k)
        n, q, term = a + j, p * p, 1 + p + p * p
        while n % (q * p) == 0:
            q *= p
            term += q
        sig[j] = sig[j] // (1 + p) * term
        found[j] *= q // p

    np.floor_divide(np.arange(a, b, dtype=np.int64), found, out=found)
    found += found > 1
    sig *= found
    return sig


def _rhs_floor_scaled(t: int, bits: int) -> int:
    """floor(rhs_lower_bound(t) * 2^_THR_SHIFT) for an integer t >= 2.

    0 when the RHS kernel cannot certify ln t > 1, which is the case for
    t = 2 (ln 2 < 1) and for no t >= 3 at any usable precision; a zero
    threshold makes every n of the block a candidate.
    """
    rhs = _rhs_from_log(*_ln_fp(t, t, 1, bits + _GUARD), bits,
                        lambda b: _ln_fp(t, t, 1, b + _GUARD))
    if rhs is None:
        return 0
    d = rhs.lo
    shift = d.e + _THR_SHIFT
    return d.m << shift if shift >= 0 else d.m >> -shift


def _scan_segment(a: int, b: int, cfg: PrecisionConfig) -> list:
    """(n, CheckResult) of each n in [a, b) not certified satisfied, by n."""
    candidates: list[int] = []
    sig = _sigma_segment(a, b)
    ns = np.arange(a, b, dtype=np.int64)
    t = a
    while t < b:
        # below _BLOCK, a block [t, 2t) keeps the bound at t close to the
        # RHS of its last n, where the RHS still climbs steeply
        t_end = min(t + _BLOCK, 2 * t, b)
        thr = _rhs_floor_scaled(t, cfg.start_bits)
        i0, i1 = t - a, t_end - a
        mask = (sig[i0:i1] << _THR_SHIFT) >= thr * ns[i0:i1]
        if mask.any():
            candidates.extend(int(v) for v in ns[i0:i1][mask])
        t = t_end

    results = ((n, check(_primes.factorize(n), cfg)) for n in candidates)
    return [(n, r) for n, r in results if r.verdict is not Verdict.SATISFIED]


def _pool_imap(fn, tasks: Sequence, worker_count: int,
               chunksize: int = 1) -> Iterator:
    """fn over tasks in order, on min(worker_count, CPUs, len(tasks)) processes.

    A pool starts every worker when it is built, hence the clamp; a clamp
    of 1 runs in this process.
    """
    processes = min(worker_count, os.cpu_count() or 1, len(tasks))
    if processes <= 1:
        yield from map(fn, tasks)
        return
    with multiprocessing.Pool(processes=processes) as pool:
        yield from pool.imap(fn, tasks, chunksize)


def _scan_segment_task(hi: int, segment_size: int, cfg: PrecisionConfig,
                       a: int) -> list:
    return _scan_segment(a, min(a + segment_size, hi + 1), cfg)


def iter_scan_results(
    lo: int,
    hi: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    worker_count: int = 1,
    segment_size: int = SEGMENT_SIZE,
) -> Iterator[list]:
    """Per segment, ascending and streamed: ``_scan_segment``'s flagged pairs.

    The range is refused here, before the first segment is asked for.
    """
    if lo < 2 or lo > hi:
        raise InvalidInput("need 2 <= lo <= hi")
    if hi > MAX_SCAN_HI:
        raise InvalidInput(f"hi exceeds the supported scan range {MAX_SCAN_HI}")
    # segment starts, not segments: a range costs nothing to build
    return _pool_imap(
        functools.partial(_scan_segment_task, hi, segment_size, cfg),
        range(lo, hi + 1, segment_size), worker_count)


def scan_range(
    lo: int,
    hi: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    worker_count: int = 1,
    segment_size: int = SEGMENT_SIZE,
) -> ScanReport:
    """Certified verdict for every n in [lo, hi]; violations ascending."""
    flagged = [pair for segment in iter_scan_results(
        lo, hi, cfg, worker_count, segment_size) for pair in segment]
    return ScanReport(
        lo=lo,
        hi=hi,
        violations=tuple((n, r) for n, r in flagged
                         if r.verdict is Verdict.VIOLATED),
        indeterminates=tuple(n for n, r in flagged
                             if r.verdict is not Verdict.VIOLATED),
        checked_count=hi - lo + 1,
    )


# ---------------------------------------------------------------------------
# The primorial partial-product table (q_m vs alpha_m)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureRow:
    """One row of the primorial table.

    q is the exact partial product prod (p_j + 1)/p_j in lowest terms
    (kept as a num/den pair: the components grow to ~10^5 bits and
    repeated gcd normalization would dominate the build).  alpha is the
    enclosure of e^gamma * ln(sum ln p_j); it is None for rows where
    ln(primorial) > 1 cannot be certified (only m = 1).
    """

    m: int
    p_m: int
    q_num: int
    q_den: int
    alpha: Optional[RealInterval]
    ratio: Optional[RealInterval]
    n_exceeds_5040: bool


def q_steps(plist, d: int = 1, one=1, div=operator.floordiv,
            mul=operator.mul) -> Iterator[tuple]:
    """(p, qn, qd) for each p of ``plist``, the first primes in order.

    qn/qd = prod (p_j + d)/p_j over the primes so far, d = 1 or -1, in
    lowest terms: each p divides qn by g1 = gcd(qn, p) and qd by
    g2 = gcd(qd, p + d), then multiplies them by (p + d) // g2 and p // g1.
    Both gcds come from bookkeeping, not from the big qn and qd.  The
    update runs through ``div`` and ``mul`` from ``one``: ints by default,
    or an exact decimal context's ``divide_int`` and ``multiply``, passed
    in because a generator cannot keep a context switch to itself.
    """
    num_exp: dict[int, int] = {}  # prime -> exponent in qn
    den_primes: set[int] = set()  # the primes of qd, each to the first power
    qn = qd = one
    for p in plist:
        powers, _ = _primes.factor_small(p + d, plist)
        g2 = 1
        for r, e in powers:
            if r in den_primes:
                den_primes.remove(r)
                g2 *= r
                e -= 1
            if e:
                num_exp[r] = num_exp.get(r, 0) + e
        if num_exp.get(p):
            num_exp[p] -= 1
            g1 = p
        else:
            den_primes.add(p)
            g1 = 1
        # a big number divided by 1 still costs a full pass: skip it
        if g1 != 1:
            qn = div(qn, g1)
        if g2 != 1:
            qd = div(qd, g2)
        qn = mul(qn, (p + d) // g2)
        qd = mul(qd, p // g1)
        yield p, qn, qd


def _primorial_log(m: int, bits: int) -> tuple[int, int]:
    """``log_n`` of the product of the first m primes."""
    return log_n(_primes.primorial_factorization(m), bits)


def conjecture31_table(
    m_max: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> list[ConjectureRow]:
    """Rows m = 1..m_max; q exact, alpha/ratio certified enclosures.

    ln(primorial) is accumulated as sum ln p_j in fixed point, so the
    primorial itself is never materialized, and q comes from
    ``q_steps``, so no row takes a gcd of its exact q.
    """
    if m_max < 1:
        raise InvalidInput("m_max must be >= 1")
    bits = cfg.start_bits
    W = bits + _GUARD
    rows: list[ConjectureRow] = []
    s_lo = s_hi = 0  # fixed-point bounds on sum ln p_j
    primorial = 1
    exceeded = False
    for m, (p, qn, qd) in enumerate(q_steps(_primes.first_primes(m_max)), 1):
        L, H = _ln_prime_fp(p, W)
        s_lo += L
        s_hi += H
        if not exceeded:
            primorial *= p
            exceeded = primorial > 5040
        alpha = _rhs_from_log(s_lo, s_hi, bits, functools.partial(
            _primorial_log, m))
        ratio = None
        if alpha is not None:
            # alpha / q; alpha's exponent is below 0 unless bits is tiny
            e = alpha.lo.e
            ratio = outward_ratio(alpha.lo.m << max(e, 0),
                                  alpha.hi.m << max(e, 0), qd, qn,
                                  max(-e, 0), W)
        rows.append(
            ConjectureRow(m, p, qn, qd, alpha, ratio, exceeded)
        )
    return rows


# ---------------------------------------------------------------------------
# Exponent increments: satisfied bases should stay satisfied
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchReport:
    prime_count_max: int
    exponent_max: int
    log_n_max: Fraction
    candidates_enumerated: int
    bases_probed: int
    # (base, index, result) per increment that is not satisfied; a base
    # that is not satisfied itself is one row with index None
    counterexamples: tuple[tuple[Factorization, Optional[int], CheckResult], ...]


def _enumerate_bases(
    prime_count_max: int,
    exponent_max: int,
    log_n_max: Fraction,
    non_increasing_only: bool,
    bits: int,
) -> list[tuple[tuple[int, int], ...]]:
    """All factorizations over a prefix of the primes with ln n <= bound.

    Exponent vectors are non-increasing by default: by the prime
    substitution theorem any other arrangement of the same multiset is
    implied by its minimal arrangement, so the minimal ones are the
    critical cases.  Inclusion rule: the certified upper bound of
    sum k_j ln p_j must not exceed log_n_max.  Depth first, each base
    before its extensions and smaller exponents first, on an explicit
    stack, so a base may hold any number of primes.
    """
    W = bits + _GUARD
    x_fp = (log_n_max.numerator << W) // log_n_max.denominator
    plist = _primes.first_primes(prime_count_max)
    ln_hi = [_ln_prime_fp(p, W)[1] for p in plist]
    out: list[tuple[tuple[int, int], ...]] = []
    # (base, exponent cap of its next prime, upper bound of its ln n)
    stack = [((), exponent_max, 0)]
    while stack:
        base, k_cap, s_hi = stack.pop()
        if base:
            out.append(base)
        pos = len(base)
        if pos == len(plist):
            continue
        cap = k_cap if non_increasing_only else exponent_max
        extensions = []
        acc = s_hi
        for k in range(1, cap + 1):
            acc += ln_hi[pos]
            if acc > x_fp:
                break
            extensions.append((base + ((plist[pos], k),), k, acc))
        stack.extend(reversed(extensions))  # the first pops first
    return out


def _bumped(entries: tuple[tuple[int, int], ...], j: int, d: int = 1
            ) -> tuple[tuple[int, int], ...]:
    """entries with entry j's exponent moved by d; a raise stays canonical."""
    n = list(entries)
    p, k = n[j]
    n[j] = (p, k + d)
    return tuple(n)


# bases are found by n mod this prime, which a raised or lowered exponent
# moves by one product; below it n is its own key
_KEY_MOD = (1 << 61) - 1


def _base_key(entries: tuple[tuple[int, int], ...]) -> int:
    """n mod _KEY_MOD for the n of these entries."""
    key = 1
    for p, k in entries:
        key = key * p ** k % _KEY_MOD
    return key


def _base_at(bases: list, index: dict[int, list[int]], key: int,
             entries: tuple[tuple[int, int], ...]) -> Optional[int]:
    """The index of the base with this key and these entries, or None."""
    for c in index[key]:
        if bases[c] == entries:
            return c
    return None


def _shared_increments(b: int, bases: list, keys: list[int],
                       index: dict[int, list[int]]
                       ) -> dict[int, tuple[int, Optional[int]]]:
    """The entries j of base b whose n = base + e_j another task checks.

    Each maps to that task, (base index, entry index or None): (c, None)
    when n is base c, else (c, i) for the first entry i < j at which
    lowering n gives base c.  Every other n is checked as task (b, j),
    so every n is checked exactly once.  ``keys`` holds each base's
    ``_base_key`` and ``index`` the bases at each key, so entries are
    built and compared only where a key matches.
    """
    base, key = bases[b], keys[b]
    shared = {}
    # (i, 1/p_i mod _KEY_MOD) for each entry i before j that can be lowered
    raised = []
    for j, (p, k) in enumerate(base):
        n_key = key * p % _KEY_MOD
        c = (_base_at(bases, index, n_key, _bumped(base, j))
             if n_key in index else None)
        if c is not None:
            shared[j] = (c, None)
        else:
            for i, inverse in raised:
                c_key = n_key * inverse % _KEY_MOD
                c = (_base_at(bases, index, c_key,
                              _bumped(_bumped(base, j), i, -1))
                     if c_key in index else None)
                if c is not None:
                    shared[j] = (c, i)
                    break
        if k > 1:
            raised.append((j, pow(p, -1, _KEY_MOD)))
    return shared


def _unsatisfied_task(cfg: PrecisionConfig, task: tuple
                      ) -> Optional[CheckResult]:
    """None if n is certified satisfied, else its ``CheckResult``.

    task = (base, j): n is the base for j None, else its increment at
    entry j.
    """
    base, j = task
    entries = base if j is None else _bumped(base, j)
    r = check(Factorization.from_canonical(entries), cfg)
    return None if r.verdict is Verdict.SATISFIED else r


def conjecture32_search(
    prime_count_max: int,
    exponent_max: int,
    log_n_max: Fraction,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    worker_count: int = 1,
    non_increasing_only: bool = True,
) -> SearchReport:
    """Check every enumerated base > 5040 and each of its increments.

    Each distinct n among the bases and their single-exponent increments
    is checked once.  A base that is not certified satisfied is reported
    as a counterexample row of its own, with index None, and its
    increments are not reported.
    """
    if prime_count_max < 1 or exponent_max < 1:
        raise InvalidInput("prime_count_max and exponent_max must be >= 1")
    log_n_max = Fraction(log_n_max)
    if log_n_max <= 0:
        raise InvalidInput("log_n_max must be positive")
    all_bases = _enumerate_bases(
        prime_count_max, exponent_max, log_n_max, non_increasing_only,
        cfg.start_bits,
    )
    # six distinct primes make n >= 30030
    bases = [base for base in all_bases
             if len(base) > 5 or prod(p ** k for p, k in base) > 5040]
    keys = [_base_key(base) for base in bases]
    index: dict[int, list[int]] = {}
    for b, key in enumerate(keys):
        index.setdefault(key, []).append(b)
    tasks = []
    for b, base in enumerate(bases):
        shared = _shared_increments(b, bases, keys, index)
        tasks.append((b, None))
        tasks += [(b, j) for j in range(len(base)) if j not in shared]
    # only results that are not satisfied are kept, keyed by their task
    results = _pool_imap(functools.partial(_unsatisfied_task, cfg),
                         [(bases[b], j) for b, j in tasks], worker_count, 64)
    unsatisfied = {task: r for task, r in zip(tasks, results)
                   if r is not None}
    counterexamples = []
    # every row is a result that is not satisfied
    for b, base in enumerate(bases if unsatisfied else ()):
        f = Factorization.from_canonical(base)
        r = unsatisfied.get((b, None))
        if r is not None:
            counterexamples.append((f, None, r))
            continue
        shared = _shared_increments(b, bases, keys, index)
        for j in range(len(base)):
            r = unsatisfied.get(shared.get(j, (b, j)))
            if r is not None:
                counterexamples.append((f, j, r))
    return SearchReport(
        prime_count_max=prime_count_max,
        exponent_max=exponent_max,
        log_n_max=log_n_max,
        candidates_enumerated=len(all_bases),
        bases_probed=len(bases) - sum(j is None for _, j, _ in counterexamples),
        counterexamples=tuple(counterexamples),
    )
