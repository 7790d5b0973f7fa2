"""Range scanning and the two conjecture experiments.

The scanner certifies a whole segment at a time.  sigma(n) for every n
in the segment comes from a multiplicative sieve over the primes
p <= sqrt(segment end): strided numpy slices divide each p out of its
multiples and multiply in 1 + p + ... + p^k, and the one prime cofactor
left over contributes its own factor; no per-n trial division happens.
Each block of consecutive n is then compared against a certified lower
bound of the right-hand side at the block start (the RHS is increasing
in n), using pure int64 arithmetic, and only the handful of
near-extremal candidates that survive the block filter are routed
through the fully certified per-n check.  Violations are therefore
confirmed by the exact machinery, and everything filtered out is
certified Satisfied by the block bound.

Output is deterministic and independent of the worker count: the
segment grid depends only on (lo, hi, segment size) and results are
merged in ascending order.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional

import numpy as np

from .factorization import Factorization
from .intervals import (
    _GUARD,
    DEFAULT_PRECISION,
    PrecisionConfig,
    RealInterval,
    _ln_fp,
    outward_interval,
)
from .robin import (
    CheckResult,
    Verdict,
    _ln_prime_fp,
    _rhs_from_log,
    check,
)
from . import primes as _primes


SEGMENT_SIZE = 1 << 20
_BLOCK = 4096
# tier-1 threshold fixed-point scale; 2^-16 of slack costs a few extra
# candidates and keeps the comparison in exact int64 arithmetic
_THR_SHIFT = 16
MAX_SCAN_HI = 10 ** 12  # keeps sigma * 2^16 and thr * n inside int64


@dataclass(frozen=True)
class ScanReport:
    lo: int
    hi: int
    violations: tuple[tuple[int, CheckResult], ...]
    indeterminates: tuple[int, ...]
    checked_count: int


def _sigma_segment(a: int, b: int) -> np.ndarray:
    """sigma(n) for n in [a, b) as int64, via a multiplicative prime sieve.

    Every prime p <= sqrt(b - 1) is divided out of its multiples in the
    segment, and each multiple's sigma picks up the factor
    1 + p + ... + p^k for the exact power p^k it holds.  What is left of
    n afterwards is 1 or a single prime above sqrt(b - 1), which
    contributes its own factor rem + 1.

    int64 headroom for b <= MAX_SCAN_HI + 1: each partial product in sig
    is sigma of a unitary divisor of n, so it divides sigma(n) < 7n < 2^43,
    and a per-prime factor stays below 2 * p^k <= 2 * 10^12.
    """
    width = b - a
    rem = np.arange(a, b, dtype=np.int64)
    sig = np.ones(width, dtype=np.int64)
    for p in _primes.primes_up_to(isqrt(b - 1)):
        s = -a % p
        if s >= width:
            continue
        view = rem[s::p]
        view //= p
        term = 1 + p
        q = p * p
        j = -a % q
        if j < width:
            # some multiple holds p^2: per-element factors from here on
            term = np.full(view.size, 1 + p, dtype=np.int64)
            while j < width:
                # in the view, multiples of q = p^k are q // p apart
                i, step = (j - s) // p, q // p
                view[i::step] //= p
                term[i::step] += q
                q *= p
                j = -a % q
        sig[s::p] *= term
    big = rem > 1
    sig[big] *= rem[big] + 1
    return sig


def _rhs_floor_scaled(t: int, bits: int) -> Optional[int]:
    """floor(rhs_lower_bound(t) * 2^_THR_SHIFT) for an integer t >= 2.

    None when ln t > 1 cannot be certified, which is the case for t = 2
    (ln 2 < 1) and for no t >= 3 at any usable precision; callers must
    then treat every n of the block as a candidate.
    """
    W = bits + _GUARD
    L, H = _ln_fp(t, 1, W)
    if L <= 1 << W:
        return None
    d = _rhs_from_log(L, H, bits).lo
    shift = d.e + _THR_SHIFT
    return d.m << shift if shift >= 0 else d.m >> -shift


def _scan_segment(a: int, b: int, cfg: PrecisionConfig) -> tuple[list, list]:
    """Violations and indeterminates among n in [a, b)."""
    violations: list[tuple[int, CheckResult]] = []
    indeterminates: list[int] = []

    candidates: list[int] = []
    sig = _sigma_segment(a, b)
    ns = np.arange(a, b, dtype=np.int64)
    t = a
    while t < b:
        # below _BLOCK, a block [t, 2t) keeps the bound at t close to the
        # RHS of its last n, where the RHS still climbs steeply
        t_end = min(t + _BLOCK, 2 * t, b)
        thr = _rhs_floor_scaled(t, cfg.start_bits)
        if thr is None:
            candidates.extend(range(t, t_end))
        else:
            i0, i1 = t - a, t_end - a
            mask = (sig[i0:i1] << _THR_SHIFT) >= thr * ns[i0:i1]
            if mask.any():
                candidates.extend(int(v) for v in ns[i0:i1][mask])
        t = t_end

    for n in candidates:
        result = check(_primes.factorize(n), cfg)
        if result.verdict is Verdict.VIOLATED:
            violations.append((n, result))
        elif result.verdict is Verdict.INDETERMINATE:
            indeterminates.append(n)
    return violations, indeterminates


def _scan_segment_task(args):
    a, b, cfg = args
    return _scan_segment(a, b, cfg)


def iter_scan_results(
    lo: int,
    hi: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    worker_count: int = 1,
    segment_size: int = SEGMENT_SIZE,
) -> Iterator[tuple[list, list]]:
    """Per-segment (violations, indeterminates), ascending, streamed."""
    if lo < 2 or lo > hi:
        raise ValueError("need 2 <= lo <= hi")
    if hi > MAX_SCAN_HI:
        raise ValueError(f"hi exceeds the supported scan range {MAX_SCAN_HI}")
    tasks = []
    a = lo
    while a <= hi:
        b = min(a + segment_size, hi + 1)
        tasks.append((a, b, cfg))
        a = b
    if worker_count <= 1 or len(tasks) == 1:
        for t in tasks:
            yield _scan_segment_task(t)
        return
    with multiprocessing.Pool(processes=worker_count) as pool:
        yield from pool.imap(_scan_segment_task, tasks)


def scan_range(
    lo: int,
    hi: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    worker_count: int = 1,
    segment_size: int = SEGMENT_SIZE,
) -> ScanReport:
    """Certified verdict for every n in [lo, hi]; violations ascending."""
    violations: list[tuple[int, CheckResult]] = []
    indeterminates: list[int] = []
    for viol, indet in iter_scan_results(lo, hi, cfg, worker_count, segment_size):
        violations.extend(viol)
        indeterminates.extend(indet)
    return ScanReport(
        lo=lo,
        hi=hi,
        violations=tuple(violations),
        indeterminates=tuple(indeterminates),
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


def conjecture31_table(
    m_max: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> list[ConjectureRow]:
    """Rows m = 1..m_max; q exact, alpha/ratio certified enclosures.

    ln(primorial) is accumulated as sum ln p_j in fixed point, so the
    primorial itself is never materialized.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    bits = cfg.start_bits
    W = bits + _GUARD
    plist = _primes.first_primes(m_max)
    rows: list[ConjectureRow] = []
    qn, qd = 1, 1
    s_lo = 0  # fixed-point bounds on sum ln p_j
    s_hi = 0
    primorial = 1
    exceeded = False
    one_fp = 1 << W
    for m, p in enumerate(plist, 1):
        # q *= (p+1)/p staying in lowest terms via small gcds only:
        # qd stays squarefree, so both gcds have single-word cofactors.
        g1 = gcd(qn, p)
        g2 = gcd(qd, p + 1)
        qn = (qn // g1) * ((p + 1) // g2)
        qd = (qd // g2) * (p // g1)
        L, H = _ln_prime_fp(p, W)
        s_lo += L
        s_hi += H
        if not exceeded:
            primorial *= p
            exceeded = primorial > 5040
        if s_lo <= one_fp:
            alpha = None
            ratio = None
        else:
            alpha = _rhs_from_log(s_lo, s_hi, bits)
            # alpha / q; alpha's shared exponent is about -W, below 0
            ratio = outward_interval(alpha.lo.m * qd, alpha.hi.m * qd,
                                     qn << -alpha.lo.e, W, bits)
        rows.append(
            ConjectureRow(m, p, qn, qd, alpha, ratio, exceeded)
        )
    return rows


# ---------------------------------------------------------------------------
# Exponent-increment probing: satisfied bases should stay satisfied
# ---------------------------------------------------------------------------

class BaseNotSatisfied(Exception):
    """The probe base must itself satisfy the inequality."""


@dataclass(frozen=True)
class ProbeReport:
    base: Factorization
    base_result: CheckResult
    increments: tuple[tuple[int, CheckResult], ...]

    def failures(self) -> tuple[tuple[int, CheckResult], ...]:
        return tuple(
            (j, r)
            for j, r in self.increments
            if r.verdict is not Verdict.SATISFIED
        )


def conjecture32_probe(
    f: Factorization, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> ProbeReport:
    """Check every single-exponent increment of a satisfied base > 5040."""
    if not f.entries:
        raise ValueError("base factorization is empty")
    base_result = check(f, cfg)
    if base_result.verdict is not Verdict.SATISFIED:
        raise BaseNotSatisfied(f"base {f} is {base_result.verdict.value}")
    if f.log2_magnitude() <= 64 and f.n() <= 5040:
        raise ValueError("base must exceed 5040")
    increments = tuple(
        (j, check(f.with_exponent_bumped(j), cfg)) for j in range(len(f))
    )
    return ProbeReport(f, base_result, increments)


@dataclass(frozen=True)
class SearchReport:
    prime_count_max: int
    exponent_max: int
    log_n_max: Fraction
    candidates_enumerated: int
    bases_probed: int
    counterexamples: tuple[tuple[Factorization, int, CheckResult], ...]


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
    sum k_j ln p_j must not exceed log_n_max.
    """
    W = bits + _GUARD
    x_fp = (log_n_max.numerator << W) // log_n_max.denominator
    plist = _primes.first_primes(prime_count_max)
    ln_hi = [_ln_prime_fp(p, W)[1] for p in plist]
    out: list[tuple[tuple[int, int], ...]] = []

    def recurse(pos: int, k_cap: int, s_hi: int, prefix: list[tuple[int, int]]):
        if pos == len(plist):
            return
        cap = k_cap if non_increasing_only else exponent_max
        step = ln_hi[pos]
        acc = s_hi
        for k in range(1, cap + 1):
            acc += step
            if acc > x_fp:
                break
            prefix.append((plist[pos], k))
            out.append(tuple(prefix))
            recurse(pos + 1, k, acc, prefix)
            prefix.pop()

    recurse(0, exponent_max, 0, [])
    return out


def _probe_base_task(args):
    entries, cfg = args
    f = Factorization(entries)
    report = conjecture32_probe(f, cfg)
    return [(entries, j, r) for j, r in report.failures()]


def conjecture32_search(
    prime_count_max: int,
    exponent_max: int,
    log_n_max: Fraction,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    worker_count: int = 1,
    non_increasing_only: bool = True,
) -> SearchReport:
    """Probe every enumerated satisfied base > 5040; counterexamples expected empty."""
    if prime_count_max < 1 or exponent_max < 1:
        raise ValueError("prime_count_max and exponent_max must be >= 1")
    log_n_max = Fraction(log_n_max)
    if log_n_max <= 0:
        raise ValueError("log_n_max must be positive")
    all_bases = _enumerate_bases(
        prime_count_max, exponent_max, log_n_max, non_increasing_only,
        cfg.start_bits,
    )
    bases = []
    for entries in all_bases:
        n = 1
        for p, k in entries:
            n *= p ** k
        if n > 5040:
            bases.append(entries)
    tasks = [(entries, cfg) for entries in bases]
    counterexamples: list[tuple[Factorization, int, CheckResult]] = []
    if worker_count <= 1 or len(tasks) < 4:
        results = list(map(_probe_base_task, tasks))
    else:
        with multiprocessing.Pool(processes=worker_count) as pool:
            results = list(pool.imap(_probe_base_task, tasks, chunksize=64))
    for failures in results:
        for entries, j, r in failures:
            counterexamples.append((Factorization(entries), j, r))
    return SearchReport(
        prime_count_max=prime_count_max,
        exponent_max=exponent_max,
        log_n_max=log_n_max,
        candidates_enumerated=len(all_bases),
        bases_probed=len(results),
        counterexamples=tuple(counterexamples),
    )
