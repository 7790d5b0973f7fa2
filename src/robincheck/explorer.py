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

import multiprocessing
import os
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod
from typing import Iterator, Optional

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


def _rhs_floor_scaled(t: int, bits: int) -> int:
    """floor(rhs_lower_bound(t) * 2^_THR_SHIFT) for an integer t >= 2.

    0 when the RHS kernel cannot certify ln t > 1, which is the case for
    t = 2 (ln 2 < 1) and for no t >= 3 at any usable precision; a zero
    threshold makes every n of the block a candidate.
    """
    rhs = _rhs_from_log(*_ln_fp(t, t, 1, bits + _GUARD), bits)
    if rhs is None:
        return 0
    d = rhs.lo
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


def _pool_imap(fn, tasks: list, worker_count: int, chunksize: int = 1) -> Iterator:
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
    """Per-segment (violations, indeterminates), ascending, streamed.

    The range is refused here, before the first segment is asked for.
    """
    if lo < 2 or lo > hi:
        raise InvalidInput("need 2 <= lo <= hi")
    if hi > MAX_SCAN_HI:
        raise InvalidInput(f"hi exceeds the supported scan range {MAX_SCAN_HI}")
    tasks = []
    a = lo
    while a <= hi:
        b = min(a + segment_size, hi + 1)
        tasks.append((a, b, cfg))
        a = b
    return _pool_imap(_scan_segment_task, tasks, worker_count)


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


def q_steps(m_max: int) -> Iterator[tuple[int, int, int]]:
    """(p, g1, g2) for the first m_max primes p, ascending.

    q = qn/qd = prod (p_j + 1)/p_j stays in lowest terms when each p
    updates it to (qn // g1 * ((p + 1) // g2)) / (qd // g2 * (p // g1)),
    with g1 = gcd(qn, p) and g2 = gcd(qd, p + 1).  Both gcds come from
    bookkeeping instead of from the big qn and qd: the exponents of the
    primes of qn, the squarefree set of primes of qd, and p + 1 trial
    divided by the earlier primes.
    """
    plist = _primes.first_primes(m_max)
    num_exp: dict[int, int] = {}  # prime -> exponent in qn
    den_primes: set[int] = set()  # the primes of qd, each to the first power
    for p in plist:
        powers, _ = _primes.factor_small(p + 1, plist)
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
        yield p, g1, g2


def conjecture31_table(
    m_max: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> list[ConjectureRow]:
    """Rows m = 1..m_max; q exact, alpha/ratio certified enclosures.

    ln(primorial) is accumulated as sum ln p_j in fixed point, so the
    primorial itself is never materialized, and q is updated along
    ``q_steps``, so no row takes a gcd of its exact q.
    """
    if m_max < 1:
        raise InvalidInput("m_max must be >= 1")
    bits = cfg.start_bits
    W = bits + _GUARD
    rows: list[ConjectureRow] = []
    qn, qd = 1, 1
    s_lo = s_hi = 0  # fixed-point bounds on sum ln p_j
    primorial = 1
    exceeded = False
    for m, (p, g1, g2) in enumerate(q_steps(m_max), 1):
        # a big int divided by 1 still costs a full pass: skip it
        if g1 != 1:
            qn //= g1
        if g2 != 1:
            qd //= g2
        qn *= (p + 1) // g2
        qd *= p // g1
        L, H = _ln_prime_fp(p, W)
        s_lo += L
        s_hi += H
        if not exceeded:
            primorial *= p
            exceeded = primorial > 5040
        alpha = _rhs_from_log(s_lo, s_hi, bits)
        # alpha / q; alpha's shared exponent is about -W, below 0
        ratio = None if alpha is None else outward_ratio(
            alpha.lo.m, alpha.hi.m, qd, qn, -alpha.lo.e, W)
        rows.append(
            ConjectureRow(m, p, qn, qd, alpha, ratio, exceeded)
        )
    return rows


# ---------------------------------------------------------------------------
# Exponent-increment probing: satisfied bases should stay satisfied
# ---------------------------------------------------------------------------

class BaseNotSatisfied(Exception):
    """The probe base must itself satisfy the inequality.

    ``result`` is the base's check, so a search can report it as a row.
    """

    def __init__(self, result: CheckResult):
        super().__init__(result)  # the one argument, so it pickles
        self.result = result

    def __str__(self) -> str:
        return (f"base {self.result.factorization.as_string()} is "
                f"{self.result.verdict.value}")


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
        raise InvalidInput("base factorization is empty")
    base_result = check(f, cfg)
    if base_result.verdict is not Verdict.SATISFIED:
        raise BaseNotSatisfied(base_result)
    if f.log2_magnitude() <= 64 and f.n() <= 5040:
        raise InvalidInput("base must exceed 5040")
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
    try:
        report = conjecture32_probe(Factorization(entries), cfg)
    except BaseNotSatisfied as exc:
        return [(entries, None, exc.result)]
    return [(entries, j, r) for j, r in report.failures()]


def conjecture32_search(
    prime_count_max: int,
    exponent_max: int,
    log_n_max: Fraction,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    worker_count: int = 1,
    non_increasing_only: bool = True,
) -> SearchReport:
    """Probe every enumerated base > 5040; counterexamples expected empty.

    A base that is not certified satisfied is reported as a
    counterexample row of its own, with index None, and not probed.
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
    tasks = [(entries, cfg) for entries in all_bases
             if prod(p ** k for p, k in entries) > 5040]
    counterexamples = [
        (Factorization(entries), j, r)
        for failures in _pool_imap(_probe_base_task, tasks, worker_count, 64)
        for entries, j, r in failures]
    return SearchReport(
        prime_count_max=prime_count_max,
        exponent_max=exponent_max,
        log_n_max=log_n_max,
        candidates_enumerated=len(all_bases),
        bases_probed=len(tasks) - sum(j is None for _, j, _ in counterexamples),
        counterexamples=tuple(counterexamples),
    )
