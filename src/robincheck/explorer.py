"""Range scanning and the two conjecture experiments.

The scanner certifies a whole segment at a time.  It never computes
sigma(n): a multiplicative sieve over the primes p <= P, where
P = min(128, sqrt(segment end)), gives the P-smooth part s of every n
in the segment and sigma(s).  Both arrays start at 1, and one strided
numpy pass per prime power q = p^k, p <= P, with a multiple in the
segment multiplies s by p at every multiple of q and turns the factor
1 + p + ... + p^(k-1) of sigma(s) there into 1 + p + ... + p^k, in
place.  The rest n / s holds only primes above P, at most k of them
where (P+1)^k < segment end, and each raises sigma(n)/n by less than
(P+1)/P (Robin 1984), so sigma(n)/n <= sigma(s)/s * ((P+1)/P)^k.
Each block of consecutive n is then compared against a certified lower
bound of the right-hand side at the block start (the RHS is increasing
in n), lowered by P^k / (P+1)^k, using pure int64 arithmetic, and only
the handful of near-extremal candidates that survive the block filter
are routed through the fully certified per-n check.  Violations are
therefore confirmed by the exact machinery, and everything filtered out
is certified Satisfied by the block bound.  Where the RHS kernel gives
no bound (the block at 2, since ln 2 < 1) the threshold is 0 and every
n of the block is a candidate.

Most of a scan needs no sieve.  The paper's substitution theorem, with
the exchange lemma of ``conjecture32_search``, maps every n > 5040 to a
Hardy-Ramanujan integer h <= n (exponents non-increasing on the first
primes) with sigma(h)/h >= sigma(n)/n, and sigma(5040)/5040 = 403/105
lies below e^gamma ln ln 5583.  So once per call ``_cover_bound`` walks
the HR integers in (5040, hi], deciding each from bounds carried down
the walk and skipping every subtree whose layers (its extensions by j
more primes, for each j) ``check``'s ln n floor certifies, and every n
in [5583, hi] below the least one not certified satisfied holds.  The
scanner sieves only the two stretches left: [lo, 5583) and [bound, hi].

Everything runs in this process, one sieved window after another, in
ascending order.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import inf, isqrt
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .factorization import Factorization, sigma_over_n_extend
from .intervals import (
    _GUARD,
    Comparison,
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
    _below_floor,
    _ln_prime_fp,
    _rhs_from_log,
    check,
    decide,
    log_n,
    robin_rhs,
)
from . import primes as _primes


SEGMENT_SIZE = 1 << 20
# n per block-filter threshold.  Uncapped blocks [t, min(2t, b)) take 1
# threshold per 2^20 window instead of 256 and find the same candidates,
# but the cap also bounds the int64 temporaries sig << _THR_SHIFT and
# thr * smooth, 8 MB each over a whole window: scan peak RSS went from
# 60.3 to 67.8 MB without it.
_BLOCK = 4096
# tier-1 threshold fixed-point scale; 2^-16 of slack costs a few extra
# candidates and keeps the comparison in exact int64 arithmetic
_THR_SHIFT = 16
# keeps sigma(s) * 2^16 and the block filter's thr' * s <= thr * n
# inside int64, for the smooth part s of every n (see _scan_segment)
MAX_SCAN_HI = 10 ** 12
# the sieve takes the primes up to this out of each n (see _scan_segment).
# On seven 2^20 windows (4 at 10^7, 2 at 10^9, 1 at 10^11) 64 sends 2 n
# to the exact check and 128 none, and on [2, 2^20] 64 sends 86 n
# against 52; 256 sieves 23 more primes, takes 10 % longer and sends no
# fewer.
_SMOOTH_MAX = 128
# sigma(5040)/5040; e^gamma ln ln n passes it between 5582 and _COVER_FROM,
# from which on a scanned n may be certified without a sieve
# (``_cover_bound``)
_SIGMA_OVER_N_5040 = Fraction(403, 105)
_COVER_FROM = 5583


@dataclass(frozen=True)
class ScanReport:
    lo: int
    hi: int
    violations: tuple[tuple[int, CheckResult], ...]
    indeterminates: tuple[int, ...]
    checked_count: int


def _smooth_bound(b: int) -> tuple[int, int, int]:
    """(P, P^k, (P+1)^k) for a window [a, b).

    ``_sigma_segment`` takes the primes up to P = min(_SMOOTH_MAX,
    isqrt(b - 1)) out of each n, and k, the largest integer with
    (P+1)^k <= b - 1, bounds the primes above P that one n < b holds.
    """
    P = min(_SMOOTH_MAX, isqrt(b - 1))
    down = up = 1
    while up * (P + 1) <= b - 1:
        up *= P + 1
        down *= P
    return P, down, up


def _sigma_segment(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(s), s) as int64 for the P-smooth part s of each n in [a, b).

    P = ``_smooth_bound(b)[0]``.  Both arrays start at 1.  For each prime
    p <= P and each power q = p^k with a multiple in the window, one
    strided pass over the multiples of q multiplies s by p and turns the
    sigma array's factor sigma(p^(k-1)) into sigma(p^k): an exact
    division by the old factor (none at k = 1), then a multiplication by
    the new one.  The division is exact: at a multiple of q the pass for
    p^(k-1) put sigma(p^(k-1)) into the product.  The rest of n, whose
    primes all exceed P, is never looked at; ``_scan_segment`` bounds
    what it adds to sigma(n)/n.

    int64 headroom for b <= MAX_SCAN_HI + 1: s divides n <= 10^12, and
    each value the sigma array takes on the way, the quotient after the
    division included, is a product of sigma(p^e) over distinct primes
    with p^e dividing s, so sigma(d) for a divisor d of s; it stays
    <= sigma(s) <= sigma(n) < 7n < 2^43.
    """
    width = b - a
    sig = np.ones(width, dtype=np.int64)
    smooth = np.ones(width, dtype=np.int64)
    for p in _primes.primes_up_to(_smooth_bound(b)[0]):
        q, low = p, 1  # low = sigma(q / p)
        j = -a % q
        while j < width:
            smooth[j::q] *= p
            held = sig[j::q]
            if low > 1:
                held //= low
            low += q
            held *= low
            q *= p
            j = -a % q
    return sig, smooth


def _rhs_floor_scaled(t: int, bits: int) -> int:
    """floor(rhs_lower_bound(t) * 2^_THR_SHIFT) for an integer t >= 2.

    0 when the RHS kernel cannot certify ln t > 1, which is the case for
    t = 2 (ln 2 < 1) and for no t >= 3 at any usable precision; a zero
    threshold makes every n of the block a candidate.  A threshold floored
    to 2^-_THR_SHIFT needs no correctly rounded end, so ln t is computed
    once and ``_rhs_from_log`` rounds it outward.
    """
    rhs = _rhs_from_log(*_ln_fp(t, t, 1, bits + _GUARD), bits)
    if rhs is None:
        return 0
    shift = rhs.e + _THR_SHIFT
    return rhs.lo_m << shift if shift >= 0 else rhs.lo_m >> -shift


def _scan_segment(a: int, b: int, cfg: PrecisionConfig) -> list:
    """(n, CheckResult) of each n in [a, b) not certified satisfied, by n.

    The block filter reads sigma(s) and s for the P-smooth part s of each
    n (``_sigma_segment``), against a block threshold thr lowered to
    thr' = floor(thr * P^k / (P+1)^k), where k is the largest integer
    with (P+1)^k <= b - 1.  An n is certified satisfied when
    sigma(s) * 2^_THR_SHIFT < thr' * s.

    Soundness: write n = s * r.  sigma is multiplicative, so
    sigma(n)/n = sigma(s)/s * sigma(r)/r.  Every prime q of r is at least
    P + 1, so r <= n < b has at most k distinct primes, and each one's
    factor sigma(q^j)/q^j is below q/(q-1) <= (P+1)/P (Robin 1984);
    hence sigma(r)/r <= ((P+1)/P)^k.  So sigma(s) * 2^_THR_SHIFT < thr' * s
    gives sigma(n)/n < thr / 2^_THR_SHIFT, which is at most the RHS at the
    block start t, and the RHS increases in n.  int64: sigma(s) <=
    sigma(n) < 2^43 and thr' * s <= thr * n (``MAX_SCAN_HI``).
    Candidates still go through ``factorize`` and ``check``.
    """
    candidates: list[int] = []
    sig, smooth = _sigma_segment(a, b)
    _, down, up = _smooth_bound(b)
    t = a
    while t < b:
        # below _BLOCK, a block [t, 2t) keeps the bound at t close to the
        # RHS of its last n, where the RHS still climbs steeply
        t_end = min(t + _BLOCK, 2 * t, b)
        thr = _rhs_floor_scaled(t, cfg.start_bits) * down // up
        i0, i1 = t - a, t_end - a
        mask = (sig[i0:i1] << _THR_SHIFT) >= thr * smooth[i0:i1]
        if mask.any():
            candidates.extend((np.flatnonzero(mask) + t).tolist())
        t = t_end

    results = ((n, check(_primes.factorize(n), cfg)) for n in candidates)
    return [(n, r) for n, r in results if r.verdict is not Verdict.SATISFIED]


def _hr_primes(X: int) -> list[int]:
    """The first primes whose product is at most X.

    They are the primes a Hardy-Ramanujan integer n <= X can hold.
    """
    plist, primorial = [], 1
    # the primorial of the first bit_length(X) primes exceeds X
    for p in _primes.first_primes(X.bit_length()):
        primorial *= p
        if primorial > X:
            break
        plist.append(p)
    return plist


def _hr_walk(plist: Sequence[int], W: int, k_max: int, sorted_only: bool,
             prune: Optional[Callable[[tuple], bool]] = None,
             X: float = inf, ln_max: float = inf) -> Iterator[tuple]:
    """(entries, n, hi, ln_lo, ln_hi) per exponent pattern on ``plist``.

    A node is p_1^k1 ... p_r^kr on the first r primes of ``plist``, every
    kj >= 1, k1 <= k_max, and with ``sorted_only`` k1 >= ... >= kr (every
    kj <= k_max otherwise).  Depth first on an explicit stack, each node
    before its extensions by p_(r+1)^k, smaller k first, each kept while
    both inclusion rules hold: n <= X, the cover bound's, and ln_hi <=
    ln_max, the search's.  n and ln_hi grow with k, so the first k that
    breaks a rule ends the extensions.  Every node comes once, unless
    ``prune(node)``, asked after the node is handed out, is true: then
    its extensions are not walked.

    Each node carries, from its parent in O(1): hi, the upper end of
    ``sigma_over_n_fp(n, W)``, the parent's hi extended by the one new
    entry (``sigma_over_n_extend``, which needs no lower end for it); and
    [ln_lo, ln_hi] = sum k ``_ln_prime_fp(p, W)``, ``log_n``'s bounds at
    W - _GUARD bits.
    """
    ln_p = [_ln_prime_fp(p, W) for p in plist]
    stack = [((), 1, 1 << W, 0, 0)]
    while stack:
        node = stack.pop()
        entries, n, hi, ln_lo, ln_hi = node
        if entries:
            yield node
            if prune is not None and prune(node):
                continue
        r = len(entries)
        if r == len(plist):
            continue
        p, (L, H) = plist[r], ln_p[r]
        extensions = []
        for k in range(1, (entries[-1][1] if entries and sorted_only
                           else k_max) + 1):
            n *= p
            ln_hi += H
            if n > X or ln_hi > ln_max:
                break
            entry = ((p, k),)
            extensions.append((entries + entry, n,
                               sigma_over_n_extend(0, hi, entry, W)[1],
                               ln_lo + k * L, ln_hi))
        stack.extend(reversed(extensions))  # the first pops first


def _bumped(entries: tuple[tuple[int, int], ...], j: int
            ) -> tuple[tuple[int, int], ...]:
    """entries with entry j's exponent raised by one; still canonical."""
    p, k = entries[j]
    return entries[:j] + ((p, k + 1),) + entries[j + 1:]


def _unsatisfied(cfg: PrecisionConfig, node: tuple,
                 j: Optional[int] = None) -> Optional[CheckResult]:
    """None if ``check`` certifies n satisfied, else its ``CheckResult``.

    node is an ``_hr_walk`` node at W = cfg.start_bits + _GUARD, or its
    first four fields: n is the node's for j None, else the node's with
    entry j's exponent raised, n' = n p_j.  That state comes from the
    node's in O(1): ln_lo gains ``_ln_prime_fp(p, W)[0]``, as in
    ``log_n``, and hi is multiplied by f(p, k+1)/f(p, k) = (p^(k+2) - 1) /
    (p (p^(k+1) - 1)), the exact ratio of the entry's factors, rounded up,
    so it still bounds sigma(n')/n' * 2**W above.  The n is decided first
    by ``check``'s ln n floor on that state (``_below_floor`` at ln_lo):
    a sound upper bound below it puts sigma(n)/n below the start rung's
    right side, where ``check`` calls n satisfied too.  Only n the floor
    leaves open has its entries built and goes to ``check`` itself, so
    every verdict is ``check``'s.
    """
    hi, ln_lo = node[2], node[3]
    start = cfg.start_bits
    if j is not None:
        p, k = node[0][j]
        q = p ** (k + 1)
        hi = -(-hi * (q * p - 1) // (p * (q - 1)))
        ln_lo += _ln_prime_fp(p, start + _GUARD)[0]
    if _below_floor(hi, ln_lo, start):
        return None
    entries = node[0] if j is None else _bumped(node[0], j)
    r = check(Factorization.from_canonical(entries), cfg)
    return None if r.verdict is Verdict.SATISFIED else r


def _subtree_layers(hi: int, n: int, ln_lo: int,
                    tail: Sequence[tuple[int, int]], X: int
                    ) -> Iterator[tuple[int, int, int]]:
    """(n P_j, U_j, ln_lo_j) for j = 1, 2, ... while n P_j <= X.

    ``tail`` holds (p, ``_ln_prime_fp(p, W)[0]``) per prime, and P_j is
    the product of its first j primes.  Layer j takes hi and ln_lo
    through those j primes: U_j gains a factor p/(p - 1) per prime, each
    step rounded up as ``sigma_over_n_fp`` rounds hi, and ln_lo_j gains
    the prime's lower bound on ln p.  With the state of an HR integer h
    on the first r primes and ``tail`` the primes after them, layer j
    bounds every extension of h in ``_hr_walk`` that holds j more primes
    (see ``_cover_bound``).
    """
    for p, ln_p in tail:
        n *= p
        if n > X:
            return
        hi = -(-hi * p // (p - 1))
        ln_lo += ln_p
        yield n, hi, ln_lo


def _cover_bound(hi: int, cfg: PrecisionConfig) -> int:
    """Below it, every n >= _COVER_FROM is certified satisfied.

    The least HR integer in (5040, hi] that ``check`` does not certify
    satisfied at ``cfg``, or hi + 1 if there is none; 0, so that nothing
    is covered, unless ``decide`` certifies the small case
    403/105 < e^gamma ln ln 5583.

    Why.  Write f(p, k) = sigma(p^k)/p^k = (1 - p^-(k+1))/(1 - 1/p), so
    sigma(n)/n is the product of f over n's entries p^k.  Take n in
    [5583, bound).
    - Substitution (the paper's theorem): f(p, k) decreases in p.  So
      n = prod Q_i^(e_i), Q_i its primes ascending, moved onto the first
      primes as M = prod p_i^(e_i) (p_i <= Q_i) gives M <= n and
      sigma(M)/M >= sigma(n)/n.
    - Exchange (the swap of ``conjecture32_search``'s exchange lemma):
      each swap that moves a larger exponent onto a smaller prime lowers
      n and raises sigma(n)/n, so M's exponents sorted
      non-increasing give an HR integer h <= M with sigma(h)/h >=
      sigma(M)/M.  If h > 5040, then h < bound is certified satisfied,
      and sigma(n)/n <= sigma(h)/h < e^gamma ln ln h <= e^gamma ln ln n,
      as the right side increases in n.
    - Small case: if h <= 5040, sigma(h)/h <= sigma(5040)/5040 = 403/105,
      since sigma(m)/m < 403/105 for every m < 5040 (5040 is
      superabundant), and 403/105 < e^gamma ln ln 5583 <= e^gamma ln ln n.
      e^gamma ln ln n passes 403/105 near n = 5582.15, so 5583 is the
      least cut-off this step gives.

    How, in one ``_hr_walk`` of the HR integers h <= hi at W =
    cfg.start_bits + _GUARD, on ``_hr_primes(hi)``, with first exponents
    up to the largest k with 2^k <= hi.
    - Carried step: a node h > 5040 is decided by ``check``'s own ln n
      floor on its carried hi and ln_lo, and goes to ``check`` itself
      only where that floor does not decide (``_unsatisfied``).  Either
      way the verdict is ``check``'s.
    - Subtree step, by layers: an extension d of h on the first r primes
      that holds exactly j more primes is h prod_(i<=j) p_(r+i)^(k_i),
      every k_i >= 1.  So d >= h P_j, P_j = p_(r+1) ... p_(r+j), and
      d <= hi needs h P_j <= hi.  As f(q, k) < q/(q - 1), sigma(d)/d <
      sigma(h)/h prod_(i<=j) p_(r+i)/(p_(r+i) - 1) <= U_j * 2**-W, with
      (h P_j, U_j, ln_lo_j) layer j of ``_subtree_layers``.  d's own hi
      is at most U_j (the same rounded-up steps, through factors no
      larger), and its ln_lo is at least ln_lo_j, so the floor threshold,
      which rises with ln_lo, is at least that of layer j.  Where U_j
      lies below the floor at ln_lo_j for every j with h P_j <= hi,
      ``check`` would call every d satisfied at its ln n floor, and the
      walk skips h's extensions.  That holds for any h, 5040 and below
      included.  The first layer the floor leaves open keeps the
      subtree; it is not handed to ``decide``.  Extensions with more
      primes are larger, so each layer meets a higher floor than one at
      h p_(r+1) would be.  So the result is the least n ``check`` leaves
      unsatisfied.
    - The walk extends no node at or past the least unsatisfied n found
      so far, since its extensions are larger.
    """
    cut = _primes.factorize(_COVER_FROM)
    if decide(_SIGMA_OVER_N_5040, functools.partial(robin_rhs, cut),
              cfg)[0] is not Comparison.LESS:
        return 0
    start = cfg.start_bits
    W = start + _GUARD
    plist = _hr_primes(hi)
    tail = [(p, _ln_prime_fp(p, W)[0]) for p in plist]
    bound = hi + 1

    def prune(node: tuple) -> bool:
        entries, n, s_hi, ln_lo, _ = node
        if n >= bound:
            return True
        for _, U, ln_j in _subtree_layers(s_hi, n, ln_lo,
                                          tail[len(entries):], hi):
            if not _below_floor(U, ln_j, start):
                return False
        return True

    for node in _hr_walk(plist, W, hi.bit_length() - 1, True, prune, X=hi):
        if 5040 < node[1] < bound and _unsatisfied(cfg, node) is not None:
            bound = node[1]
    return bound


def _scan_windows(lo: int, hi: int, cfg: PrecisionConfig) -> Iterator[list]:
    # [lo, cut) lies below _COVER_FROM and is sieved whole.  Of [cut, hi]
    # only [_cover_bound, hi] is, and an empty [cut, hi] runs no walk
    cut = min(max(lo, _COVER_FROM), hi + 1)
    rest = max(cut, _cover_bound(hi, cfg)) if cut <= hi else cut
    for start, stop in ((lo, cut), (rest, hi + 1)):
        for a in range(start, stop, SEGMENT_SIZE):
            yield _scan_segment(a, min(a + SEGMENT_SIZE, stop), cfg)


def iter_scan_results(
    lo: int,
    hi: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
) -> Iterator[list]:
    """Each sieved window's ``_scan_segment`` pairs, ascending and streamed.

    Bad arguments are refused here, before the first window is asked
    for.  With that first request, ``_cover_bound`` is worked out once
    (if hi >= 5583); only [lo, 5583) and [bound, hi] are sieved, in
    windows of ``SEGMENT_SIZE`` n that end at their stretch's end.
    """
    if lo < 2 or lo > hi:
        raise InvalidInput("need 2 <= lo <= hi")
    if hi > MAX_SCAN_HI:
        raise InvalidInput(f"hi exceeds the supported scan range {MAX_SCAN_HI}")
    return _scan_windows(lo, hi, cfg)


def scan_range(
    lo: int,
    hi: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    worker_count: int = 1,
) -> ScanReport:
    """Certified verdict for every n in [lo, hi]; violations ascending.

    The scan runs in this process; ``worker_count`` is checked (>= 1) and
    otherwise unused.  It stays for callers that still pass it, such as
    perfbench's ``scan_jobs2`` part.
    """
    if worker_count < 1:
        raise InvalidInput("worker_count must be >= 1")
    flagged = [pair for segment in iter_scan_results(lo, hi, cfg)
               for pair in segment]
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
        powers = _primes.factor_small(p + d, plist)
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
            e = alpha.e
            ratio = outward_ratio(alpha.lo_m << max(e, 0),
                                  alpha.hi_m << max(e, 0), qd, qn,
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


# the most bases a conjecture-2 search holds: each costs about 0.7 KB
# with its memo entry, and the all-arrangements (12, 8, 45) search
# enumerates 1,649,524
_BASE_BUDGET = 1 << 21


def _enumerate_bases(
    prime_count_max: int,
    exponent_max: int,
    log_n_max: Fraction,
    non_increasing_only: bool,
    bits: int,
) -> list[tuple]:
    """(entries, n, hi, ln_lo, ln_hi) of each base over a prefix of the primes.

    The ``_hr_walk`` nodes, in its order, on the first prime_count_max
    primes at W = bits + _GUARD, exponents up to exponent_max and
    non-increasing by default, kept while the certified upper bound of
    sum k_j ln p_j does not exceed log_n_max.  A walk past
    ``_BASE_BUDGET`` nodes is refused with ``InvalidInput`` once it
    reaches one more, before the search decides anything.
    """
    W = bits + _GUARD
    x_fp = (log_n_max.numerator << W) // log_n_max.denominator
    nodes = list(islice(_hr_walk(
        _primes.first_primes(prime_count_max), W, exponent_max,
        non_increasing_only, ln_max=x_fp), _BASE_BUDGET + 1))
    if len(nodes) > _BASE_BUDGET:
        raise InvalidInput(
            f"more than {_BASE_BUDGET} bases to search (the base budget); "
            "lower prime_count_max, exponent_max or log_n_max")
    return nodes


def conjecture32_search(
    prime_count_max: int,
    exponent_max: int,
    log_n_max: Fraction,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    non_increasing_only: bool = True,
) -> SearchReport:
    """Check every enumerated base > 5040 and each of its increments.

    A base that is not certified satisfied is reported as a counterexample
    row of its own, with index None, and its increments are neither
    decided nor reported.  One pass over ``_enumerate_bases``' nodes
    decides every n by ``_unsatisfied`` from its base's carried state, so
    ``check`` runs only where ``check``'s ln n floor leaves n open.  A
    memo keyed by n (exact by unique factorization; raising entry i
    multiplies n by p_i) holds each result, so a distinct n reached again
    is not decided again; the result depends on n alone.

    Bases are ``_enumerate_bases``' nodes, with exponents non-increasing
    by default.  Where n holds b at p and a > b at q > p, swapping the two
    gives n' = n (p/q)^(a-b) <= n, and (sigma(n')/n') / (sigma(n)/n) is
    the product over k = b..a-1 of g_k(1/p) / g_k(1/q) >= 1, g_k the
    increasing ratio of the exchange lemma below.  So a sorted arrangement
    that is satisfied implies every other one.  Likewise the increment
    n = base + e_j is decided by its sorted form h = base + e_i, i the
    entry that starts j's run of equal exponents, through the memo, and
    decided itself only when h is not satisfied.
    Exchange lemma: n holds k + 1 at p_j and k at p_i <= p_j,
    h swaps the two, so h = n p_i / p_j <= n.  sigma(m)/m is the product
    of S_e(1/p) = 1 + 1/p + ... + 1/p^e over m's entries p^e, so
    (sigma(h)/h) / (sigma(n)/n) = g_k(1/p_i) / g_k(1/p_j) with g_k(x) =
    S_(k+1)(x) / S_k(x) = 1 + 1/(x^-1 + ... + x^-(k+1)), which increases
    in x: sigma(h)/h >= sigma(n)/n.  As e^gamma ln ln n increases in n,
    h satisfied gives n satisfied.  With ``non_increasing_only=False`` no
    lemma is used: every arrangement is enumerated, each entry is a run
    of its own, and every increment is decided directly.
    """
    if prime_count_max < 1 or exponent_max < 1:
        raise InvalidInput("prime_count_max and exponent_max must be >= 1")
    log_n_max = Fraction(log_n_max)
    if log_n_max <= 0:
        raise InvalidInput("log_n_max must be positive")
    nodes = _enumerate_bases(prime_count_max, exponent_max, log_n_max,
                             non_increasing_only, cfg.start_bits)
    memo = {}  # n -> _unsatisfied's result

    def decided(n, node, i=None):
        if n not in memo:
            memo[n] = _unsatisfied(cfg, node, i)
        return memo[n]

    rows, probed = [], 0  # (base's entries, index, result)
    for node in nodes:
        base, n = node[:2]
        if n <= 5040:
            continue
        r = decided(n, node)
        if r is not None:
            rows.append((base, None, r))
            continue
        probed += 1
        for j, (p, k) in enumerate(base):
            if not non_increasing_only or j == 0 or k != base[j - 1][1]:
                i, h = j, decided(n * p, node, j)
            r = h if h is None or i == j else _unsatisfied(cfg, node, j)
            if r is not None:
                rows.append((base, j, r))
    return SearchReport(
        prime_count_max=prime_count_max,
        exponent_max=exponent_max,
        log_n_max=log_n_max,
        candidates_enumerated=len(nodes),
        bases_probed=probed,
        counterexamples=tuple((Factorization.from_canonical(b), j, r)
                              for b, j, r in rows),
    )
