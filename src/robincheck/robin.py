"""Sound three-valued verification of sigma(n) < e^gamma * n * log log n.

The comparison runs in normalized form: the left side sigma(n)/n is an
exact rational (a product of (p^(k+1)-1)/(p^k(p-1)) over the prime
factorization), decided through integer bounds on it at scale 2**-W
(``sigma_over_n_fp``, which builds no big p^k) and built exactly only
for a rung that enclosure overlaps; the right side e^gamma *
ln(ln n) is a certified enclosure with ln n evaluated as sum k_j ln p_j,
so n itself is never materialized.  A verdict of Satisfied or Violated
is only issued when the rational falls strictly below or above a
certified bound on the right side, so every verdict and rung is the one
the exact rational gives; otherwise the precision is escalated along
``PrecisionConfig.ladder``, and only when the ladder is exhausted does
the check report Indeterminate.

Most n lie far below the right side, so ``check`` first tests the left
side against a floor, a lower bound at the start rung that depends only
on the top bits of a lower bound on ln n (``_rhs_floor``), as one
integer comparison with its threshold at scale 2**-W, memoized per floor
key (``_floor_threshold``).  It takes that bound first from n's bit
length, B ln 2 with B = sum k_j (bit_length(p_j) - 1), which needs no ln
p series since n >= 2**B; only where that floor does not decide
Satisfied does it compute ``log_n`` for a floor from ln n itself, and
only where neither decides does it build the left side's enclosure and
that of n's own right side.  Each floor is never above that enclosure's
lower end, so the verdict and bits are those the enclosure gives;
``CheckResult.rhs`` and ``CheckResult.lhs`` are then built on their
first read.

``_rhs_from_log`` is the one place e^gamma * ln(x) is enclosed, and the
one place that decides whether x > 1 is certified; the checker (through
``robin_rhs``, a factorization's right side, None where ln n > 1 is not
certified), the scanner's block filter and the primorial table all feed
it integer
bounds on ln n at scale 2**W, which is what ``log_n`` returns, and
``intervals.compare`` decides the left side, an enclosure or the exact
rational, against the right side's enclosure on integers too.

For n = 2 the right side has no useful value (ln ln 2 < 0, so the
inequality cannot hold for any n >= 2 whose sigma(n)/n >= 1); it is
reported Violated with an explicit ``rhs_undefined`` reason rather than
erroring, so range scanners get a total verdict.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .factorization import (
    Factorization,
    sigma_over_n_fp,
    sigma_over_n_fraction,
)
from .intervals import (
    _GUARD,
    Comparison,
    DEFAULT_PRECISION,
    Dyadic,
    GAMMA_MAX_BITS,
    PrecisionConfig,
    RealInterval,
    _ln2_fp,
    _ln_fp,
    _shared_exponent,
    compare,
    dyadic_from_fraction,
    exp_gamma,
)
from . import primes as _primes


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INDETERMINATE = "indeterminate"


REASON_RHS_UNDEFINED = "rhs_undefined"
REASON_LHS_EXCEEDS_RHS = "lhs_exceeds_rhs"
REASON_ESCALATION_EXHAUSTED = "escalation_exhausted"


@dataclass(frozen=True, slots=True, init=False)
class CheckResult:
    """One verdict with what decided it.

    ``lhs`` is the exact ``sigma_over_n_fraction(factorization)``, and
    ``rhs`` is ``robin_rhs(factorization, precision_used)``, the
    enclosure that decided the verdict (None for n = 2).  A result whose
    verdict did not need one of them holds ``...`` in its ``_lhs`` or
    ``_rhs`` slot and builds the value on the first read, which only
    output, margins and callers that compare left sides do; the slots are
    left out of eq, hash and repr, so a result equals and hashes alike
    before and after those reads, and pickles what it holds.
    ``margin_lower_bound`` is derived on each read: no verdict needs it,
    so ``check`` does not build it, and a caller reads it once.

    ``__init__`` fills the slots through their own setters, which skip
    the name lookup of the frozen dataclass's ``object.__setattr__``;
    eq, hash, repr, ``dataclasses.replace`` and pickling are the
    dataclass's, and assignment still raises ``FrozenInstanceError``.
    """

    factorization: Factorization
    _lhs: object = field(compare=False, repr=False)
    _rhs: object = field(compare=False, repr=False)
    verdict: Verdict
    precision_used: int
    reason: Optional[str] = None

    def __init__(self, factorization: Factorization, _lhs: object,
                 _rhs: object, verdict: Verdict, precision_used: int,
                 reason: Optional[str] = None):
        _set_factorization(self, factorization)
        _set_lhs(self, _lhs)
        _set_rhs(self, _rhs)
        _set_verdict(self, verdict)
        _set_precision_used(self, precision_used)
        _set_reason(self, reason)

    @property
    def lhs(self) -> Fraction:
        if self._lhs is ...:
            _set_lhs(self, sigma_over_n_fraction(self.factorization))
        return self._lhs

    @property
    def rhs(self) -> Optional[RealInterval]:
        if self._rhs is ...:
            _set_rhs(self, robin_rhs(self.factorization, self.precision_used))
        return self._rhs

    @property
    def margin_lower_bound(self) -> Optional[Dyadic]:
        """How far lhs lies outside the enclosure, at ``precision_used`` bits.

        rhs.lo - lhs when satisfied, lhs - rhs.hi when violated, rounded
        down so that tables never overstate the separation; None when no
        enclosure decided the verdict (n = 2, indeterminate).
        """
        rhs = self.rhs
        if self.verdict is Verdict.SATISFIED:
            gap = rhs.lo.as_fraction() - self.lhs
        elif self.verdict is Verdict.VIOLATED and rhs is not None:
            gap = self.lhs - rhs.hi.as_fraction()
        else:
            return None
        return dyadic_from_fraction(gap, self.precision_used, False)


_set_factorization = CheckResult.factorization.__set__
_set_lhs = CheckResult._lhs.__set__
_set_rhs = CheckResult._rhs.__set__
_set_verdict = CheckResult.verdict.__set__
_set_precision_used = CheckResult.precision_used.__set__
_set_reason = CheckResult.reason.__set__


# ln(p) bounds cache keyed by (p, W); ``log_n`` reads it for the n that
# check's bit-length floor leaves undecided and for every rhs read, and
# the primorial table and the conjecture-2 base enumeration read it per
# prime.  The fixed-point bounds are just two ints.  It stays a dict: the
# benchmark reads its length for its ln p cache hit ratio.
_LN_PRIME_CACHE: dict[tuple[int, int], tuple[int, int]] = {}
_LN_PRIME_CACHE_MAX = 1 << 18


def _ln_prime_fp(p: int, W: int) -> tuple[int, int]:
    key = (p, W)
    got = _LN_PRIME_CACHE.get(key)
    if got is None:
        got = _ln_fp(p, p, 1, W)
        if len(_LN_PRIME_CACHE) < _LN_PRIME_CACHE_MAX:
            _LN_PRIME_CACHE[key] = got
    return got


def log_n(f: Factorization, precision_bits: int) -> tuple[int, int]:
    """Bounds (lo, hi) on ln(n) * 2**W, W = precision_bits + _GUARD.

    ln(n) = sum k_j ln(p_j), so n is never materialized; the bounds are
    what ``_rhs_from_log`` takes.
    """
    W = precision_bits + _GUARD
    lo = hi = 0
    for p, k in f.entries:
        L, H = _ln_prime_fp(p, W)
        lo += k * L
        hi += k * H
    return lo, hi


# Ziv's test reruns ln x with _GUARD more bits at most this many times
_ZIV_RERUNS = 2


def _rhs_from_log(lo: int, hi: int, precision_bits: int,
                  ln_x: Optional[Callable[[int], tuple[int, int]]] = None,
                  ) -> Optional[RealInterval]:
    """Enclosure of e^gamma * ln(x) for every x in [lo, hi] * 2**-W.

    W = precision_bits + _GUARD.  None unless lo > 2**W: this is the one
    test of x > 1 that the right side needs.  Past it, ln x and e^gamma
    are both positive, so the product enclosure [A, B] * 2**(-2W) is the
    pair of endpoint products, and each end is rounded outward to
    ``precision_bits`` significant bits, at the exponent its own
    magnitude gives, by shifts alone.

    When [lo, hi] encloses one x up to kernel error, ``ln_x(b)`` gives
    the bounds again at b precision bits (scale 2**(b + _GUARD)).  If A
    and B round to the same two grid points, those are the true value's
    RD and RU (Ziv's test), so the result does not depend on the kernel;
    otherwise ln x is recomputed with _GUARD more bits, at most
    _ZIV_RERUNS times and within the gamma digits.  After that, or with
    no ``ln_x`` (an input interval wide by itself), the result is the
    outward rounding of the first attempt's [A, B], which is sound.
    """
    b = precision_bits
    W = b + _GUARD
    if lo <= 1 << W:
        return None
    fallback = None
    for _ in range(_ZIV_RERUNS + 1):
        L, H = _ln_fp(lo, hi, 1 << W, W)
        eg_lo, eg_hi = exp_gamma(b)
        A, B = eg_lo * L, eg_hi * H  # at scale 2**(2W), 0 <= A <= B
        # X's grid step is 2**(nX - precision_bits) at scale 2**(2W), nX
        # its bit length, so floor(X / step) = (X << bits) >> nX (A = 0
        # takes B's step)
        nb = B.bit_length()
        na = A.bit_length() or nb
        lo_m = (A << precision_bits) >> na
        hi_m = -((-B << precision_bits) >> nb)
        if (na == nb and lo_m == (B << precision_bits) >> na
                and hi_m == -((-A << precision_bits) >> na)):
            return RealInterval(lo_m, hi_m, na - precision_bits - 2 * W)
        if fallback is None:
            fallback = _shared_exponent((lo_m, na - precision_bits - 2 * W),
                                        (hi_m, nb - precision_bits - 2 * W))
        if ln_x is None or b + _GUARD > GAMMA_MAX_BITS:
            break
        b += _GUARD
        W = b + _GUARD
        lo, hi = ln_x(b)
        if lo <= 1 << W:
            break
    return fallback


def robin_rhs(f: Factorization, precision_bits: int) -> Optional[RealInterval]:
    """Enclosure of e^gamma * ln(ln n).

    None unless ln n > 1 (n > e) is certifiable at this precision, which
    is what makes the outer log's value positive; n = 2 always gives
    None, n = 3 certifies at any reasonable precision.
    """
    return _rhs_from_log(*log_n(f, precision_bits), precision_bits,
                         functools.partial(log_n, f))


def decide(lhs: Fraction | RealInterval,
           rhs_at: Callable[[int], Optional[RealInterval]],
           cfg: PrecisionConfig,
           exact: Optional[Callable[[], Fraction]] = None,
           ) -> tuple[Comparison, Optional[RealInterval], int]:
    """``compare(lhs, rhs_at(bits))`` up ``cfg.ladder()`` until it decides.

    The one precision-escalation loop: returns the first Less or Greater
    with the enclosure and bits that gave it, else Overlapping with the
    top rung's.  A rung where ``rhs_at`` gives None escalates like an
    overlap does.  ``lhs`` is an exact rational or an enclosure of the
    value ``exact()`` gives; where the enclosure overlaps a rung, that
    rung compares ``exact()`` instead, so each rung decides as the exact
    value would.
    """
    for bits in cfg.ladder():
        rhs = rhs_at(bits)
        if rhs is None:
            continue
        cmp_result = compare(lhs, rhs)
        if cmp_result is Comparison.OVERLAPPING and exact is not None:
            cmp_result = compare(exact(), rhs)
        if cmp_result is not Comparison.OVERLAPPING:
            return cmp_result, rhs, bits
    return Comparison.OVERLAPPING, rhs, bits


# x_f keeps the top _FLOOR_BITS bits of a bound on ln n, so each precision
# has at most 64 floor keys (x_f, bits) per binade of ln n, a few thousand
# over every n the package checks; the lru cache keeps up to 2**16.
_FLOOR_BITS = 7


def _floor_key(x: int) -> int:
    """x_f: x's top _FLOOR_BITS bits minus one step 2**s of that grid."""
    s = x.bit_length() - _FLOOR_BITS
    return ((x >> s) - 1) << s


def _rhs_floor(x: int, precision_bits: int) -> Optional[RealInterval]:
    """An enclosure whose lo is at most ``robin_rhs``'s lo at these bits.

    ``x`` is any integer with 2**_FLOOR_BITS <= x <= ln n * 2**W, W =
    precision_bits + _GUARD: ``log_n``'s lower bound, or ``check``'s
    bit-length bound B ln 2, which needs no ln p series.  The result is
    ``_rhs_from_log(x_f, x_f, precision_bits)`` at x_f = ``_floor_key(x)``
    (None where x_f <= 2**W).

    Why its lo, T, is at most rhs.lo of ``robin_rhs(f, precision_bits)``
    for every such x: with b = precision_bits and eg = exp_gamma(b)[0],
    write RD_b(X) for X * 2**(-2W) rounded down to b significant bits,
    which is monotone in X.  T = RD_b(eg * L_f), L_f the lower bound of
    ``_ln_fp`` at x_f, since with no ``ln_x`` ``_rhs_from_log`` returns
    its first attempt's rounding.  rhs.lo is RD_b(eg * L), L the lower
    bound of ``_ln_fp`` over ``log_n``'s [ln_lo, ln_hi], when Ziv's test
    passes at once or the fallback is taken, and the correctly rounded
    value, which is at least that, after a rerun.  So T <= rhs.lo once
    L_f <= L.  As x < 2**(s + _FLOOR_BITS) and x_f <= x - 2**s, ln(x) -
    ln(x_f) > 2**-_FLOOR_BITS.  ln_lo sums k_j bounds on ln p_j * 2**W,
    each at most 2W below, and sum k_j <= log2 n, so ln_lo lies within a
    factor 1 - 3W * 2**-W of ln n * 2**W >= x.  The kernel being sound and
    within 2W ulps of ln, L_f lies below L by more than
    2**(W-7) - 6W - 2W > 0 ulps (true for W >= 14, so for every W >= 33
    that ``PrecisionConfig`` accepts).  In value T lies about e^gamma *
    2**-7 below the right side or more, so only an n whose sigma(n)/n is
    that close to it needs its own enclosure.
    """
    x_f = _floor_key(x)
    return _rhs_from_log(x_f, x_f, precision_bits)


@functools.lru_cache(maxsize=1 << 16)
def _floor_threshold(x_f: int, precision_bits: int) -> int:
    """ceil(T * 2**W) for the floor T at key x_f; 0 where there is none.

    W = precision_bits + _GUARD, and T is the lo of ``_rhs_floor`` at
    any x with that key.  An integer hi then has hi * 2**-W < T exactly
    when hi < the result, and no hi >= 1 is below 0.  Memoized per floor
    key (x_f, bits), the one cache the floors keep.
    """
    floor = _rhs_from_log(x_f, x_f, precision_bits)
    if floor is None:
        return 0
    s = floor.e + precision_bits + _GUARD
    return floor.lo_m << s if s >= 0 else -(-floor.lo_m >> -s)


def _below_floor(hi: int, x: int, precision_bits: int) -> bool:
    """Whether hi * 2**-W lies below ``_rhs_floor(x, precision_bits)``'s lo.

    W = precision_bits + _GUARD; the enclosure [lo, hi] * 2**-W is then
    wholly below that floor, which is what ``compare`` would call Less.
    One integer comparison against ``_floor_threshold``.
    """
    return hi < _floor_threshold(_floor_key(x), precision_bits)


def _below_bit_floor(hi: int, entries, precision_bits: int) -> bool:
    """``_below_floor`` at B ln 2, for n with these canonical entries.

    B = sum k (bit_length(p) - 1) over the entries (p, k), the one
    definition of the bit-length sum, so n >= 2**B.  B ln 2 takes
    ``_ln2_fp``'s lower bound at W = precision_bits + _GUARD, so it
    bounds ln n * 2**W from below with no ln p series.  B does not fall
    when a prime p is replaced by a larger one, and the floor does not
    fall as B rises: an entry list below the floor at some hi stays below
    it at any smaller hi with any larger primes.
    """
    B = 0
    for p, k in entries:
        B += k * (p.bit_length() - 1)
    return _below_floor(hi, B * _ln2_fp(precision_bits + _GUARD)[0],
                        precision_bits)


def check(f: Factorization, cfg: PrecisionConfig = DEFAULT_PRECISION) -> CheckResult:
    """Certified verdict on sigma(n)/n < e^gamma ln ln n, escalating precision.

    Satisfied and Violated are interval-separated certainties.  n = 2,
    the one n >= 2 with n <= e, has no right side and maps to Violated
    with the ``rhs_undefined`` reason, since sigma(n)/n >= 1 exceeds any
    negative/undefined right side.  A rung whose ln n > 1 is not yet
    certified escalates like an overlap does.

    The left side is ``sigma_over_n_fp``'s integer bounds [lo, hi] at
    scale 2**-W, W = ``cfg.start_bits`` + _GUARD, which hold sigma(n)/n.
    Where hi lies below ``_rhs_floor``'s integer threshold at the start
    rung (``_below_floor``), tried at B ln 2 (``_below_bit_floor``, which
    sums B = sum k (bit_length(p) - 1) over the entries: a lower bound on
    ln n that runs no ln p series) and then at ``log_n``'s lower bound,
    it is Satisfied there; a floor lies at or below the start rung's
    enclosure, so that is ``decide``'s verdict and rung for the exact
    value too.  Up to there the work is on ints: no interval is built
    and nothing is compared.
    The rest builds the enclosure and goes to ``decide``, whose start rung
    reuses those ln n bounds and which builds the exact sigma(n)/n only
    for a rung the enclosure overlaps; ``lhs`` and ``rhs`` are otherwise
    built on their first read.
    """
    start = cfg.start_bits
    entries = f.entries
    if entries == ((2, 1),):
        return CheckResult(f, ..., None, Verdict.VIOLATED, start,
                           REASON_RHS_UNDEFINED)
    W = start + _GUARD
    lo, hi = sigma_over_n_fp(f, W)
    if _below_bit_floor(hi, entries, start):
        return CheckResult(f, ..., ..., Verdict.SATISFIED, start)
    ln_lo, ln_hi = log_n(f, start)
    if _below_floor(hi, ln_lo, start):
        return CheckResult(f, ..., ..., Verdict.SATISFIED, start)

    def rhs_at(b: int) -> Optional[RealInterval]:
        # robin_rhs, reusing the start rung's ln n bounds
        if b != start:
            return robin_rhs(f, b)
        return _rhs_from_log(ln_lo, ln_hi, b, functools.partial(log_n, f))

    built = []  # the exact sigma(n)/n, once a rung needs it

    def exact() -> Fraction:
        if not built:
            built.append(sigma_over_n_fraction(f))
        return built[0]

    cmp_result, rhs, bits = decide(RealInterval(lo, hi, -W), rhs_at, cfg,
                                   exact)
    exact_lhs = built[0] if built else ...
    if cmp_result is Comparison.LESS:
        return CheckResult(f, exact_lhs, rhs, Verdict.SATISFIED, bits)
    if cmp_result is Comparison.GREATER:
        return CheckResult(f, exact_lhs, rhs, Verdict.VIOLATED, bits,
                           REASON_LHS_EXCEEDS_RHS)
    return CheckResult(f, exact_lhs, rhs, Verdict.INDETERMINATE, bits,
                       REASON_ESCALATION_EXHAUSTED)


def check_n(n: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> CheckResult:
    """factorize(n) then check; n must fit the raw-input factoring range."""
    return check(_primes.factorize(n), cfg)
