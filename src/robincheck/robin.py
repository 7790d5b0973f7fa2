"""Sound three-valued verification of sigma(n) < e^gamma * n * log log n.

The comparison runs in normalized form: the left side sigma(n)/n is an
exact rational (a product of (p^(k+1)-1)/(p^k(p-1)) over the prime
factorization), the right side e^gamma * ln(ln n) is a certified
enclosure with ln n evaluated as sum k_j ln p_j, so n itself is never
materialized.  A verdict of Satisfied or Violated is only issued when
the exact rational falls strictly outside the enclosure; otherwise the
precision is escalated along ``PrecisionConfig.ladder``, and only when
the ladder is exhausted does the check report Indeterminate.

``_rhs_from_log`` is the one place e^gamma * ln(x) is enclosed, and the
one place that decides whether x > 1 is certified; the checker, the
scanner's block filter and the primorial table all feed it integer
bounds on ln n at scale 2**W, which is what ``log_n`` returns, and
``intervals.compare`` decides the rational left side against the
enclosure on integers too.

For n = 2 the right side has no useful value (ln ln 2 < 0, so the
inequality cannot hold for any n >= 2 whose sigma(n)/n >= 1); it is
reported Violated with an explicit ``rhs_undefined`` reason rather than
erroring, so range scanners get a total verdict.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .factorization import (
    EmptyFactorization,
    Factorization,
    sigma_over_n_fraction,
)
from .intervals import (
    _GUARD,
    Comparison,
    DEFAULT_PRECISION,
    Dyadic,
    PrecisionConfig,
    RealInterval,
    _ln_fp,
    compare,
    dyadic_from_fraction,
    exp_gamma,
    outward_interval,
)
from . import primes as _primes


class RhsUndefined(Exception):
    """ln(ln n) is not certifiably positive; the RHS has no usable value."""


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INDETERMINATE = "indeterminate"


REASON_RHS_UNDEFINED = "rhs_undefined"
REASON_LHS_EXCEEDS_RHS = "lhs_exceeds_rhs"
REASON_ESCALATION_EXHAUSTED = "escalation_exhausted"


@dataclass(frozen=True)
class CheckResult:
    """One verdict with what decided it.

    ``margin_lower_bound`` is derived on first read: no verdict needs it,
    so ``check`` does not build it.
    """

    factorization: Factorization
    lhs: Fraction
    rhs: Optional[RealInterval]
    verdict: Verdict
    precision_used: int
    reason: Optional[str] = None

    @functools.cached_property
    def margin_lower_bound(self) -> Optional[Dyadic]:
        """How far lhs lies outside the enclosure, at ``precision_used`` bits.

        rhs.lo - lhs when satisfied, lhs - rhs.hi when violated, rounded
        down so that tables never overstate the separation; None when no
        enclosure decided the verdict (n = 2, indeterminate).
        """
        if self.verdict is Verdict.SATISFIED:
            gap = self.rhs.lo.as_fraction() - self.lhs
        elif self.verdict is Verdict.VIOLATED and self.rhs is not None:
            gap = self.lhs - self.rhs.hi.as_fraction()
        else:
            return None
        return dyadic_from_fraction(gap, self.precision_used, False)


# ln(p) bounds cache keyed by (p, W); ln p is recomputed constantly during
# scans and sweeps, and the fixed-point bounds are just two ints.
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
    if not f.entries:
        raise EmptyFactorization("log_n of the empty factorization")
    W = precision_bits + _GUARD
    lo = hi = 0
    for p, k in f.entries:
        L, H = _ln_prime_fp(p, W)
        lo += k * L
        hi += k * H
    return lo, hi


def _rhs_from_log(lo: int, hi: int,
                  precision_bits: int) -> Optional[RealInterval]:
    """Enclosure of e^gamma * ln(x) for every x in [lo, hi] * 2**-W.

    W = precision_bits + _GUARD.  None unless lo > 2**W: this is the one
    test of x > 1 that the right side needs.  Past it, ln x and e^gamma
    are both positive, so the product bounds are the endpoint products,
    rounded outward at W bits.
    """
    W = precision_bits + _GUARD
    one = 1 << W
    if lo <= one:
        return None
    L, H = _ln_fp(lo, hi, one, W)
    eg_lo, eg_hi = exp_gamma(precision_bits)
    return outward_interval(eg_lo * L, eg_hi * H, one << W, W)


def robin_rhs(f: Factorization, precision_bits: int) -> RealInterval:
    """Enclosure of e^gamma * ln(ln n).

    Raises RhsUndefined unless ln n > 1 (n > e) is certifiable at this
    precision, which is what makes the outer log's value positive; n = 2
    always fails, n = 3 certifies at any reasonable precision.
    """
    rhs = _rhs_from_log(*log_n(f, precision_bits), precision_bits)
    if rhs is None:
        raise RhsUndefined("cannot certify ln n > 1")
    return rhs


def check(f: Factorization, cfg: PrecisionConfig = DEFAULT_PRECISION) -> CheckResult:
    """Certified verdict on sigma(n)/n < e^gamma ln ln n, escalating precision.

    Satisfied and Violated are interval-separated certainties.  n = 2,
    the one n >= 2 with n <= e, has no right side and maps to Violated
    with the ``rhs_undefined`` reason, since sigma(n)/n >= 1 exceeds any
    negative/undefined right side.  A rung whose ln n > 1 is not yet
    certified escalates like an overlap does.
    """
    if not f.entries:
        raise EmptyFactorization("check of the empty factorization")
    lhs = sigma_over_n_fraction(f)
    if f.entries == ((2, 1),):
        return CheckResult(f, lhs, None, Verdict.VIOLATED, cfg.start_bits,
                           reason=REASON_RHS_UNDEFINED)
    for bits in cfg.ladder():
        rhs = _rhs_from_log(*log_n(f, bits), bits)
        if rhs is None:
            continue
        cmp_result = compare(lhs, rhs)
        if cmp_result is Comparison.LESS:
            return CheckResult(f, lhs, rhs, Verdict.SATISFIED, bits)
        if cmp_result is Comparison.GREATER:
            return CheckResult(f, lhs, rhs, Verdict.VIOLATED, bits,
                               reason=REASON_LHS_EXCEEDS_RHS)
    return CheckResult(f, lhs, rhs, Verdict.INDETERMINATE, bits,
                       reason=REASON_ESCALATION_EXHAUSTED)


def check_n(n: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> CheckResult:
    """factorize(n) then check; n must fit the raw-input factoring range."""
    return check(_primes.factorize(n), cfg)
