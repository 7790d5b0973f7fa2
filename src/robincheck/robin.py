"""Sound three-valued verification of sigma(n) < e^gamma * n * log log n.

The comparison runs in normalized form: the left side sigma(n)/n is an
exact rational (a product of (p^(k+1)-1)/(p^k(p-1)) over the prime
factorization), the right side e^gamma * ln(ln n) is a certified
enclosure with ln n evaluated as sum k_j ln p_j, so n itself is never
materialized.  A verdict of Satisfied or Violated is only issued when
the exact rational falls strictly outside the enclosure; otherwise the
precision is escalated along ``PrecisionConfig.ladder``, and only when
the ladder is exhausted does the check report Indeterminate.

``_rhs_from_log`` is the one place e^gamma * ln(x) is enclosed; the
checker, the scanner's block filter and the primorial table all feed it
integer bounds on ln n at scale 2**W: ``log_n``'s endpoints are such
integers at the shared exponent -W, and ``intervals.compare`` decides
the rational left side against the enclosure on integers too.

For n = 2 the right side has no useful value (ln ln 2 < 0, so the
inequality cannot hold for any n >= 2 whose sigma(n)/n >= 1); such
inputs are reported Violated with an explicit ``rhs_undefined`` reason
rather than erroring, so range scanners get a total verdict.
"""

from __future__ import annotations

import enum
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
    DomainError,
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
    factorization: Factorization
    lhs: Fraction
    rhs: Optional[RealInterval]
    verdict: Verdict
    precision_used: int
    margin_lower_bound: Optional[Dyadic]
    reason: Optional[str] = None


# ln(p) bounds cache keyed by (p, W); ln p is recomputed constantly during
# scans and sweeps, and the fixed-point bounds are just two ints.
_LN_PRIME_CACHE: dict[tuple[int, int], tuple[int, int]] = {}
_LN_PRIME_CACHE_MAX = 1 << 18


def _ln_prime_fp(p: int, W: int) -> tuple[int, int]:
    key = (p, W)
    got = _LN_PRIME_CACHE.get(key)
    if got is None:
        got = _ln_fp(p, 1, W)
        if len(_LN_PRIME_CACHE) < _LN_PRIME_CACHE_MAX:
            _LN_PRIME_CACHE[key] = got
    return got


def log_n(f: Factorization, precision_bits: int) -> RealInterval:
    """Enclosure of ln(n) = sum k_j ln(p_j); n is never materialized.

    The endpoints sit at exponent -W, W = precision_bits + _GUARD, so
    ``.lo.m`` and ``.hi.m`` are the integer bounds on ln(n) * 2**W that
    ``_rhs_from_log`` takes.
    """
    if not f.entries:
        raise EmptyFactorization("log_n of the empty factorization")
    W = precision_bits + _GUARD
    lo = 0
    hi = 0
    for p, k in f.entries:
        L, H = _ln_prime_fp(p, W)
        lo += k * L
        hi += k * H
    return RealInterval(Dyadic(lo, -W), Dyadic(hi, -W), precision_bits)


def _rhs_from_log(lo: int, hi: int, precision_bits: int) -> RealInterval:
    """Enclosure of e^gamma * ln(x) for every x in [lo, hi] * 2**-W.

    W = precision_bits + _GUARD, and lo > 2**W (x > 1) is required: then
    ln x and e^gamma are both positive, so the product bounds are the
    endpoint products, rounded outward at W bits.
    """
    W = precision_bits + _GUARD
    one = 1 << W
    if lo <= one:
        raise DomainError("e^gamma * ln(x) needs a certified x > 1")
    L, _ = _ln_fp(lo, one, W)
    _, H = _ln_fp(hi, one, W)
    eg = exp_gamma(precision_bits)  # endpoints at exponent -W
    return outward_interval(eg.lo.m * L, eg.hi.m * H, one << W, W,
                            precision_bits)


def robin_rhs(f: Factorization, precision_bits: int) -> RealInterval:
    """Enclosure of e^gamma * ln(ln n).

    Raises RhsUndefined unless ln n > 1 (n > e) is certifiable at this
    precision, which is what makes the outer log's value positive; n = 2
    always fails, n = 3 certifies at any reasonable precision.
    """
    lnn = log_n(f, precision_bits)
    one = 1 << (precision_bits + _GUARD)
    if lnn.lo.m <= one:
        raise RhsUndefined(
            "cannot certify ln n > 1"
            + (" (n <= e, permanently undefined)" if lnn.hi.m <= one else "")
        )
    return _rhs_from_log(lnn.lo.m, lnn.hi.m, precision_bits)


def check(f: Factorization, cfg: PrecisionConfig = DEFAULT_PRECISION) -> CheckResult:
    """Certified verdict on sigma(n)/n < e^gamma ln ln n, escalating precision.

    Satisfied and Violated are interval-separated certainties.  A
    permanently undefined RHS (n <= e) maps to Violated with the
    ``rhs_undefined`` reason, since sigma(n)/n >= 1 exceeds any
    negative/undefined right side for n >= 2.
    """
    if not f.entries:
        raise EmptyFactorization("check of the empty factorization")
    lhs = sigma_over_n_fraction(f)
    rhs = None
    for bits in cfg.ladder():
        lnn = log_n(f, bits)  # endpoints at exponent -(bits + _GUARD)
        one = 1 << (bits + _GUARD)
        if lnn.hi.m <= one:
            # certified n <= e: RHS undefined for good
            return CheckResult(f, lhs, None, Verdict.VIOLATED, bits, None,
                               reason=REASON_RHS_UNDEFINED)
        if lnn.lo.m <= one:
            rhs = None
            continue
        rhs = _rhs_from_log(lnn.lo.m, lnn.hi.m, bits)
        cmp_result = compare(lhs, rhs)
        if cmp_result is Comparison.LESS:
            margin = _round_down_margin(rhs.lo.as_fraction() - lhs, bits)
            return CheckResult(f, lhs, rhs, Verdict.SATISFIED, bits, margin)
        if cmp_result is Comparison.GREATER:
            margin = _round_down_margin(lhs - rhs.hi.as_fraction(), bits)
            return CheckResult(f, lhs, rhs, Verdict.VIOLATED, bits, margin,
                               reason=REASON_LHS_EXCEEDS_RHS)
    return CheckResult(f, lhs, rhs, Verdict.INDETERMINATE, bits, None,
                       reason=REASON_ESCALATION_EXHAUSTED)


def _round_down_margin(fr: Fraction, bits: int) -> Dyadic:
    # understate the separation so downstream tables never overstate it
    return dyadic_from_fraction(fr, bits, False)


def check_n(n: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> CheckResult:
    """factorize(n) then check; n must fit the raw-input factoring range."""
    return check(_primes.factorize(n), cfg)
