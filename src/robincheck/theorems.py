"""Executable content of the prime-power and prime-substitution theorems.

The substitution theorem says a satisfied factorization stays satisfied
when any base prime is replaced by a larger one (exponents fixed).  Its
computable content is two monotonicity facts, and that is what this
module certifies case by case: the divisor-side product strictly
decreases (exact rational comparison) and the log-side strictly
increases (certified interval separation of the two ln n enclosures).

The corollary bound calculators compare the exponent-independent bound
prod p/(p-1), and the squarefree bound prod (p+1)/p, over the first m
primes against the fixed threshold e^gamma * ln ln 5040; these mirror
the proof technique, not the per-n truth, which is the scanner's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .factorization import Factorization
from .intervals import (
    DEFAULT_PRECISION,
    PrecisionConfig,
    RealInterval,
)
from .robin import CheckResult, Verdict, check, log_n, robin_rhs
from . import primes as _primes


class NotAnIncrease(Exception):
    """Substitution requires new_prime > the prime being replaced."""


class CollidingBase(Exception):
    """Substitution would merge two equal bases; the theorem needs m distinct primes."""


def threshold_5040(cfg: PrecisionConfig = DEFAULT_PRECISION) -> RealInterval:
    """Enclosure of e^gamma * ln ln 5040 ~ 3.817."""
    return robin_rhs(Factorization(((2, 4), (3, 2), (5, 1), (7, 1))),
                     cfg.start_bits)


def _prime_powers_in(lo_exclusive: int, hi_inclusive: int):
    """All (p, k, p^k) with lo < p^k <= hi, ascending by value."""
    out = []
    for p in _primes.primes_up_to(hi_inclusive):
        if p > lo_exclusive:
            out.append((p, 1, p))
    k = 2
    while 2 ** k <= hi_inclusive:
        for p in _primes.primes_up_to(_nth_root(hi_inclusive, k)):
            v = p ** k
            if v > lo_exclusive:
                out.append((p, k, v))
        k += 1
    out.sort(key=lambda t: t[2])
    return out


def _nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)), exact."""
    if n < 1:
        return 0
    r = int(round(n ** (1.0 / k)))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def verify_prime_powers(
    limit: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> list[CheckResult]:
    """Check every prime power in (5040, limit]; all are predicted Satisfied."""
    if limit <= 5040:
        raise ValueError("limit must exceed 5040")
    results = []
    for p, k, _ in _prime_powers_in(5040, limit):
        results.append(check(Factorization(((p, k),)), cfg))
    return results


def substitute_prime(f: Factorization, index: int, new_prime: int) -> Factorization:
    """Replace the base at ``index`` with a larger prime, re-canonicalized.

    A new prime at or above 3.317e24 raises ``primes.PrimalityUnknown``.
    """
    if not 0 <= index < len(f.entries):
        raise IndexError("substitution index out of range")
    old_prime, k = f.entries[index]
    if not _primes.is_prime(new_prime):
        raise _primes.NotPrime(f"{new_prime} is not prime")
    if new_prime <= old_prime:
        raise NotAnIncrease(f"{new_prime} <= {old_prime}")
    if any(p == new_prime for p, _ in f.entries):
        raise CollidingBase(f"{new_prime} already a base")
    ents = list(f.entries)
    ents[index] = (new_prime, k)
    return Factorization(tuple(ents))


@dataclass(frozen=True)
class SubstitutionReport:
    before: CheckResult
    after: CheckResult
    index: int
    old_prime: int
    new_prime: int
    lhs_decreased: bool
    rhs_increased: Optional[bool]  # None: undecided at the top of the ladder


def substitution_report(
    f: Factorization,
    index: int,
    new_prime: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
) -> SubstitutionReport:
    """Certify both monotonicity claims for one prime substitution."""
    after_f = substitute_prime(f, index, new_prime)
    old_prime = f.entries[index][0]
    before = check(f, cfg)
    if before.verdict is Verdict.INDETERMINATE:
        raise ValueError("base verdict is indeterminate; cannot report")
    after = check(after_f, cfg)
    lhs_decreased = after.lhs < before.lhs
    rhs_increased = _certify_log_increase(f, after_f, cfg)
    return SubstitutionReport(
        before=before,
        after=after,
        index=index,
        old_prime=old_prime,
        new_prime=new_prime,
        lhs_decreased=lhs_decreased,
        rhs_increased=rhs_increased,
    )


def _certify_log_increase(
    f_before: Factorization, f_after: Factorization, cfg: PrecisionConfig
) -> Optional[bool]:
    """Whether ln(n_after) > ln(n_before), by interval separation.

    True or False once the two enclosures separate; None when they still
    overlap at the top of the precision ladder.
    """
    for bits in cfg.ladder():
        la = log_n(f_before, bits)  # same bits, so one shared exponent
        lb = log_n(f_after, bits)
        if lb.lo.m > la.hi.m:
            return True
        if lb.hi.m < la.lo.m:
            return False
    return None


@dataclass(frozen=True)
class BoundReport:
    m: int
    bound_value: Fraction
    threshold: RealInterval
    passes: bool


def bound_table(
    m_max: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> list[tuple[int, BoundReport, BoundReport]]:
    """(p_m, unbounded, squarefree) reports for m = 1..m_max, in one pass.

    ``unbounded`` is prod p/(p-1) and ``squarefree`` prod (p+1)/p over the
    first m primes, both against one enclosure of e^gamma ln ln 5040.
    """
    if m_max < 1:
        raise ValueError("m must be >= 1")
    thr = threshold_5040(cfg)
    thr_lo = thr.lo.as_fraction()
    unbounded = squarefree = Fraction(1)
    rows = []
    for m, p in enumerate(_primes.first_primes(m_max), 1):
        unbounded *= Fraction(p, p - 1)
        squarefree *= Fraction(p + 1, p)
        rows.append((p,
                     BoundReport(m, unbounded, thr, unbounded < thr_lo),
                     BoundReport(m, squarefree, thr, squarefree < thr_lo)))
    return rows


def unbounded_exponent_bound(
    m: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> BoundReport:
    """prod p/(p-1) over the first m primes vs e^gamma ln ln 5040.

    The product bounds the divisor side for every exponent choice, so a
    pass certifies the inequality for all n > 5040 on those primes.
    """
    return bound_table(m, cfg)[-1][1]


def squarefree_bound(
    m: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> BoundReport:
    """prod (p+1)/p over the first m primes vs e^gamma ln ln 5040."""
    return bound_table(m, cfg)[-1][2]
