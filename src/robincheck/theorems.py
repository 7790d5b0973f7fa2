"""Executable content of the prime-power and prime-substitution theorems.

The substitution theorem says a satisfied factorization stays satisfied
when any base prime is replaced by a larger one (exponents fixed).  Its
computable content is two monotonicity facts, and that is what this
module certifies case by case: the divisor-side product strictly
decreases (separation of the two sigma(n)/n enclosures, or an exact
rational comparison where they overlap) and the log-side strictly
increases (certified interval separation of the two ln n enclosures).

The prime-power sweep uses the same theorem for n = p^k: if p^k is
satisfied, so is P^k for every prime P >= p.  It decides each exponent
k once, at its smallest prime, through ``check``'s bit-length floor
(``robin._below_bit_floor``) at an upper bound that holds for every
larger prime too.

The corollary bound calculators compare the exponent-independent bound
prod p/(p-1), and the squarefree bound prod (p+1)/p, over the first m
primes against the fixed threshold e^gamma * ln ln 5040; these mirror
the proof technique, not the per-n truth, which is the scanner's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .explorer import q_steps
from .factorization import (
    Factorization,
    _coprime_fraction,
    sigma_over_n_interval,
)
from .intervals import (
    _GUARD,
    Comparison,
    DEFAULT_PRECISION,
    InvalidInput,
    PrecisionConfig,
    RealInterval,
    compare,
)
from .robin import CheckResult, Verdict, check, decide, log_n, robin_rhs
from . import primes as _primes
from . import robin as _robin


_F5040 = Factorization(((2, 4), (3, 2), (5, 1), (7, 1)))


def threshold_5040(cfg: PrecisionConfig = DEFAULT_PRECISION) -> RealInterval:
    """Enclosure of e^gamma * ln ln 5040 ~ 3.817."""
    return robin_rhs(_F5040, cfg.start_bits)


def _prime_powers_in(lo_exclusive: int, hi_inclusive: int):
    """All (p, k, p^k) with lo < p^k <= hi, ascending by value."""
    out = []
    for p in _primes.primes_up_to(hi_inclusive):
        v, k = p, 1
        while v <= hi_inclusive:
            if v > lo_exclusive:
                out.append((p, k, v))
            v *= p
            k += 1
    out.sort(key=lambda t: t[2])
    return out


def verify_prime_powers(
    limit: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> list[CheckResult]:
    """Check every prime power in (5040, limit]; all are predicted Satisfied.

    Each result is ``check``'s, verdict and rung, but one floor test
    decides every prime power p^k with the same k.  It runs at k's
    smallest prime p0, the first p^k in ascending order, with hi = U =
    ceil(2**W * p0/(p0 - 1)), W = ``cfg.start_bits`` + _GUARD, and it is
    ``robin._below_bit_floor`` at the entries ((p0, k),).  Two facts make
    its pass hold for every p >= p0:

    1. sigma(p^k)/p^k < p/(p - 1) <= p0/(p0 - 1), and the one-entry hi of
       ``sigma_over_n_fp`` is ceil(2**W * g) for some g <= p/(p - 1), so
       each member's hi is at most U.
    2. B = k (bit_length(p) - 1) only rises with p, so ``check``'s
       bit-length floor only rises.

    So where p0 passes, every member's hi lies below its own floor and
    gets the Satisfied result at the start rung that ``check`` returns
    there; where it does not, every p^k with that k goes to ``check``.
    """
    if limit <= 5040:
        raise InvalidInput("limit must exceed 5040")
    start = cfg.start_bits
    W = start + _GUARD
    below = {}  # k -> its smallest p passes the floor at U
    results = []
    for p, k, _ in _prime_powers_in(5040, limit):
        f = Factorization.from_canonical(((p, k),))
        floored = below.get(k)
        if floored is None:  # ascending values: k's smallest p
            floored = below[k] = _robin._below_bit_floor(
                -(-(p << W) // (p - 1)), f.entries, start)
        results.append(CheckResult(f, ..., ..., Verdict.SATISFIED, start)
                       if floored else check(f, cfg))
    return results


def substitute_prime(f: Factorization, index: int, new_prime: int) -> Factorization:
    """Replace the base at ``index`` with a larger prime, re-canonicalized.

    Refused unless ``new_prime`` is a prime below 3.317e24 (the
    deterministic primality range), above the prime it replaces and not
    already a base, and the result has at most ``primes.MAX_FACTOR_BITS``
    bits.
    """
    if not 0 <= index < len(f.entries):
        raise InvalidInput("substitution index out of range")
    old_prime, k = f.entries[index]
    if not _primes.is_prime(new_prime):
        raise InvalidInput(f"{new_prime} is not prime")
    if new_prime <= old_prime:
        raise InvalidInput(f"{new_prime} <= {old_prime}")
    if any(p == new_prime for p, _ in f.entries):
        raise InvalidInput(f"{new_prime} already a base")
    ents = list(f.entries)
    ents[index] = (new_prime, k)
    return _primes.within_bit_budget(Factorization(tuple(ents)))


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
    """Certify both monotonicity claims for one prime substitution.

    Either verdict may be indeterminate; the report carries it as it is.
    The divisor side is decided on the two ``sigma_over_n_interval``
    enclosures at W = ``cfg.start_bits`` + _GUARD; only where they
    overlap are the exact sigma(n)/n built and compared.
    """
    after_f = substitute_prime(f, index, new_prime)
    old_prime = f.entries[index][0]
    before = check(f, cfg)
    after = check(after_f, cfg)
    W = cfg.start_bits + _GUARD
    order = compare(sigma_over_n_interval(after_f, W),
                    sigma_over_n_interval(f, W))
    lhs_decreased = (after.lhs < before.lhs
                     if order is Comparison.OVERLAPPING
                     else order is Comparison.LESS)
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

    The difference of the two enclosures is decided against 0 up the
    precision ladder (``robin.decide``): True or False once it excludes
    0, None when it still holds 0 at the top.
    """
    def gap_at(bits: int) -> RealInterval:
        a_lo, a_hi = log_n(f_before, bits)  # same bits, so one scale
        b_lo, b_hi = log_n(f_after, bits)
        return RealInterval(b_lo - a_hi, b_hi - a_lo, -(bits + _GUARD))

    verdict = decide(Fraction(0), gap_at, cfg)[0]
    return (None if verdict is Comparison.OVERLAPPING
            else verdict is Comparison.LESS)


@dataclass(frozen=True)
class BoundReport:
    m: int
    bound_value: Fraction
    threshold: RealInterval
    passes: Optional[bool]  # None: undecided at the top of the ladder


def bound_table(
    m_max: int, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> list[tuple[int, BoundReport, BoundReport]]:
    """(p_m, unbounded, squarefree) reports for m = 1..m_max, in one pass.

    ``unbounded`` is prod p/(p-1), the inverted d = -1 walk of
    ``explorer.q_steps``, and ``squarefree`` prod (p+1)/p, its d = 1 walk,
    over the first m primes.  Each is compared with e^gamma ln ln 5040 up
    the precision ladder (``robin.decide``); ``passes`` is None when the
    two still overlap at the top.  The threshold every report carries is
    the start rung's enclosure.
    """
    if m_max < 1:
        raise InvalidInput("m must be >= 1")
    plist = _primes.first_primes(m_max)
    thr = threshold_5040(cfg)

    def thr_at(bits: int) -> RealInterval:
        # a rung above the start serves the few rows near the threshold
        return thr if bits == cfg.start_bits else robin_rhs(_F5040, bits)

    def report(m: int, value: Fraction) -> BoundReport:
        verdict = decide(value, thr_at, cfg)[0]
        return BoundReport(m, value, thr,
                           None if verdict is Comparison.OVERLAPPING
                           else verdict is Comparison.LESS)

    return [(p, report(m, _coprime_fraction(ud, un)),
             report(m, _coprime_fraction(sn, sd)))
            for m, ((p, un, ud), (_, sn, sd)) in enumerate(
                zip(q_steps(plist, -1), q_steps(plist)), 1)]


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
