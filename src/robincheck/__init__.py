"""Certified verification of sigma(n) < e^gamma * n * log log n.

Exact rational left-hand sides, outward-rounded interval right-hand
sides, a segmented range scanner, the prime-power and prime-substitution
theorem suites, corollary bound calculators, and the primorial-table /
exponent-increment conjecture experiments.
"""

from .factorization import (
    Factorization,
    sigma_int,
    sigma_over_n_fraction,
)
from .intervals import (
    Comparison,
    DEFAULT_PRECISION,
    Dyadic,
    InvalidInput,
    PrecisionConfig,
    RealInterval,
    compare,
    exp_gamma,
)
from .primes import (
    InputTooLarge,
    factorize,
    first_primes,
    is_prime,
    nth_prime,
    parse_factor_string,
    primes_up_to,
    primorial_factorization,
)
from .robin import (
    CheckResult,
    Verdict,
    check,
    check_n,
    log_n,
    robin_rhs,
)
from .theorems import (
    BoundReport,
    SubstitutionReport,
    bound_table,
    squarefree_bound,
    substitute_prime,
    substitution_report,
    threshold_5040,
    unbounded_exponent_bound,
    verify_prime_powers,
)
from .explorer import (
    ConjectureRow,
    ScanReport,
    SearchReport,
    conjecture31_table,
    conjecture32_search,
    scan_range,
)

__version__ = "0.1.0"
