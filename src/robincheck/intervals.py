"""Exact dyadic interval arithmetic with outward rounding.

Every real quantity in this package that is not an exact rational is
enclosed by integers.  The transcendental primitives are fixed-point
kernels that return integer bounds (L, H) on x * 2**W: ``_ln_fp``, which
encloses ln over an interval [lo/den, hi/den], ``_exp_fp``, and
``exp_gamma``, which encloses e**gamma from an embedded digit string of
the Euler-Mascheroni constant (1400 decimal digits, cross-verified
against two independent arbitrary-precision libraries at build time) by
an exact Taylor series with the truncation remainder folded into the
upper bound.

``_ln_fp`` is table-driven (Tang, ACM TOMS 16, 1990).  One division
writes the argument as y * 2**s with y in about [2/3, 4/3) and finds the
breakpoint c = i / 2**_TABLE_K <= y below it; then
ln x = s ln 2 + ln c + 2 atanh((y-c)/(y+c)), where the atanh argument
lies in [0, 1/(2i+1)), under 2**-7.4 at K = 7, so its series needs about
a third of the terms the old (y-1)/(y+1) reduction needed.  ln c comes
from that full series, memoized per (i, W) by ``functools.lru_cache``
like ln 2 and e**gamma, and s ln 2 from ln 2 at a few extra bits.
``_atanh_pair`` is the one atanh chain: one loop carries a floor and a
ceiling chain and gives both bounds, for ln 2, the table and the
reduced argument alike.  An
interval [lo, hi] is reduced once, at lo; when it is narrow, the upper
bound is ln lo's plus ceil((hi - lo) / lo) at scale 2**W, since ln is
concave, which overshoots by under half an ulp, and only a wider one
is reduced again at hi.  The bounds stay within 2W ulp of ln x for
every W the ladder uses.

``robin.log_n`` and ``robin._rhs_from_log`` build ln n and the
right-hand side e^gamma * ln(ln n) from these kernels.  The right side is
printed on the ``precision_bits`` grid: its endpoints are the true
value rounded down and up to that many significant bits, proved by
Ziv's rounding test (Ziv, ACM TOMS 17, 1991) with reruns at more guard
bits, so they do not depend on which sound kernel computed them.

An enclosure the package hands out (the right-hand side, the primorial
table's alpha and ratio) is a `RealInterval`: three ints lo_m <= hi_m
at one binary exponent e, guaranteed to contain the true value in
[lo_m * 2**e, hi_m * 2**e].  All rounding is directed outward (floor
for lo, ceiling for hi), so a comparison of an exact rational against
an interval that comes out Less or Greater is a mathematical certainty,
never a floating-point accident.  ``compare`` decides it by integer
cross-multiplication at that exponent.  ``round_num_den`` is the one
directed rounding, to an (m, e) pair: ``outward_interval`` rounds two
ratios with it onto a shared exponent, and ``outward_ratio`` rounds the
corners of a truncated ratio's box with it.  `Dyadic` is the plain value
m * 2**e (`Fraction`, num/den and exact decimal views; no arithmetic),
built only by an enclosure's ``lo``/``hi`` views for printing and margins.

Series are evaluated at a working precision a few dozen bits beyond the
requested precision; every intermediate floor/ceil keeps the lower/upper
bound property, so the result interval is sound by construction.

``PrecisionConfig.ladder`` is the one precision-escalation schedule:
start, 2*start, 4*start, ... up to the configured (and the digit
string's) ceiling.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


class InvalidInput(ValueError):
    """An argument outside what the package supports (the CLI's exit 64).

    Every argument check raises it; a broken internal invariant stays a
    plain ValueError.
    """


# Guard bits added on top of the requested precision for internal series
# work; absorbs per-term rounding (~2 ulp/term) for series of up to a few
# thousand terms.
_GUARD = 32


# ---------------------------------------------------------------------------
# Dyadic rationals
# ---------------------------------------------------------------------------

def _floor_div_shift(num: int, den: int, shift: int) -> int:
    """floor(num * 2**shift / den) for den > 0, exact."""
    if shift >= 0:
        return (num << shift) // den
    return num // (den << -shift)


def _ceil_div_shift(num: int, den: int, shift: int) -> int:
    return -_floor_div_shift(-num, den, shift)


@dataclass(frozen=True, slots=True)
class Dyadic:
    """The exact dyadic rational m * 2**e, as stored (no normalization)."""

    m: int
    e: int

    def as_num_den(self) -> tuple[int, int]:
        if self.e >= 0:
            return self.m << self.e, 1
        return self.m, 1 << -self.e

    def as_fraction(self) -> Fraction:
        return Fraction(*self.as_num_den())

    def decimal_str(self) -> str:
        """Exact finite decimal expansion (dyadics always have one)."""
        m, e = self.m, self.e
        if e >= 0:
            return str(m << e)
        k = -e
        sign = "-" if m < 0 else ""
        digits = abs(m) * 5 ** k  # m / 2^k == m * 5^k / 10^k
        s = str(digits).rjust(k + 1, "0")
        ip, fp = s[:-k], s[-k:]
        fp = fp.rstrip("0")
        return f"{sign}{ip}.{fp}" if fp else f"{sign}{ip}"


def round_num_den(num: int, den: int, bits: int,
                  round_up: bool) -> tuple[int, int]:
    """num/den (den > 0, not necessarily reduced) as (m, e) at ~bits bits.

    m * 2**e differs from the true value by less than |num/den| *
    2**-(bits+1); round_up selects ceiling (m * 2**e >= num/den),
    otherwise floor.  Takes raw integers so callers with huge unreduced
    ratios can skip gcd normalization entirely.
    """
    shift = bits + 2 - (num.bit_length() - den.bit_length())
    if round_up:
        return _ceil_div_shift(num, den, shift), -shift
    return _floor_div_shift(num, den, shift), -shift


def dyadic_from_fraction(fr: Fraction, bits: int, round_up: bool) -> Dyadic:
    """Round fr to a dyadic with ~bits significant bits, directed."""
    return Dyadic(*round_num_den(fr.numerator, fr.denominator, bits, round_up))


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RealInterval:
    """Enclosure [lo_m * 2**e, hi_m * 2**e] of a real value, lo_m <= hi_m."""

    lo_m: int
    hi_m: int
    e: int

    def __post_init__(self):
        if self.lo_m > self.hi_m:
            raise ValueError("interval endpoints out of order")

    @property
    def lo(self) -> Dyadic:
        return Dyadic(self.lo_m, self.e)

    @property
    def hi(self) -> Dyadic:
        return Dyadic(self.hi_m, self.e)

    def midpoint(self) -> Fraction:
        return (self.lo.as_fraction() + self.hi.as_fraction()) / 2


def outward_interval(lo_num: int, hi_num: int, den: int,
                     bits: int) -> RealInterval:
    """[lo_num/den rounded down, hi_num/den rounded up] at ~bits bits.

    Each endpoint rounds as ``round_num_den`` rounds it; the one at the
    larger exponent is then shifted left onto the smaller, which is
    exact, so the endpoints keep their values and share one exponent.
    """
    return _shared_exponent(round_num_den(lo_num, den, bits, False),
                            round_num_den(hi_num, den, bits, True))


def _shared_exponent(lo: tuple, hi: tuple, move: int = 0) -> RealInterval:
    """[lo, hi] * 2**move for (m, e) pairs, the one at the larger e shifted."""
    (lo_m, lo_e), (hi_m, hi_e) = lo, hi
    e = min(lo_e, hi_e)
    return RealInterval(lo_m << (lo_e - e), hi_m << (hi_e - e), e + move)


# outward_ratio keeps this many bits of x and y beyond the requested ones
_TOP_SLACK_BITS = 64


def outward_ratio(lo_m: int, hi_m: int, x: int, y: int, e: int,
                  bits: int) -> RealInterval:
    """The interval outward_interval(lo_m * x, hi_m * x, y << e, bits) returns.

    For huge x, y > 0 and e >= 0 each endpoint a > 0 is usually decided
    by the top ``bits + _TOP_SLACK_BITS`` bits of x and y, which spares
    the full-size products and divisions (Ziv's rounding test).  With
    x in [x0, x1] * 2**t and y in [y0, y1] * 2**u, ``round_num_den``
    rounds the box's least and greatest ratios, a*x0/y1 and a*x1/y0.
    Equal exponents force bitlen(a*x0) = bitlen(a*x1) and
    bitlen(y0) = bitlen(y1), so a*x and y << e have those bit lengths
    plus t and u + e, and every ratio in the box rounds at one shift,
    where the directed quotient is monotone; equal mantissas then pin the
    exact endpoint, at its exponent moved by t - u - e.  Where the
    corners disagree, or a <= 0, ``outward_interval`` computes both exactly.
    """
    keep = max(bits + _TOP_SLACK_BITS, 1)
    t = max(x.bit_length() - keep, 0)
    u = max(y.bit_length() - keep, 0)
    # x lies in [x0, x1] * 2**t and y in [y0, y1] * 2**u
    x0, y0 = x >> t, y >> u
    x1, y1 = x0 + (t > 0), y0 + (u > 0)
    ends = []
    for a, round_up in ((lo_m, False), (hi_m, True)):
        if a <= 0:
            break
        least = round_num_den(a * x0, y1, bits, round_up)
        most = round_num_den(a * x1, y0, bits, round_up)
        if least != most:
            break
        ends.append(least)
    else:
        return _shared_exponent(*ends, t - u - e)
    return outward_interval(lo_m * x, hi_m * x, y << e, bits)


class Comparison(enum.Enum):
    """Three-way verdict for exact-rational vs interval comparison."""

    LESS = "less"
    GREATER = "greater"
    OVERLAPPING = "overlapping"


def compare(lhs: Fraction | RealInterval, rhs: RealInterval) -> Comparison:
    """Less iff lhs < rhs.lo, Greater iff lhs > rhs.hi, else Overlapping.

    ``lhs`` is an exact rational or an enclosure of one; an enclosure is
    Less only when all of it lies below rhs.lo and Greater only when all
    of it lies above rhs.hi.  Less/Greater are mathematically certain;
    Overlapping means an interval is too wide to decide and the caller
    should escalate (or compare the exact value).  Both sides are scaled
    to integers at the endpoints' shared exponent.
    """
    if isinstance(lhs, RealInterval):
        e = min(lhs.e, rhs.e)
        s, t = lhs.e - e, rhs.e - e
        if lhs.hi_m << s < rhs.lo_m << t:
            return Comparison.LESS
        if lhs.lo_m << s > rhs.hi_m << t:
            return Comparison.GREATER
        return Comparison.OVERLAPPING
    num, den = lhs.numerator, lhs.denominator
    if rhs.e < 0:
        num <<= -rhs.e
    else:
        den <<= rhs.e
    if num < rhs.lo_m * den:
        return Comparison.LESS
    if num > rhs.hi_m * den:
        return Comparison.GREATER
    return Comparison.OVERLAPPING


# ---------------------------------------------------------------------------
# The Euler-Mascheroni constant
# ---------------------------------------------------------------------------

# 1400 decimal digits.  Generated with mpmath (mp.euler) and cross-checked
# digit-for-digit against gmpy2.const_euler and the commonly published
# 100-digit value; the two libraries implement independent algorithms.
_GAMMA_DIGITS = (
    "5772156649015328606065120900824024310421593359399235988057672348848677"
    "2677766467093694706329174674951463144724980708248096050401448654283622"
    "4173997644923536253500333742937337737673942792595258247094916008735203"
    "9481656708532331517766115286211995015079847937450857057400299213547861"
    "4669402960432542151905877553526733139925401296742051375413954911168510"
    "2807984234877587205038431093997361372553060889331267600172479537836759"
    "2713515772261027349291394079843010341777177808815495706610750101619166"
    "3340152278935867965497252036212879226555953669628176388792726801324310"
    "1047650596370394739495763890657296792960100901512519595092224350140934"
    "9871228247949747195646976318506676129063811051824197444867836380861749"
    "4551698927923018773910729457815543160050021828440960537724342032854783"
    "6701517739439870030237033951832869000155819398804270741154222781971652"
    "3011073565833967348717650491941812300040654693142999297779569303100503"
    "0863034185698032310836916400258929708909854868257773642882539549258736"
    "2959613329857473930237343884707037028441292016641785024873337908056275"
    "4998434590761643167103146710722370021810745044418664759134803669025532"
    "4586254422253451813879124345735013612977822782881489459098638460062931"
    "6947188714958752549236649352047324364109726827616087759508809512620840"
    "4544477992299157248292516251278427659657083214610298214617951957959095"
    "9227042089896279712553632179488737642106606070659825619901028807561251"
)

# Largest precision (bits) the digit string can serve with outward rounding.
GAMMA_MAX_BITS = int(len(_GAMMA_DIGITS) * 3.3219280948) - 2 * _GUARD

# True gamma lies in [D/10^k, (D+1)/10^k].
_GAMMA_NUM = int(_GAMMA_DIGITS)
_GAMMA_DEN = 10 ** len(_GAMMA_DIGITS)


# ---------------------------------------------------------------------------
# Precision configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrecisionConfig:
    """Escalation ladder for interval precision."""

    start_bits: int = 53
    max_bits: int = 4096

    def __post_init__(self):
        if self.start_bits <= 0 or self.max_bits <= 0:
            raise InvalidInput("precision bits must be positive")
        if self.start_bits > self.max_bits:
            raise InvalidInput("start_bits must not exceed max_bits")
        if self.start_bits > GAMMA_MAX_BITS:
            raise InvalidInput(
                f"start_bits exceeds the {GAMMA_MAX_BITS} bits the gamma "
                "digits support")

    def ladder(self) -> Iterator[int]:
        """start_bits, doubling, capped at min(max_bits, GAMMA_MAX_BITS)."""
        top = min(self.max_bits, GAMMA_MAX_BITS)
        bits = self.start_bits
        yield bits
        while bits < top:
            bits = min(2 * bits, top)
            yield bits


DEFAULT_PRECISION = PrecisionConfig()


# ---------------------------------------------------------------------------
# Fixed-point series kernels
#
# All kernels work on integers at scale 2**W.  Quantities are kept
# nonnegative so that multiplication is monotone and lower/upper bounds
# propagate by flooring/ceiling each step.
# ---------------------------------------------------------------------------

def _atanh_pair(num: int, den: int, W: int) -> tuple[int, int]:
    """Bounds (L, H) on atanh(num/den) * 2**W, for 0 <= num/den <= 1/3.

    One loop sums t^(2k+1)/(2k+1), k = 0, 1, ..., on two chains of powers
    of t = num/den at scale 2**W: the floor chain rounds every step down
    and gives L, the ceiling chain rounds every step up and gives H.  It
    stops at the first k whose ceiling power p is at most 2k+1, and adds
    a tail bound to H.  By then every floor term left is zero: the floor
    powers never increase (t^2 < 1) while the divisors grow, and the
    next one is at most (2k+1) t^2 < 2k+3.
    """
    up = (1 << W) - 1  # added before the shift by W, it rounds up
    t_lo = (num << W) // den
    t_hi = -((-num << W) // den)
    if t_hi == 0:
        return 0, 0
    t2_lo = (t_lo * t_lo) >> W
    t2_hi = (t_hi * t_hi + up) >> W
    L = p_lo = t_lo
    H = p_hi = t_hi
    d = 3
    while True:
        p_lo = (p_lo * t2_lo) >> W
        p_hi = (p_hi * t2_hi + up) >> W
        L += p_lo // d
        H -= -p_hi // d  # plus the ceiling of p_hi / d
        if p_hi <= d:
            # Tail, d = 2k+1: sum_{j>k} t^(2j+1)/(2j+1) <= p_next / (d+2)
            # / (1 - t^2); with t^2 <= 1/4 the geometric factor is < 2.
            p_next = (p_hi * t2_hi + up) >> W
            return L, H + (2 * p_next) // (d + 2) + 2
        d += 2


@functools.lru_cache(maxsize=64)
def _ln2_fp(W: int) -> tuple[int, int]:
    """Bounds on ln(2) * 2**W; ln 2 = 2*atanh(1/3) exactly."""
    L, H = _atanh_pair(1, 3, W)
    return 2 * L, 2 * H


# The table-driven reduction's breakpoints are c = i / 2**_TABLE_K for i
# in [_I_LO, 2 * _I_LO), from just below 2/3 to just below 4/3.
_TABLE_K = 7
_I_LO = (2 << _TABLE_K) // 3
# s ln 2 is taken from ln 2 at this many extra bits, so for |s| < 2**10
# it adds about one ulp at W, not |s| times ln 2's own error
_LN2_EXTRA = 16


# room for the tables of 64 working precisions, as _ln2_fp holds 64
@functools.lru_cache(maxsize=64 * _I_LO)
def _ln_c_fp(i: int, W: int) -> tuple[int, int]:
    """Bounds on ln(i / 2**_TABLE_K) * 2**W for a table breakpoint.

    By the full series: c = y * 2**s with y = a/b in [2/3, 4/3) and s in
    {-1, 0}, ln y = 2 atanh((y-1)/(y+1)) with |(y-1)/(y+1)| <= 1/5.
    """
    s = -1 if 3 * i < 2 << _TABLE_K else 0
    a, b = i << -s, 1 << _TABLE_K
    tn, td = abs(a - b), a + b
    L, H = _atanh_pair(tn, td, W)
    L, H = 2 * L, 2 * H
    if a < b:
        L, H = -H, -L
    l2L, l2H = _ln2_fp(W)
    return (L + s * (l2L if s >= 0 else l2H),
            H + s * (l2H if s >= 0 else l2L))


def _ln_reduced(num: int, den: int) -> tuple[int, int, int, int]:
    """(s, i, tn, td) with ln(num/den) = s ln 2 + ln c + 2 atanh(tn/td).

    num/den = y * 2**s, and c = i / 2**_TABLE_K is the breakpoint with
    c <= y < c + 2**-_TABLE_K, i in [_I_LO, 2 * _I_LO); so y lies in
    about [2/3, 4/3), and tn/td = (y-c)/(y+c) in [0, 1/(2i+1)), below
    2**-7.4 at K = 7.  One division finds both s and i.
    """
    s = num.bit_length() - den.bit_length()
    # num/den = y0 * 2**s with y0 in (1/2, 2); j = floor(y0 * 2**(K+1))
    k = _TABLE_K + 1 - s
    j = (num << k) // den if k >= 0 else num // (den << -k)
    if j < 2 * _I_LO:
        s -= 1
        i = j
    elif j < 4 * _I_LO:
        i = j >> 1
    else:
        s += 1
        i = j >> 2
    # a / b = y * 2**K
    k = _TABLE_K - s
    a, b = (num << k, den) if k >= 0 else (num, den << -k)
    return s, i, a - i * b, a + i * b


def _ln_fp(lo_num: int, hi_num: int, den: int, W: int) -> tuple[int, int]:
    """Bounds [L, H] on ln(x) * 2**W for every x in [lo_num/den, hi_num/den].

    0 < lo_num <= hi_num, den > 0.  The argument is reduced once, at
    lo_num, and one atanh chain gives both bounds on ln(lo_num/den).
    For a narrow interval, d = hi_num - lo_num with
    2 bitlen(d) + W < 2 bitlen(lo_num) - 2, H moves up by
    ceil(d * 2**W / lo_num) >= ln(hi_num/lo_num) * 2**W (ln is
    concave), which overshoots by under (d/lo_num)^2 / 2 * 2**W, below
    half an ulp.  A wider interval reduces hi_num for its own H.
    """
    s, i, tn, td = _ln_reduced(lo_num, den)
    aL, aH = _atanh_pair(tn, td, W)
    cL, cH = _ln_c_fp(i, W)
    # s ln 2 from ln 2 at _LN2_EXTRA more bits, each end rounded once
    l2L, l2H = _ln2_fp(W + _LN2_EXTRA)
    if s < 0:
        l2L, l2H = l2H, l2L
    L = cL + 2 * aL + ((s * l2L) >> _LN2_EXTRA)
    H = cH + 2 * aH - ((-s * l2H) >> _LN2_EXTRA)
    d = hi_num - lo_num
    if d:
        if 2 * d.bit_length() + W < 2 * lo_num.bit_length() - 2:
            H -= (-d << W) // lo_num
        else:
            H = _ln_fp(hi_num, hi_num, den, W)[1]
    return L, H


def _exp_fp(xn: int, xd: int, W: int) -> tuple[int, int]:
    """Bounds [L, H] with L <= exp(xn/xd) * 2**W <= H, for 0 <= xn/xd <= 1."""
    S = 1 << W
    x_lo = _floor_div_shift(xn, xd, W)
    x_hi = _ceil_div_shift(xn, xd, W)
    L = H = S
    t_lo = t_hi = S
    i = 1
    while True:
        t_lo = ((t_lo * x_lo) >> W) // i
        num_hi = (t_hi * x_hi + S - 1) >> W
        t_hi = (num_hi + i - 1) // i
        L += t_lo
        H += t_hi
        if t_hi <= 1 and i >= 2:
            # Tail: sum_{j>i} x^j/j! <= (x^i/i!)/2 for x <= 1, i >= 2.
            H += 2 * t_hi + 2
            return L, H
        i += 1


# ---------------------------------------------------------------------------
# e**gamma
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def exp_gamma(precision_bits: int) -> tuple[int, int]:
    """Bounds (L, H) on e**gamma * 2**W, W = precision_bits + _GUARD.

    e**gamma ~ 1.7810724, and H - L <= 2**(W - precision_bits + 2).
    """
    if precision_bits <= 0:
        raise InvalidInput("precision_bits must be positive")
    if precision_bits > GAMMA_MAX_BITS:
        raise InvalidInput(
            f"gamma digit string supports at most {GAMMA_MAX_BITS} bits"
        )
    W = precision_bits + _GUARD
    return (_exp_fp(_GAMMA_NUM, _GAMMA_DEN, W)[0],
            _exp_fp(_GAMMA_NUM + 1, _GAMMA_DEN, W)[1])
