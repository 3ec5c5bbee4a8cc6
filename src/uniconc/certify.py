"""Certified comparison of exact rationals against irrational bound values.

Endpoints are dyadic rationals (integer mantissa times a power of two),
used only by their values, so comparison is exact.  Every certified endpoint is one exact integer
expression rounded once outward to a requested number of significant bits:
a root by one ``isqrt`` (``_sqrt_ratio``), a sum or a margin by one
``_round_ratio``.  Each enclosure therefore holds the exact real value, and a
verdict cannot be flipped by rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from math import isqrt

from .errors import DomainError, ExpressionError, check_int

__all__ = [
    "Dyadic",
    "Interval",
    "Outcome",
    "Verdict",
    "pi_enclosure",
    "verdict_between",
    "RootBound",
    "evaluate",
]

# Guard bits added on top of the caller-requested precision inside the
# evaluator, so that the rounded roots and their sum still meet the target.
_GUARD_BITS = 32

# the pi enclosure alone takes about 0.03 s at 2**14 bits and about four
# times as long per doubling (Euler's series takes O(bits) steps on
# O(bits)-bit integers), so a typo such as 10**9 would hang rather than fail
_MAX_PRECISION_BITS = 16384


# ---------------------------------------------------------------------------
# dyadic endpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dyadic:
    """The rational ``man * 2**exp``, read as a Fraction is, by ``numerator``
    and a power-of-two ``denominator``.  Dyadics compare by value: the same
    number may be held with any mantissa."""

    man: int
    exp: int

    @property
    def numerator(self) -> int:
        return self.man << self.exp if self.exp >= 0 else self.man

    @property
    def denominator(self) -> int:
        return 1 if self.exp >= 0 else 1 << -self.exp

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self.man, other.man
        if self.exp >= other.exp:
            a <<= self.exp - other.exp
        else:
            b <<= other.exp - self.exp
        return a < b

    def __eq__(self, other) -> bool:
        return isinstance(other, Dyadic) and not (self < other or other < self)


def _div(a: int, b: int, up: bool) -> int:
    """a / b (b > 0) rounded up or down to an integer, at either sign."""
    return -(-a // b) if up else a // b


def _round_ratio(num: int, den: int, bits: int, up: bool) -> Dyadic:
    """num/den (den > 0) rounded toward +inf when ``up``, else toward -inf.

    The exponent comes from the exact magnitude 2**m <= |num/den| < 2**(m+1),
    so the mantissa before rounding lies in [2**bits, 2**(bits+1)): the result
    depends on the value alone and is nonzero for a nonzero value.
    """
    if num == 0:
        return Dyadic(0, 0)
    if den <= 0:
        raise ValueError("denominator must be positive")
    a = abs(num)
    # 2**(m-1) < a/den < 2**(m+1); one comparison picks the half
    m = a.bit_length() - den.bit_length()
    if a << max(-m, 0) < den << max(m, 0):
        m -= 1
    e = m - bits
    q = _div(num, den << e, up) if e >= 0 else _div(num << -e, den, up)
    return Dyadic(q, e)


def _sqrt_ratio(num: int, den: int, bits: int, up: bool) -> Dyadic:
    """sqrt(num/den) for num >= 0 and den > 0, rounded toward -inf, or toward
    +inf when ``up``: one exact integer ratio and one ``isqrt``.

    The even shift ``2*h`` comes from the bit lengths of num and den alone
    and makes a nonzero num * 4**h / den at least 2**(2*bits + 1): the root
    then has at least ``bits + 1`` significant bits at any magnitude, and
    the root of 4**-h is 2**-h exactly.
    """
    h = bits + 1 - (num.bit_length() - den.bit_length()) // 2
    q = _div(num << 2 * h, den, up) if h >= 0 else _div(num, den << -2 * h, up)
    root = isqrt(q)
    if up and root * root != q:
        root += 1
    return Dyadic(root, -h)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed enclosure [lo, hi] with dyadic endpoints."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("interval endpoints out of order")


def _round_sum(x, y, sign: int, bits: int, up: bool) -> Dyadic:
    """``x + sign*y`` for Fractions, ints or Dyadics ``x`` and ``y``: one exact
    integer ratio, rounded once by ``_round_ratio``."""
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    return _round_ratio(a * d + sign * c * b, b * d, bits, up)


# ---------------------------------------------------------------------------
# directed series and pi
# ---------------------------------------------------------------------------

def _terms(ratio, first: int, up: bool):
    """The directed term stepper: yields t_0 = ``first`` and t_m = t_{m-1} *
    num / den for ``(num, den) = ratio(m)``, every term rounded down, or up
    when ``up``, by ``_div``.

    Contract: every num >= 0 and den > 0, so every term is nonnegative, and
    once a ratio is below 1/2 every later one is too.  ``ratio`` is called
    once per step.  The stepper stops after t_m (m >= 1) once t_m is 0, or
    once t_m <= 1 and the next ratio is below 1/2.  Floors only lower each
    term and ceils only raise it, so a lower chain's terms are at most the
    exact ones and an upper chain's at least.  After a zero term every
    later one is zero, on the upper chain exactly, and ``ratio`` is not
    read past it.  Otherwise every later exact term is below half the one
    before, so the exact tail after t_m sums to less than t_m.
    """
    term = first
    yield term
    num, den = ratio(1)
    m = 1
    while True:
        term = _div(term * num, den, up)
        yield term
        if term == 0:
            return
        m += 1
        num, den = ratio(m)
        if term <= 1 and 2 * num < den:
            return


def _series(ratio, first: int, up: bool) -> int:
    """sum_m t_m of ``_terms(ratio, first, up)``: the lower chain drops the
    tail, and the upper chain adds 2*t_m for it."""
    total = 0
    for term in _terms(ratio, first, up):
        total += term
    return total + 2 * term if up else total


def _arctan_recip(q: int, bits: int, up: bool) -> int:
    """2**bits * arctan(1/q) for q >= 1, rounded down, or up when ``up``.

    Euler's series arctan(1/q) = sum_m (2m)!!/(2m+1)!! * q/(q**2+1)**(m+1):
    every term is positive and each ratio 2m/((2m+1)(q**2+1)) is below 1/2.
    """
    d = q * q + 1
    return _series(lambda m: (2 * m, (2 * m + 1) * d), _div(q << bits, d, up), up)


def pi_enclosure(precision_bits: int) -> Interval:
    """Interval of width at most 2**-precision_bits containing pi, for 8 up
    to the most ``evaluate`` asks for, _MAX_PRECISION_BITS + _GUARD_BITS.

    Machin's identity pi = 16*arctan(1/5) - 4*arctan(1/239), each arctangent
    enclosed by ``_arctan_recip`` at 64 bits beyond the target: the lower
    end takes 1/5's lower chain and 1/239's upper one, and the upper end the
    mirror.  Each chain errs by less than one unit in its last place per
    term, plus three, far inside those 64 bits.  Results are cached per
    precision.
    """
    check_int("precision_bits", precision_bits, 8, _MAX_PRECISION_BITS + _GUARD_BITS)
    return _pi(precision_bits)


@cache
def _pi(precision_bits: int) -> Interval:
    bits = precision_bits + 64

    def end(up: bool) -> Dyadic:
        man = 16 * _arctan_recip(5, bits, up) - 4 * _arctan_recip(239, bits, not up)
        return Dyadic(man, -bits)

    return Interval(end(False), end(True))


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootBound:
    """The closed form ``(a + b/sqrt(3)) * sqrt(r / pi**k)``.

    ``a``, ``b`` and ``r`` are rationals and ``k`` is 0 or 1.  Every bound the
    sweep certifies has this shape; ``evaluate`` encloses it.
    """

    a: Fraction
    b: Fraction
    r: Fraction
    k: int

    def __post_init__(self):
        for name in ("a", "b", "r"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                raise ExpressionError(f"{name} must be a Fraction, got {value!r}")
        if type(self.k) is not int or self.k not in (0, 1):
            raise ExpressionError(f"k must be 0 or 1, got {self.k!r}")
        # a Fraction's denominator is positive, so its numerator carries its sign
        if self.a.numerator <= 0 or self.b.numerator < 0 or self.r.numerator <= 0:
            raise DomainError(f"need a > 0, b >= 0 and r > 0, got {self}")


def _check_precision(precision_bits: int) -> None:
    check_int("precision_bits", precision_bits, 64, _MAX_PRECISION_BITS)


def evaluate(bound: RootBound, precision_bits: int) -> Interval:
    """Enclosure of a closed-form bound at the given target precision.

    The bound is written ``sqrt(a**2 r / pi**k) + sqrt(b**2 r / (3 pi**k))``,
    the second root only when ``b > 0``.  Each root is enclosed directly by
    ``_sqrt_ratio`` from one exact ratio: pi's upper end goes under the lower
    root and its lower end under the upper root.
    """
    if not isinstance(bound, RootBound):
        raise ExpressionError(f"bound must be a RootBound, got {bound!r}")
    _check_precision(precision_bits)
    bits = precision_bits + _GUARD_BITS
    pi_k = pi_enclosure(bits) if bound.k else None
    r = bound.r
    terms = [
        (coef.numerator**2 * r.numerator, coef.denominator**2 * r.denominator * d)
        for coef, d in ((bound.a, 1), (bound.b, 3))
        if coef
    ]

    def end(up: bool) -> Dyadic:
        pi = (pi_k.lo if up else pi_k.hi) if pi_k else 1
        roots = [_sqrt_ratio(num * pi.denominator, den * pi.numerator, bits, up) for num, den in terms]
        return roots[0] if len(roots) == 1 else _round_sum(*roots, 1, bits, up)

    return Interval(end(False), end(True))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class Outcome(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Certified result of a strict comparison lhs < rhs.

    ``margin`` encloses rhs - lhs, and the outcome is derived from it alone:
    Holds exactly when the whole margin is positive, Fails exactly when it is
    negative, Inconclusive otherwise.
    """

    margin: Interval

    @property
    def outcome(self) -> Outcome:
        # a Dyadic's denominator is positive, so its numerator carries its sign
        if self.margin.lo.numerator > 0:
            return Outcome.HOLDS
        if self.margin.hi.numerator < 0:
            return Outcome.FAILS
        return Outcome.INCONCLUSIVE


def _ends(v: Fraction | int | Interval) -> tuple:
    return (v.lo, v.hi) if isinstance(v, Interval) else (v, v)


def verdict_between(lhs, rhs, precision_bits: int) -> Verdict:
    """Certify lhs < rhs where each side is a Fraction, an int or an Interval.

    Each end of the margin is one exact endpoint difference, rhs.lo - lhs.hi
    below and rhs.hi - lhs.lo above, rounded once outward.
    """
    bits = precision_bits + _GUARD_BITS
    (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = _ends(lhs), _ends(rhs)
    margin = Interval(
        _round_sum(rhs_lo, lhs_hi, -1, bits, False), _round_sum(rhs_hi, lhs_lo, -1, bits, True)
    )
    return Verdict(margin)
