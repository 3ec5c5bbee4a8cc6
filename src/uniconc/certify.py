"""Certified comparison of exact rationals against irrational bound values.

Endpoints are dyadic rationals (integer mantissa times a power of two), so
comparison is exact.  Every certified endpoint is one exact integer
expression rounded once outward to a requested number of significant bits:
a root by one ``isqrt`` (``_sqrt_ratio``), a sum or a margin by one
``_round_ratio``.  Each enclosure therefore holds the exact real value, and a
verdict cannot be flipped by rounding error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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

# the pi enclosure alone takes about half a second at 2**14 bits and about
# eight times as long per doubling, so a typo such as 10**9 would hang
# rather than fail
_MAX_PRECISION_BITS = 16384


# ---------------------------------------------------------------------------
# dyadic endpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dyadic:
    """The rational ``man * 2**exp``, normalized so ``man`` is odd or zero."""

    man: int
    exp: int

    @staticmethod
    def normalized(man: int, exp: int) -> "Dyadic":
        if man == 0:
            return Dyadic(0, 0)
        shift = (man & -man).bit_length() - 1
        return Dyadic(man >> shift, exp + shift)

    def as_ratio(self) -> tuple[int, int]:
        """The value as an exact ``(num, den)`` with ``den`` a power of two."""
        return (self.man << self.exp, 1) if self.exp >= 0 else (self.man, 1 << -self.exp)

    def as_fraction(self) -> Fraction:
        return Fraction(*self.as_ratio())

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self.man, other.man
        if self.exp >= other.exp:
            a <<= self.exp - other.exp
        else:
            b <<= other.exp - self.exp
        return a < b

    @property
    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)


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
    return Dyadic.normalized(q, e)


def _sqrt_ratio(num: int, den: int, exp: int, bits: int, up: bool) -> Dyadic:
    """sqrt(num/den * 2**exp) for num >= 0 and den > 0, rounded toward -inf,
    or toward +inf when ``up``: one exact integer ratio and one ``isqrt``.

    The shift ``s`` comes from the bit lengths of num and den alone and makes
    a nonzero num * 2**s / den at least 2**(2*bits + 1): the root then has at
    least ``bits + 1`` significant bits at any magnitude.  ``s - exp`` is
    even, so the root of the power of two left over is exact.
    """
    s = 2 * bits + 2 - num.bit_length() + den.bit_length()
    s += (s - exp) & 1
    q = _div(num << s, den, up) if s >= 0 else _div(num, den << -s, up)
    root = isqrt(q)
    if up and root * root != q:
        root += 1
    return Dyadic.normalized(root, (exp - s) // 2)


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

    @staticmethod
    def point(v: int) -> "Interval":
        d = Dyadic.normalized(v, 0)
        return Interval(d, d)


def _ratio(v: Fraction | int | Dyadic) -> tuple[int, int]:
    """``v`` as an exact ``(num, den)`` with ``den > 0``."""
    return v.as_ratio() if isinstance(v, Dyadic) else (v.numerator, v.denominator)


def _round_sum(x, y, sign: int, bits: int, up: bool) -> Dyadic:
    """``x + sign*y`` for Fractions, ints or Dyadics ``x`` and ``y``: one exact
    integer ratio, rounded once by ``_round_ratio``."""
    (a, b), (c, d) = _ratio(x), _ratio(y)
    return _round_ratio(a * d + sign * c * b, b * d, bits, up)


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

_pi_cache: dict[int, Interval] = {}
_pi_lock = threading.Lock()


def _arctan_recip_bounds(q: int, bits: int) -> tuple[int, int]:
    """Integer bounds L <= 2**bits * arctan(1/q) <= H.

    Alternating series sum_k (-1)^k / ((2k+1) q**(2k+1)); each term is
    floored, so after K terms the accumulated floor error is below K and the
    truncation error is below the first omitted term.
    """
    scale = 1 << bits
    qq = q * q
    qpow = q
    acc = 0
    k = 0
    while True:
        term = scale // (qpow * (2 * k + 1))
        if term == 0:
            break
        acc = acc - term if (k & 1) else acc + term
        qpow *= qq
        k += 1
    slack = k + 1
    return acc - slack, acc + slack


def pi_enclosure(precision_bits: int) -> Interval:
    """Interval of width at most 2**-precision_bits containing pi, for 8 up
    to the most ``evaluate`` asks for, _MAX_PRECISION_BITS + _GUARD_BITS.

    Machin's identity pi = 16*arctan(1/5) - 4*arctan(1/239), each arctangent
    bounded by its alternating series.  Results are cached per precision.
    """
    check_int("precision_bits", precision_bits, 8, _MAX_PRECISION_BITS + _GUARD_BITS)
    with _pi_lock:
        cached = _pi_cache.get(precision_bits)
    if cached is not None:
        return cached
    bits = precision_bits + 64
    lo5, hi5 = _arctan_recip_bounds(5, bits)
    lo239, hi239 = _arctan_recip_bounds(239, bits)
    lo = 16 * lo5 - 4 * hi239
    hi = 16 * hi5 - 4 * lo239
    result = Interval(Dyadic.normalized(lo, -bits), Dyadic.normalized(hi, -bits))
    with _pi_lock:
        _pi_cache[precision_bits] = result
    return result


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
        if self.a <= 0 or self.b < 0 or self.r <= 0:
            raise DomainError(f"need a > 0, b >= 0 and r > 0, got {self}")


def _check_precision(precision_bits: int) -> None:
    check_int("precision_bits", precision_bits, 64, _MAX_PRECISION_BITS)


def evaluate(bound: RootBound, precision_bits: int) -> Interval:
    """Enclosure of a closed-form bound at the given target precision.

    The bound is written ``sqrt(a**2 r / pi**k) + sqrt(b**2 r / (3 pi**k))``,
    the second root only when ``b > 0``.  Each root is enclosed directly by
    ``_sqrt_ratio``: pi's upper end goes under the lower root and its lower
    end under the upper root.
    """
    if not isinstance(bound, RootBound):
        raise ExpressionError(f"bound must be a RootBound, got {bound!r}")
    _check_precision(precision_bits)
    bits = precision_bits + _GUARD_BITS
    pi_k = pi_enclosure(bits) if bound.k else Interval.point(1)
    r = bound.r
    terms = [
        (coef.numerator**2 * r.numerator, coef.denominator**2 * r.denominator * d)
        for coef, d in ((bound.a, 1), (bound.b, 3))
        if coef
    ]

    def end(up: bool) -> Dyadic:
        pi = pi_k.lo if up else pi_k.hi
        roots = [_sqrt_ratio(num, den * pi.man, -pi.exp, bits, up) for num, den in terms]
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
        if self.margin.lo.sign > 0:
            return Outcome.HOLDS
        if self.margin.hi.sign < 0:
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
