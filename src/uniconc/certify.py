"""Certified comparison of exact rationals against irrational bound values.

Endpoints are dyadic rationals (integer mantissa times a power of two), so
halving, doubling and comparison are exact and the only rounding ever applied
is an explicit outward rounding to a requested number of significant bits.
Every interval operation returns an enclosure of the exact real result; a
comparison verdict therefore cannot be flipped by rounding error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt

from .errors import DomainError, ExpressionError, check_int

__all__ = [
    "Dyadic",
    "Interval",
    "Outcome",
    "Verdict",
    "pi_enclosure",
    "certify_less",
    "verdict_between",
    "RootBound",
    "evaluate",
]

# Guard bits added on top of the caller-requested precision inside the
# evaluator, so that a chain of rounded operations still meets the target.
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

    @staticmethod
    def from_int(v: int) -> "Dyadic":
        return Dyadic.normalized(v, 0)

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp, 1)
        return Fraction(self.man, 1 << -self.exp)

    def __float__(self) -> float:
        try:
            return self.man * 2.0**self.exp
        except OverflowError:
            return float(self.as_fraction())

    def _cmp(self, other: "Dyadic") -> int:
        a, b = self.man, other.man
        if self.exp >= other.exp:
            a <<= self.exp - other.exp
        else:
            b <<= other.exp - self.exp
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    @property
    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)


def _round_ratio(num: int, den: int, bits: int, up: bool) -> Dyadic:
    """Directed rounding of num/den (den > 0) to about ``bits`` significant bits.

    Rounding toward +inf when ``up`` else toward -inf.  Never rounds a nonzero
    value to zero, since rounding acts on the mantissa only.  The exponent is
    taken from num/den in lowest terms, as ``Fraction`` keeps them, so the
    result depends on the value alone.
    """
    if num == 0:
        return Dyadic(0, 0)
    if den <= 0:
        raise ValueError("denominator must be positive")
    g = gcd(num, den)
    num, den = num // g, den // g
    neg = num < 0
    a = -num if neg else num
    # exponent such that the mantissa has roughly `bits` bits
    e = a.bit_length() - den.bit_length() - bits
    if e >= 0:
        q, r = divmod(a, den << e)
    else:
        q, r = divmod(a << -e, den)
    inexact = r != 0
    if neg:
        # value is -(q + r/den'); toward -inf means growing the magnitude
        if inexact and not up:
            q += 1
        return Dyadic.normalized(-q, e)
    if inexact and up:
        q += 1
    return Dyadic.normalized(q, e)


def _round_fraction(fr: Fraction, bits: int, up: bool) -> Dyadic:
    return _round_ratio(fr.numerator, fr.denominator, bits, up)


def _round_dyadic(man: int, exp: int, bits: int, up: bool) -> Dyadic:
    """Directed rounding of ``man * 2**exp``, bit-identical to
    ``_round_fraction`` of the same value.

    The exponent rule of ``_round_ratio`` on the reduced fraction is
    ``bit_length(|man|) + exp - 1 - bits``, which does not depend on how many
    trailing zeros ``man`` carries, so ``man`` need not be normalized.
    """
    if man == 0:
        return Dyadic(0, 0)
    neg = man < 0
    a = -man if neg else man
    e = a.bit_length() + exp - 1 - bits
    shift = e - exp
    if shift <= 0:  # fits in the target precision: exact
        return Dyadic.normalized(man, exp)
    q = a >> shift
    if a & ((1 << shift) - 1) and up != neg:
        q += 1
    return Dyadic.normalized(-q if neg else q, e)


def _sqrt_dyadic(x: Dyadic, bits: int, up: bool) -> Dyadic:
    """Directed rounding of sqrt(x) for x >= 0 via integer square root."""
    if x.man < 0:
        raise DomainError("square root of a negative endpoint")
    if x.man == 0:
        return Dyadic(0, 0)
    m, e = x.man, x.exp
    # scale so the integer sqrt carries >= bits+2 significant bits and the
    # exponent is even
    shift = max(0, 2 * bits + 2 - m.bit_length())
    if (e - shift) & 1:
        shift += 1
    n = m << shift
    r = isqrt(n)
    exact = r * r == n
    if up and not exact:
        r += 1
    return Dyadic.normalized(r, (e - shift) // 2)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed enclosure [lo, hi] with dyadic endpoints."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def point(v: int | Fraction) -> "Interval":
        if isinstance(v, int):
            d = Dyadic.from_int(v)
            return Interval(d, d)
        num, den = v.numerator, v.denominator
        if den & (den - 1) == 0:  # power of two: exactly representable
            d = Dyadic.normalized(num, -(den.bit_length() - 1))
            return Interval(d, d)
        raise ValueError("fraction is not dyadic; use from_fraction with a precision")

    @staticmethod
    def from_fraction(fr: Fraction, bits: int) -> "Interval":
        den = fr.denominator
        if den & (den - 1) == 0:
            d = Dyadic.normalized(fr.numerator, -(den.bit_length() - 1))
            return Interval(d, d)
        return Interval(_round_fraction(fr, bits, False), _round_fraction(fr, bits, True))

    def width(self) -> Fraction:
        return self.hi.as_fraction() - self.lo.as_fraction()

    def contains(self, v: Fraction) -> bool:
        return self.lo.as_fraction() <= v <= self.hi.as_fraction()

    def contains_zero(self) -> bool:
        return self.lo.man <= 0 <= self.hi.man

    def __contains__(self, v) -> bool:
        return self.contains(Fraction(v))

    # All arithmetic takes an explicit precision and rounds outward, so the
    # result is always an enclosure of the exact set image.

    def add(self, other: "Interval", bits: int) -> "Interval":
        return Interval(
            _round_dyadic(*_dyadic_sum(self.lo, other.lo), bits, False),
            _round_dyadic(*_dyadic_sum(self.hi, other.hi), bits, True),
        )

    def neg(self) -> "Interval":
        return Interval(Dyadic(-self.hi.man, self.hi.exp), Dyadic(-self.lo.man, self.lo.exp))

    def sub(self, other: "Interval", bits: int) -> "Interval":
        return self.add(other.neg(), bits)

    def mul(self, other: "Interval", bits: int) -> "Interval":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        # on a common exponent the extreme products are the extreme mantissas
        e = min(a.exp, b.exp) + min(c.exp, d.exp)
        mans = [(x.man * y.man) << (x.exp + y.exp - e) for x in (a, b) for y in (c, d)]
        return Interval(
            _round_dyadic(min(mans), e, bits, False), _round_dyadic(max(mans), e, bits, True)
        )

    def div(self, other: "Interval", bits: int) -> "Interval":
        if other.contains_zero():
            raise ExpressionError("division by an interval containing zero")
        quots = [_dyadic_ratio(x, y) for x in (self.lo, self.hi) for y in (other.lo, other.hi)]
        lo = hi = quots[0]
        for q in quots[1:]:  # denominators are positive: compare by cross-multiplication
            if q[0] * lo[1] < lo[0] * q[1]:
                lo = q
            if q[0] * hi[1] > hi[0] * q[1]:
                hi = q
        return Interval(_round_ratio(*lo, bits, False), _round_ratio(*hi, bits, True))

    def sqrt(self, bits: int) -> "Interval":
        if self.lo.man < 0:
            raise DomainError("square root of an interval with negative lower endpoint")
        return Interval(_sqrt_dyadic(self.lo, bits, False), _sqrt_dyadic(self.hi, bits, True))


def _dyadic_sum(x: Dyadic, y: Dyadic) -> tuple[int, int]:
    """The exact sum of two dyadics as an unnormalized ``(man, exp)``."""
    if x.exp >= y.exp:
        return (x.man << (x.exp - y.exp)) + y.man, y.exp
    return x.man + (y.man << (y.exp - x.exp)), x.exp


def _dyadic_ratio(x: Dyadic, y: Dyadic) -> tuple[int, int]:
    """``x / y`` (y nonzero) as ``(num, den)`` with ``den > 0``, unreduced."""
    num, den = x.man, y.man
    if x.exp >= y.exp:
        num <<= x.exp - y.exp
    else:
        den <<= y.exp - x.exp
    return (-num, -den) if den < 0 else (num, den)


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
    """Interval of width at most 2**-precision_bits containing pi.

    Machin's identity pi = 16*arctan(1/5) - 4*arctan(1/239), each arctangent
    bounded by its alternating series.  Results are cached per precision.
    """
    check_int("precision_bits", precision_bits, 8)
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
    """Enclosure of a closed-form bound at the given target precision."""
    _check_precision(precision_bits)
    bits = precision_bits + _GUARD_BITS
    den = Interval.point(bound.r.denominator)
    if bound.k:
        den = den.mul(pi_enclosure(bits), bits)
    root = Interval.point(bound.r.numerator).div(den, bits)
    factor = Interval.from_fraction(bound.a, bits)
    if bound.b:
        over_root3 = Interval.from_fraction(bound.b, bits).div(Interval.point(3).sqrt(bits), bits)
        factor = factor.add(over_root3, bits)
    return factor.mul(root.sqrt(bits), bits)


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

    ``margin`` encloses rhs - lhs; the outcome is Holds exactly when the
    whole margin is positive and Fails exactly when it is negative.
    """

    outcome: Outcome
    precision_bits_used: int
    margin: Interval

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS


def _as_interval(v: Fraction | int | Interval, bits: int) -> Interval:
    if isinstance(v, Interval):
        return v
    if isinstance(v, int):
        return Interval.point(v)
    return Interval.from_fraction(v, bits)


def verdict_between(lhs, rhs, precision_bits: int) -> Verdict:
    """Certify lhs < rhs where each side is a Fraction or an Interval."""
    bits = precision_bits + _GUARD_BITS
    margin = _as_interval(rhs, bits).sub(_as_interval(lhs, bits), bits)
    if margin.lo.sign > 0:
        outcome = Outcome.HOLDS
    elif margin.hi.sign < 0:
        outcome = Outcome.FAILS
    else:
        outcome = Outcome.INCONCLUSIVE
    return Verdict(outcome, precision_bits, margin)


def certify_less(
    lhs: Fraction,
    rhs_expr: RootBound,
    max_precision_bits: int = 4096,
) -> Verdict:
    """Certified verdict for lhs < rhs_expr, escalating precision as needed.

    Evaluation starts at 64 bits and doubles until the margin excludes zero
    or ``max_precision_bits`` (at most 16384) is reached; only then is the
    comparison reported Inconclusive.
    """
    if not isinstance(rhs_expr, RootBound):
        raise ExpressionError(f"rhs must be a RootBound, got {rhs_expr!r}")
    _check_precision(max_precision_bits)
    lhs = Fraction(lhs)
    precision = 64
    while True:
        verdict = verdict_between(lhs, evaluate(rhs_expr, precision), precision)
        if verdict.outcome is not Outcome.INCONCLUSIVE or precision >= max_precision_bits:
            return verdict
        precision = min(precision * 2, max_precision_bits)
