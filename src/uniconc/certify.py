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

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp, 1)
        return Fraction(self.man, 1 << -self.exp)

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


def _round_dyadic(man: int, exp: int, bits: int, up: bool) -> Dyadic:
    """Directed rounding of ``man * 2**exp``, bit-identical to
    ``_round_ratio`` of the same value.

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
    q, rem = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
    if up and rem:
        q += 1
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
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def point(v: int) -> "Interval":
        d = Dyadic.normalized(v, 0)
        return Interval(d, d)

    @staticmethod
    def from_fraction(fr: Fraction | int, bits: int) -> "Interval":
        num, den = fr.numerator, fr.denominator
        if den & (den - 1) == 0:  # a power of two (1 for an int): exactly representable
            d = Dyadic.normalized(num, -(den.bit_length() - 1))
            return Interval(d, d)
        return Interval(_round_ratio(num, den, bits, False), _round_ratio(num, den, bits, True))

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


def _dyadic_sum(x: Dyadic, y: Dyadic) -> tuple[int, int]:
    """The exact sum of two dyadics as an unnormalized ``(man, exp)``."""
    if x.exp >= y.exp:
        return (x.man << (x.exp - y.exp)) + y.man, y.exp
    return x.man + (y.man << (y.exp - x.exp)), x.exp


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
    total = None
    for coef, d in ((bound.a, 1), (bound.b, 3)):
        if not coef:
            continue
        num = coef.numerator**2 * r.numerator
        den = coef.denominator**2 * r.denominator * d
        root = Interval(
            _sqrt_ratio(num, den * pi_k.hi.man, -pi_k.hi.exp, bits, False),
            _sqrt_ratio(num, den * pi_k.lo.man, -pi_k.lo.exp, bits, True),
        )
        total = root if total is None else total.add(root, bits)
    return total


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
    margin: Interval


def _as_interval(v: Fraction | int | Interval, bits: int) -> Interval:
    return v if isinstance(v, Interval) else Interval.from_fraction(v, bits)


def verdict_between(lhs, rhs, precision_bits: int) -> Verdict:
    """Certify lhs < rhs where each side is a Fraction, an int or an Interval."""
    bits = precision_bits + _GUARD_BITS
    margin = _as_interval(rhs, bits).sub(_as_interval(lhs, bits), bits)
    if margin.lo.sign > 0:
        outcome = Outcome.HOLDS
    elif margin.hi.sign < 0:
        outcome = Outcome.FAILS
    else:
        outcome = Outcome.INCONCLUSIVE
    return Verdict(outcome, margin)

