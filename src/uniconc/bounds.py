"""High-precision enclosures of the closed-form concentration bounds.

Every irrational value is returned as an interval, never a bare float: the
boundary cases of the sharp bound are decided by margins of a few 1e-4 and
must not depend on rounding luck.  Each closed form is a
``certify.RootBound`` ``(a + b/sqrt(3)) * sqrt(r / pi**k)``, enclosed and
compared by the certified engine (``certify.evaluate``,
``certify.verdict_between``); ``G`` is enclosed here, at the same precision, by
``certify._series``, the one directed series summer.
"""

from __future__ import annotations

from fractions import Fraction

from .certify import _GUARD_BITS, Interval, RootBound, _check_precision, _round_ratio, _series
from .errors import ParameterError, check_int

__all__ = [
    "main_bound_expr",
    "corollary_bound_expr",
    "wallis_bound_expr",
    "d_sequence_expr",
    "bessel_G",
    "bessel_chain_expr",
]


_ONE, _ZERO = Fraction(1), Fraction(0)


def _pi_root(r: Fraction) -> RootBound:
    """sqrt(r / pi)."""
    return RootBound(_ONE, _ZERO, r, 1)


def main_bound_expr(ell: int, n: int) -> RootBound:
    """sqrt(6 / (pi * (ell**2 - 1) * n)), the sharp peak-probability bound."""
    check_int("ell", ell, 2)
    check_int("n", n, 1)
    return _pi_root(Fraction(6, (ell * ell - 1) * n))


def corollary_bound_expr(ell: int, n: int) -> RootBound:
    """2*sqrt(2/pi) / (ell*sqrt(n)), written as a single square root."""
    check_int("ell", ell, 2)
    check_int("n", n, 1)
    return _pi_root(Fraction(8, ell * ell * n))


def wallis_bound_expr(k: int) -> RootBound:
    """1/sqrt(pi*k), the bound on the central binomial probability."""
    check_int("k", k, 1)
    return _pi_root(Fraction(1, k))


def d_sequence_expr(n: int) -> RootBound:
    """The majorant 1 - 3/(20n) + 21/(160n**2), plus 1/(sqrt(3)*(n-1)*2**(n-1))
    when n is even.

    The even-n indicator is exact integer parity.  d_1 = 157/160 and the
    sequence stays below one except at n = 2.
    """
    check_int("n", n, 1)
    rational = Fraction(160 * n * n - 24 * n + 21, 160 * n * n)
    correction = Fraction(1, (n - 1) * 2 ** (n - 1)) if n % 2 == 0 else _ZERO
    return RootBound(rational, correction, _ONE, 0)


def bessel_chain_expr(n: int) -> RootBound:
    """sqrt(3/(pi*n)), the outer member of the adjacent-pair bound chain."""
    check_int("n", n, 1)
    return _pi_root(Fraction(3, n))


# ---------------------------------------------------------------------------
# G(lambda) = exp(-lambda) * (I0(lambda) + I1(lambda))
# ---------------------------------------------------------------------------

def bessel_G(lam, precision_bits: int) -> Interval:
    """Enclosure of G(lam) = exp(-lam) * (I0(lam) + I1(lam)) for rational
    lam >= 0 at ``precision_bits`` (64..16384), as ``certify.evaluate``.

    I0 + I1 is one series, sum_j (lam/2)**j / (floor(j/2)! ceil(j/2)!), whose
    term ratio is (lam/2) / ceil(j/2); exp(lam) = sum_j lam**j / j!, with
    ratio lam / j.  ``certify._series``, the one directed series summer,
    sums each in fixed point at scale 2**w, w = precision_bits +
    _GUARD_BITS, once as a lower and once as an upper chain; its docstring
    gives the rigour argument.  Neither ratio rises with j, so once one is
    below 1/2 every later one is too.
    Width: both partial sums are at least 1 (2**w scaled), so each unit of
    rounding error is a relative error of at most 2**-w.  G is the lower
    I0 + I1 over the upper exp and the upper over the lower, each quotient
    rounded outward by ``_round_ratio``.  At lam = 0 both sums are exactly
    2**w, so G = 1 exactly.
    """
    lam = Fraction(lam)
    _check_precision(precision_bits)
    if lam < 0:
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    bits = precision_bits + _GUARD_BITS
    ends = []
    for up in (False, True):
        i01, e = _bessel_chains(lam.numerator, lam.denominator, bits, up)
        ends.append(_round_ratio(i01, e, bits, up))
    return Interval(*ends)


def _bessel_chains(p: int, q: int, bits: int, up: bool) -> tuple[int, int]:
    """The two chains of one end of G(p/q), each scaled by 2**bits: I0 + I1
    rounded up when ``up``, else down, and exp rounded the other way."""
    one = 1 << bits
    i01 = _series(lambda j: (p, 2 * q * ((j + 1) // 2)), one, up)
    e = _series(lambda j: (p, q * j), one, not up)
    return i01, e
