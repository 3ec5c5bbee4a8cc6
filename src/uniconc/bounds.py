"""High-precision enclosures of the closed-form concentration bounds.

Every irrational value is returned as an interval, never a bare float: the
boundary cases of the sharp bound are decided by margins of a few 1e-4 and
must not depend on rounding luck.  Each closed form is a
``certify.RootBound`` ``(a + b/sqrt(3)) * sqrt(r / pi**k)``, enclosed and
compared by the certified engine (``certify.evaluate``,
``certify.verdict_between``); ``G`` is enclosed here, at the same precision, by
directed integer series.
"""

from __future__ import annotations

from fractions import Fraction

from .certify import _GUARD_BITS, Interval, RootBound, _check_precision, _div, _round_ratio
from .errors import ParameterError, check_int

__all__ = [
    "main_bound_expr",
    "corollary_bound_expr",
    "wallis_bound_expr",
    "d_sequence_expr",
    "bessel_G",
    "bessel_chain_expr",
]


def _pi_root(r: Fraction) -> RootBound:
    """sqrt(r / pi)."""
    return RootBound(Fraction(1), Fraction(0), r, 1)


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
    rational = 1 - Fraction(3, 20 * n) + Fraction(21, 160 * n * n)
    correction = Fraction(1, (n - 1) * 2 ** (n - 1)) if n % 2 == 0 else Fraction(0)
    return RootBound(rational, correction, Fraction(1), 0)


def bessel_chain_expr(n: int) -> RootBound:
    """sqrt(3/(pi*n)), the outer member of the adjacent-pair bound chain."""
    check_int("n", n, 1)
    return _pi_root(Fraction(3, n))


# ---------------------------------------------------------------------------
# G(lambda) = exp(-lambda) * (I0(lambda) + I1(lambda))
# ---------------------------------------------------------------------------

def _series(num: int, den, first: int, up: bool) -> int:
    """sum_m t_m with t_0 = ``first`` and t_m = t_{m-1} * num / den(m), for
    num >= 0 and den(m) > 0 increasing in m; every term is rounded in the
    direction ``up`` by ``certify._div``.  Summation stops once t_m <= 1 and
    every later ratio is below 1/2; the tail is then below t_m, and the upper
    chain adds 2*t_m."""
    total = term = first
    m = 1
    while True:
        term = _div(term * num, den(m), up)
        total += term
        m += 1
        if term <= 1 and 2 * num < den(m):
            return total + 2 * term if up else total


def bessel_G(lam, precision_bits: int) -> Interval:
    """Enclosure of G(lam) = exp(-lam) * (I0(lam) + I1(lam)) for rational
    lam >= 0 at ``precision_bits`` (64..16384), as ``certify.evaluate``.

    With x = lam**2/4, I0 = sum x**m / m!**2, I1 = (lam/2) sum x**m /
    (m! (m+1)!) and exp(lam) = sum lam**k / k!.  ``_series`` sums each in
    fixed point at scale 2**w, w = precision_bits + _GUARD_BITS, once as a
    lower and once as an upper chain (``certify._div``).  Rigour: the lower
    chain floors every term and drops the tail, and floors only lower; the
    upper chain ceils every term, which only raises, and adds 2*t_m for the
    tail; once every later ratio is below 1/2 the tail is geometric and
    below t_m.
    Width: the partial sums of I0 + I1 and of exp are at least 1 (2**w
    scaled), so each unit of rounding error is a relative error of at most
    2**-w.  G is the lower I0 + I1 over the upper exp and the upper over the
    lower, each quotient rounded outward by ``_round_ratio``.
    """
    lam = Fraction(lam)
    _check_precision(precision_bits)
    if lam < 0:
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    if lam == 0:
        return Interval.point(1)
    p, q = lam.numerator, lam.denominator
    bits = precision_bits + _GUARD_BITS
    one = 1 << bits
    ends = []
    for up in (False, True):
        i0 = _series(p * p, lambda m: 4 * q * q * m * m, one, up)
        i1 = _series(p * p, lambda m: 4 * q * q * m * (m + 1), _div(p * one, 2 * q, up), up)
        e = _series(p, lambda m: q * m, one, not up)
        ends.append(_round_ratio(i0 + i1, e, bits, up))
    return Interval(*ends)
