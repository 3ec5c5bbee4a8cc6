"""High-precision enclosures of the closed-form concentration bounds.

Every irrational value is returned as an interval, never a bare float: the
boundary cases of the sharp bound are decided by margins of a few 1e-4 and
must not depend on rounding luck.  Each closed form is a
``certify.RootBound`` ``(a + b/sqrt(3)) * sqrt(r / pi**k)``, enclosed and
compared by the certified engine (``certify.evaluate``,
``certify.certify_less``); ``G`` is enclosed here by rational series.
"""

from __future__ import annotations

from fractions import Fraction

from .certify import Interval, RootBound, _round_fraction
from .errors import ParameterError

__all__ = [
    "main_bound_expr",
    "corollary_bound_expr",
    "wallis_bound_expr",
    "d_sequence_expr",
    "bessel_G",
    "bessel_chain_expr",
]


def _check_int(name: str, value: int, least: int) -> None:
    # bool is an int subclass; True would pass as 1 without this check
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def _pi_root(r: Fraction) -> RootBound:
    """sqrt(r / pi)."""
    return RootBound(Fraction(1), Fraction(0), r, 1)


def main_bound_expr(ell: int, n: int) -> RootBound:
    """sqrt(6 / (pi * (ell**2 - 1) * n)), the sharp peak-probability bound."""
    _check_int("ell", ell, 2)
    _check_int("n", n, 1)
    return _pi_root(Fraction(6, (ell * ell - 1) * n))


def corollary_bound_expr(ell: int, n: int) -> RootBound:
    """2*sqrt(2/pi) / (ell*sqrt(n)), written as a single square root."""
    _check_int("ell", ell, 2)
    _check_int("n", n, 1)
    return _pi_root(Fraction(8, ell * ell * n))


def wallis_bound_expr(k: int) -> RootBound:
    """1/sqrt(pi*k), the bound on the central binomial probability."""
    _check_int("k", k, 1)
    return _pi_root(Fraction(1, k))


def d_sequence_expr(n: int) -> RootBound:
    """The majorant 1 - 3/(20n) + 21/(160n**2), plus 1/(sqrt(3)*(n-1)*2**(n-1))
    when n is even.

    The even-n indicator is exact integer parity.  d_1 = 157/160 and the
    sequence stays below one except at n = 2.
    """
    _check_int("n", n, 1)
    rational = 1 - Fraction(3, 20 * n) + Fraction(21, 160 * n * n)
    correction = Fraction(1, (n - 1) * 2 ** (n - 1)) if n % 2 == 0 else Fraction(0)
    return RootBound(rational, correction, Fraction(1), 0)


def bessel_chain_expr(n: int) -> RootBound:
    """sqrt(3/(pi*n)), the outer member of the adjacent-pair bound chain."""
    _check_int("n", n, 1)
    return _pi_root(Fraction(3, n))


# ---------------------------------------------------------------------------
# G(lambda) = exp(-lambda) * (I0(lambda) + I1(lambda))
# ---------------------------------------------------------------------------

def _series_bounds(x: Fraction, tol: Fraction, step_den) -> tuple[Fraction, Fraction]:
    """Partial sum and a rigorous tail bound for sum_m term_m with
    term_{m+1} = term_m * x / step_den(m+1), term_0 = 1, x >= 0.

    Stops once the upcoming term ratio is below 1/2 and the latest term is
    below tol/8 of the running sum; the remaining tail is then geometric and
    bounded by twice the latest term.
    """
    total = Fraction(1)
    term = Fraction(1)
    m = 0
    while True:
        m += 1
        term = term * x / step_den(m)
        total += term
        if x < Fraction(step_den(m + 1), 2) and term * 8 < tol * total:
            return total, 2 * term


def _exp_bounds(lam: Fraction, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Lower partial sum and upper bound for exp(lam), lam >= 0."""
    total = Fraction(1)
    term = Fraction(1)
    k = 0
    while True:
        k += 1
        term = term * lam / k
        total += term
        if 2 * lam < k + 1 and term * 8 < tol * total:
            return total, total + 2 * term


def bessel_G(lam, tolerance=Fraction(1, 10**12)) -> Interval:
    """Enclosure of exp(-lam) * (I0(lam) + I1(lam)) with rigorous tails.

    I0 and I1 are evaluated by their ascending power series in exact rational
    arithmetic; the truncation tails and the exp tail are bounded by
    geometric series, so the returned interval is a true enclosure with
    relative width at most about ``tolerance``.
    """
    lam = Fraction(lam)
    tol = Fraction(tolerance)
    if lam < 0:
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    if lam == 0:
        return Interval.point(1)
    x = lam * lam / 4
    s0, tail0 = _series_bounds(x, tol, lambda m: m * m)
    s1, tail1 = _series_bounds(x, tol, lambda m: m * (m + 1))
    s1, tail1 = lam / 2 * s1, lam / 2 * tail1
    e_lo, e_hi = _exp_bounds(lam, tol)
    g_lo = (s0 + s1) / e_hi
    g_hi = (s0 + s1 + tail0 + tail1) / e_lo
    bits = max(64, _tol_bits(tol) + 16)
    return Interval(_round_fraction(g_lo, bits, False), _round_fraction(g_hi, bits, True))


def _tol_bits(tol: Fraction) -> int:
    bits = 0
    v = Fraction(1)
    while v > tol:
        v /= 2
        bits += 1
    return bits
