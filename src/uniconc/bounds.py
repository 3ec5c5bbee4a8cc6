"""High-precision enclosures of the closed-form concentration bounds.

Every irrational value is returned as an interval, never a bare float: the
boundary cases of the sharp bound are decided by margins of a few 1e-4 and
must not depend on rounding luck.  Each closed form is a
``certify.RootBound`` ``(a + b/sqrt(3)) * sqrt(r / pi**k)``, enclosed and
compared by the certified engine (``certify.evaluate``,
``certify.verdict_between``); ``G`` is enclosed here, at the same precision,
from Poisson weights stepped by ``certify._terms``, the one directed term
stepper, which pi's series shares.
"""

from __future__ import annotations

from fractions import Fraction

from .certify import _GUARD_BITS, Interval, RootBound, _check_precision, _round_ratio, _terms
from .errors import ParameterError, check_int

__all__ = [
    "main_bound_expr",
    "corollary_bound_expr",
    "wallis_bound_expr",
    "d_sequence_expr",
    "bessel_G",
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


# ---------------------------------------------------------------------------
# G(lambda) = exp(-lambda) * (I0(lambda) + I1(lambda))
# ---------------------------------------------------------------------------

def bessel_G(lam, precision_bits: int) -> Interval:
    """Enclosure of G(lam) = exp(-lam) * (I0(lam) + I1(lam)) for rational
    lam >= 0 at ``precision_bits`` (64..16384), as ``certify.evaluate``.

    G(lam) is the mass a Skellam(mu, mu) law, mu = lam/2, puts on {0, 1}:
    sum_k w_k (w_k + w_{k+1}) over the Poisson(mu) weights w_k = e**-mu *
    mu**k / k!.  With V_k = mu**k / k! up to one common factor, w_k = V_k /
    S0, so G = S1 / S0**2 for S0 = sum_k V_k and S1 = sum_k V_k (V_k +
    V_{k+1}).  The factor cancels, so no enclosure of e**-mu is needed.
    ``_skellam_sums`` fixes V_k0 = 2**w at the mode k0 = floor(mu), w =
    precision_bits + _GUARD_BITS, and steps each side outward with
    ``certify._terms``, the stepper ``certify._series`` sums through:
    upward by mu/(k+1), downward by k/mu.  Since k0 <= mu < k0 + 1, both
    ratios are at most 1 and fall as k moves away from the mode, so the
    stepper's stop rule and tail bound hold on each side.
    Width: S0 >= 2**w, and S1 >= 2**(2w), so each unit of rounding error is
    a relative error of at most 2**-w.  G's lower end is S1 rounded down
    over S0**2 rounded up and its upper end the mirror, each quotient
    rounded outward by ``_round_ratio``.  At lam = 0 both sums are exact,
    so G = 1 exactly.
    """
    lam = Fraction(lam)
    _check_precision(precision_bits)
    if lam < 0:
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    bits = precision_bits + _GUARD_BITS
    sums = [_skellam_sums(lam.numerator, lam.denominator, bits, up) for up in (False, True)]
    ends = []
    for up in (False, True):
        s1, s0 = sums[up][1], sums[not up][0]
        ends.append(_round_ratio(s1, s0 * s0, bits, up))
    return Interval(*ends)


def _skellam_sums(p: int, q: int, bits: int, up: bool) -> tuple[int, int]:
    """S0 and S1 of ``bessel_G`` at mu = p/(2q), with V_k0 = 2**bits at the
    mode k0 and S1 scaled by 2**(2*bits), both rounded up when ``up``, else
    down.  There is no downward side when k0 = 0."""
    one = 1 << bits
    k0 = p // (2 * q)
    up0, up1 = _side_sums(lambda m: (p, 2 * q * (k0 + m)), one, up)
    down0, down1 = _side_sums(lambda m: (2 * q * (k0 + 1 - m), p), one, up) if k0 else (0, 0)
    return one + up0 + down0, one * one + up1 + down1


def _side_sums(ratio, one: int, up: bool) -> tuple[int, int]:
    """sum_m t_m and sum_m t_m (t_{m-1} + t_m) over m >= 1, for the terms
    t_m of ``_terms(ratio, one, up)``: one side of the mode, whose term t_0
    = V_k0 is counted once by the caller.  Past the last term t the exact
    terms fall below half the one before, so the tail of the first sum is
    below t and that of the second below t*t; the upper chain adds twice
    each."""
    terms = _terms(ratio, one, up)
    s0 = s1 = 0
    prev = next(terms)
    for t in terms:
        s0 += t
        s1 += t * (prev + t)
        prev = t
    return (s0 + 2 * prev if up else s0), (s1 + 2 * prev * prev if up else s1)
