"""Finite-n checks of local-CLT sharpness for the peak-probability bound.

The exact rational concentration is computed first and converted to a
40-digit decimal only at the end, so no pmf value ever underflows (the
denominators ell**n overflow double precision long before n = 1000).
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

from .certify import pi_enclosure
from .errors import check_lattice
from .exactdist import LatticeParams, power

__all__ = ["clt_ratio", "local_clt_sup_dev"]

# 40 digits (over 128 bits); precision, rounding, exponent bounds and traps
# are all named, so neither the caller's context nor decimal.DefaultContext,
# which fills the fields a Context leaves unnamed, changes a result or raises
_CONTEXT = Context(prec=40, rounding=ROUND_HALF_EVEN, Emax=999999, Emin=-999999, traps=[])
# pi's enclosure is within 2**-160 of pi, whose digits past the 40th
# (1693...) are far from a rounding boundary, so it rounds as pi does
_PI_LO = pi_enclosure(160).lo
_PI = _CONTEXT.divide(_PI_LO.numerator, _PI_LO.denominator)


def clt_ratio(ell: int, n: int, c: Fraction) -> float:
    """Ratio of the exact peak probability ``c = concentration(LatticeParams(ell, n))``
    to its limiting Gaussian value: sqrt(n) * c * sqrt(pi*(ell**2-1)/6).

    Tends to one from below as n grows; exceeds one exactly in the reversed
    regime of the sharp bound.
    """
    check_lattice(ell, n)
    with localcontext(_CONTEXT):
        value = Decimal(n).sqrt() * (Decimal(c.numerator) / c.denominator)
        return float(value * (_PI * (ell * ell - 1) / 6).sqrt())


def local_clt_sup_dev(ell: int, n: int) -> float:
    """Sup over k of |sqrt(n)*pmf(k) - normal density at the matching point|.

    Off the support only the Gaussian term counts, and it falls away from
    the mean, so its supremum there sits at k = -1 and k = n(ell-1) + 1.
    The pmf is symmetric about the centre n(ell-1)/2, and the Gaussian is
    centred there exactly, so k and n(ell-1) - k give the same z up to sign
    and the same deviation bit for bit: the sup over [-1, n(ell-1) + 1] is
    the sup over [-1, centre].

    It runs down from the centre's floor and stops at the first k where both
    ``a = sqrt(n)*pmf(k)`` and the Gaussian ``g`` are <= the running sup.
    For a, b >= 0, ``|a - b| <= max(a, b)``.  The pmf is unimodal, so
    neither exact value grows further out.  Every step that computes them
    keeps order: each decimal operation, exp and sqrt included, is correctly
    rounded, and correct rounding never reverses the order of two exact
    values.  So neither computed value grows further out either, no later
    point can beat the sup, and the result equals the full scan's bit for
    bit.
    """
    check_lattice(ell, n)
    d = power(LatticeParams(ell, n))
    top = d.params.top
    denom = d.denominator
    with localcontext(_CONTEXT):
        sqrt_n = Decimal(n).sqrt()
        mu = Decimal(ell - 1) / 2
        sigma = (Decimal(ell * ell - 1) / 12).sqrt()
        norm = 1 / (sigma * (2 * _PI).sqrt())
        zero = Decimal(0)
        sup = zero
        for k in range(top // 2, -2, -1):
            z = (k - n * mu) / (sigma * sqrt_n)
            gauss = norm * (-z * z / 2).exp()
            mass = sqrt_n * d.numerators[k] / denom if k >= 0 else zero
            dev = abs(mass - gauss)
            if dev > sup:
                sup = dev
            if mass <= sup and gauss <= sup:
                break
        return float(sup)
