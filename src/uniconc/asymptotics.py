"""Finite-n checks of local-CLT sharpness for the peak-probability bound.

The exact rational concentration is computed first and converted to an
extended-precision float only at the end, so no pmf value ever underflows
(the denominators ell**n overflow double precision long before n = 1000).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .errors import check_int
from .exactdist import LatticeParams, concentration, power

__all__ = ["clt_ratio", "local_clt_sup_dev"]

_PREC_BITS = 128


def _check(ell: int, n: int) -> None:
    check_int("ell", ell, 2)  # ell = 1 has zero variance
    check_int("n", n, 1)


def _mpf(fr: Fraction) -> mpmath.mpf:
    return mpmath.mpf(fr.numerator) / mpmath.mpf(fr.denominator)


def clt_ratio(ell: int, n: int) -> float:
    """Ratio of the exact peak probability to its limiting Gaussian value:
    sqrt(n) * c * sqrt(pi*(ell**2-1)/6).

    Tends to one from below as n grows; exceeds one exactly in the reversed
    regime of the sharp bound.
    """
    _check(ell, n)
    c = concentration(LatticeParams(ell, n))
    with mpmath.workprec(_PREC_BITS):
        value = mpmath.sqrt(n) * _mpf(c) * mpmath.sqrt(mpmath.pi * (ell * ell - 1) / 6)
        return float(value)


def local_clt_sup_dev(ell: int, n: int) -> float:
    """Sup over k of |sqrt(n)*pmf(k) - normal density at the matching point|.

    Off the support only the Gaussian term counts, and it falls away from
    the mean, so its supremum there sits at k = -1 and k = n(ell-1) + 1;
    the scan covers [-1, n(ell-1) + 1].
    """
    _check(ell, n)
    d = power(LatticeParams(ell, n))
    top = d.params.top
    denom = d.denominator
    with mpmath.workprec(_PREC_BITS):
        sqrt_n = mpmath.sqrt(n)
        mu = mpmath.mpf(ell - 1) / 2
        sigma = mpmath.sqrt(mpmath.mpf(ell * ell - 1) / 12)
        norm = 1 / (sigma * mpmath.sqrt(2 * mpmath.pi))
        mp_denom = mpmath.mpf(denom)
        sup = mpmath.mpf(0)
        for k in range(-1, top + 2):
            z = (k - n * mu) / (sigma * sqrt_n)
            gauss = norm * mpmath.exp(-z * z / 2)
            if 0 <= k <= top:
                dev = abs(sqrt_n * mpmath.mpf(d.numerators[k]) / mp_denom - gauss)
            else:
                dev = gauss
            if dev > sup:
                sup = dev
        return float(sup)
