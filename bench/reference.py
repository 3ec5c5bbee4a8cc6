"""Reference values computed apart from uniconc.

Nothing here imports the package under test.  Exact values come from the
sliding-window (prefix-sum) recurrence of the uniform law, from binomial and
trinomial identities, or, for cells whose exact value is too large to build
here, from the same recurrence modulo a few primes plus a float64 run of it.
Irrational bound values come from mpmath at ``REF_BITS`` bits.
"""

from __future__ import annotations

import functools
from decimal import Decimal
from fractions import Fraction
from math import comb

import mpmath
import numpy as np

REF_BITS = 320
REF_DIGITS = 100  # decimal digits kept of a REF_BITS-bit value (about 96 are exact)

# Primes below 2**31, so that prefix sums of residues fit in int64.
PRIMES = (2147483647, 2147483629, 2147483587)


# ---------------------------------------------------------------------------
# exact pmfs and concentrations
# ---------------------------------------------------------------------------

def uniform_rows(ell: int, n_max: int):
    """Yield (n, numerators) for n = 1..n_max: the pmf of the n-fold sum of
    uniforms on {0..ell-1} over the denominator ell**n, as an object array.

    pmf_{n+1}[k] = sum_{j<ell} pmf_n[k-j], taken as a difference of prefix
    sums of the zero-padded row.
    """
    row = np.ones(ell, dtype=object)
    pad = np.zeros(ell - 1, dtype=object)
    for n in range(1, n_max + 1):
        if n > 1:
            cs = np.cumsum(np.concatenate(([0], pad, row, pad)))
            row = cs[ell:] - cs[:-ell]
        yield n, row


def central(row) -> int:
    """Numerator at floor(top/2), where the maximum of a symmetric unimodal
    row sits."""
    return int(row[(len(row) - 1) // 2])


def binomial_concentration(n: int) -> Fraction:
    """c(2, n) = C(n, floor(n/2)) / 2**n."""
    return Fraction(comb(n, n // 2), 2**n)


def trinomial(n: int, m: int) -> int:
    """Coefficient of x**m in (1 + x + x**2)**n: j factors give x**2 and
    m - 2j give x, so it is sum_j C(n, j) * C(n - j, m - 2j)."""
    return sum(comb(n, j) * comb(n - j, m - 2 * j) for j in range(m // 2 + 1))


def trinomial_concentration(n: int) -> Fraction:
    """c(3, n): the centre n of the support {0..2n} carries the largest
    coefficient of (1 + x + x**2)**n."""
    return Fraction(trinomial(n, n), 3**n)


def pair3(n: int) -> Fraction:
    """max_k P({k, k+1}) for ell = 3.  The pmf is symmetric about n and
    unimodal, so the best pair is {n-1, n}."""
    return Fraction(trinomial(n, n - 1) + trinomial(n, n), 3**n)


def quaternary(n: int, m: int) -> int:
    """Coefficient of x**m in (1 + x + x**2 + x**3)**n = (1 + x)**n (1 + x**2)**n."""
    return sum(comb(n, j) * comb(n, (m - j) // 2) for j in range(m % 2, min(n, m) + 1, 2))


@functools.cache
def recurrence_residues(ell: int, n: int, k: int) -> tuple[tuple[int, ...], float]:
    """The numerator of P(S_n = k) modulo each of ``PRIMES``, and P(S_n = k)
    in float64, by the sliding-window recurrence run in machine integers and
    in floats.  Points above k never feed point k, so rows stop there.  The
    float step sums ell shifted rows, so there is no cancellation and the
    relative error stays near n * 2**-52."""
    primes = np.array(PRIMES, dtype=np.int64)[:, None]
    res = np.zeros((len(PRIMES), k + 1), dtype=np.int64)
    prob = np.zeros(k + 1)
    res[:, :ell] = 1
    prob[:ell] = 1.0 / ell
    for _ in range(2, n + 1):
        cs = np.cumsum(res, axis=1)  # below k * 2**31 < 2**63
        cs[:, ell:] -= cs[:, :-ell].copy()
        res = cs % primes
        window = prob.copy()
        for j in range(1, ell):
            window[j:] += prob[:-j]
        prob = window / ell
    return tuple(int(r) for r in res[:, k]), float(prob[k])


# ---------------------------------------------------------------------------
# bound values in mpmath
# ---------------------------------------------------------------------------

class Bounds:
    """Closed-form bound values from mpmath at REF_BITS bits, as Decimals of
    REF_DIGITS digits.  Their error, about 1e-95 relative, is far below
    anything a 30-digit report can show."""

    def __init__(self):
        self._ctx = mpmath.mp.clone()
        self._ctx.prec = REF_BITS
        self._pi = self._ctx.pi

    def _dec(self, x) -> Decimal:
        return Decimal(self._ctx.nstr(x, REF_DIGITS))

    def _sqrt(self, num, den_factor) -> Decimal:
        ctx = self._ctx
        return self._dec(ctx.sqrt(ctx.mpf(num) / (self._pi * den_factor)))

    def main(self, ell: int, n: int) -> Decimal:
        """sqrt(6 / (pi (ell^2 - 1) n))."""
        return self._sqrt(6, (ell * ell - 1) * n)

    def corollary(self, ell: int, n: int) -> Decimal:
        """2 sqrt(2/pi) / (ell sqrt(n))."""
        ctx = self._ctx
        return self._dec(2 * ctx.sqrt(2 / self._pi) / (ell * ctx.sqrt(n)))

    def wallis(self, k: int) -> Decimal:
        """1 / sqrt(pi k)."""
        return self._sqrt(1, k)

    def dsequence(self, ell: int, n: int) -> Decimal:
        """d_n times the main bound, d_n = 1 - 3/(20n) + 21/(160n^2), plus
        1/(sqrt(3) (n-1) 2^(n-1)) for even n."""
        ctx = self._ctx
        d = 1 - ctx.mpf(3) / (20 * n) + ctx.mpf(21) / (160 * n * n)
        if n % 2 == 0:
            d += 1 / (ctx.sqrt(3) * (n - 1) * ctx.mpf(2) ** (n - 1))
        return self._dec(d * ctx.sqrt(6 / (self._pi * ((ell * ell - 1) * n))))

    def bessel_outer(self, n: int) -> Decimal:
        """sqrt(3 / (pi n))."""
        return self._sqrt(3, n)

    def bessel_G(self, lam: Fraction) -> Decimal:
        """exp(-lam) (I0(lam) + I1(lam))."""
        ctx = self._ctx
        x = ctx.mpf(lam.numerator) / lam.denominator
        return self._dec(ctx.exp(-x) * (ctx.besseli(0, x) + ctx.besseli(1, x)))

    def clt_ratio(self, ell: int, n: int, c: Fraction) -> float:
        """sqrt(n) c sqrt(pi (ell^2 - 1) / 6)."""
        ctx = self._ctx
        cm = ctx.mpf(c.numerator) / c.denominator
        return float(ctx.sqrt(n) * cm * ctx.sqrt(self._pi * (ell * ell - 1) / 6))

    def binomial_sup_deviation(self, n: int) -> float:
        """sup over k in [-n, 2n] of |sqrt(n) P(S = k) - phi((k - n/2)/sigma_n)/sigma|
        for S binomial(n, 1/2), with sigma^2 = 1/4 the variance of one step."""
        ctx = self._ctx
        sqrt_n = ctx.sqrt(n)
        sigma = ctx.mpf(1) / 2
        norm = 1 / (sigma * ctx.sqrt(2 * self._pi))
        scale = sqrt_n / ctx.mpf(2) ** n
        best = ctx.mpf(0)
        for k in range(-n, 2 * n + 1):
            z = (k - ctx.mpf(n) / 2) / (sigma * sqrt_n)
            gauss = norm * ctx.exp(-z * z / 2)
            mass = scale * comb(n, k) if 0 <= k <= n else 0
            best = max(best, abs(mass - gauss))
        return float(best)
