"""Exact arithmetic for convolution powers of discrete uniform distributions.

Everything in this module is computed with arbitrary-precision integers.
A distribution is stored as the tuple of integer numerators of its pmf over
the common denominator ``ell**n``, so normalization and symmetry can be
checked exactly and no value ever passes through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

from .errors import ParameterError, check_int

__all__ = [
    "LatticeParams",
    "ExactDensity",
    "power",
    "de_moivre_pmf",
    "concentration",
    "argmax_set",
    "moments",
    "pair_concentration",
]


@dataclass(frozen=True)
class LatticeParams:
    """Number of support points ``ell`` of the base uniform law and the
    convolution power ``n``.

    ``ell = 1`` is the degenerate point mass at zero and is accepted.
    """

    ell: int
    n: int

    def __post_init__(self):
        check_int("ell", self.ell, 1)
        check_int("n", self.n, 1)

    @property
    def support_size(self) -> int:
        return self.n * (self.ell - 1) + 1

    @property
    def top(self) -> int:
        """Largest point of the support {0, ..., n*(ell-1)}."""
        return self.n * (self.ell - 1)


@dataclass(frozen=True)
class ExactDensity:
    """Pmf of an n-fold sum of independent uniform draws on {0, ..., ell-1}.

    The probability at k is ``numerators[k] / ell**n``.
    Numerators are kept un-reduced so that the exact normalization
    ``sum(numerators) == ell**n`` is preserved.
    """

    params: LatticeParams
    numerators: tuple[int, ...]

    def __post_init__(self):
        if len(self.numerators) != self.params.support_size:
            raise ParameterError(
                f"expected {self.params.support_size} numerators, got {len(self.numerators)}"
            )

    @property
    def denominator(self) -> int:
        return self.params.ell**self.params.n

    def pmf(self, k: int) -> Fraction:
        """Probability at integer k, exact; zero outside the support."""
        if 0 <= k <= self.params.top:
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)


def power(params: LatticeParams) -> ExactDensity:
    """n-fold self-convolution of the uniform density, by a three-term
    recurrence in k.  ``P(x) = ((1-x**ell)/(1-x))**n`` solves
    ``(1-x)(1-x**ell) P' = n[(1-x**ell) - ell x**(ell-1)(1-x)] P``, so its
    coefficients, with a[0] = 1 and a[j] = 0 for j < 0, obey
    ``(k+1) a[k+1] = (k+n) a[k] + (k+1-ell-n*ell) a[k+1-ell]
    + (n*(ell-1)+ell-k) a[k-ell]``, the division being exact.  Each point
    costs O(1) big-integer steps; the lower half is computed and mirrored.
    """
    ell, n, top = params.ell, params.n, params.top
    a = [1]
    for k in range(top // 2):
        nxt = (k + n) * a[k]
        if k + 1 >= ell:
            nxt += (k + 1 - ell - n * ell) * a[k + 1 - ell]
        if k >= ell:
            nxt += (n * (ell - 1) + ell - k) * a[k - ell]
        a.append(nxt // (k + 1))
    return ExactDensity(params, tuple(a + a[: (top + 1) // 2][::-1]))


def de_moivre_pmf(params: LatticeParams, k: int) -> Fraction:
    """Pmf at k via de Moivre's alternating binomial sum.

    Evaluates (1/ell**n) * sum_{j=0}^{floor(k/ell)} (-1)^j C(n,j) C(n+k-ell*j-1, n-1)
    with exact integers.  The terms are exponentially larger than the result,
    so the cancellation must happen in integer arithmetic.  For k above the
    support the surviving terms cancel to an exact zero; for k < 0 the empty
    sum gives zero.

    Only the first term takes a ``comb``; each later one follows from the
    one before by its own ratio.  With ``m = n+k-ell*(j-1)-1`` and
    ``r = n-1``, the term ``t_j = C(n, j)*C(m-ell, r)`` is
    ``t_{j-1}*((n-j+1)*num) // (j*den)``, where ``num/den`` is
    ``C(m-ell, r)/C(m, r)``: ``perm(m-r, ell)/perm(m, ell)``, or equally
    ``perm(m-ell, r)/perm(m, r)``, whichever product is shorter.  The floor
    division is exact, because ``t_{j-1}*(n-j+1)*num == t_j*j*den`` and
    ``t_j`` is an integer.  Every ``perm`` argument is >= 0: the loop runs
    only while ``ell*j <= k``, so ``m-ell = n-1+k-ell*j >= r >= 0`` and
    ``m-r = k-ell*(j-1) >= ell``, and with ``m >= r+ell`` neither ``den`` is
    zero.
    """
    if k < 0:
        return Fraction(0)
    ell, n = params.ell, params.n
    r, m = n - 1, n + k - 1
    term = total = comb(m, r)
    # C(n, j) vanishes for j > n, so the sum is effectively capped at n.
    for j in range(1, min(k // ell, n) + 1):
        if ell <= r:
            num, den = perm(m - r, ell), perm(m, ell)
        else:
            num, den = perm(m - ell, r), perm(m, r)
        term = term * ((n - j + 1) * num) // (j * den)
        m -= ell
        total = total - term if (j & 1) else total + term
    return Fraction(total, ell**n)


def concentration(params: LatticeParams) -> Fraction:
    """Maximal single-point probability of the n-fold sum, exact.

    The pmf is unimodal and symmetric, so the maximum sits at the one or two
    central support points; the value at floor(n*(ell-1)/2) is returned.
    Tests verify it against the global maximum over the full support.
    """
    return de_moivre_pmf(params, params.top // 2)


def argmax_set(d: ExactDensity) -> set[int]:
    """All support points achieving the maximal probability, by exact
    comparison of numerators."""
    best = max(d.numerators)
    return {k for k, v in enumerate(d.numerators) if v == best}


def moments(d: ExactDensity) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of a density.

    For the n-fold uniform sum these equal n*(ell-1)/2 and n*(ell**2-1)/12.
    """
    denom = d.denominator
    s1 = sum(k * v for k, v in enumerate(d.numerators))
    s2 = sum(k * k * v for k, v in enumerate(d.numerators))
    mean = Fraction(s1, denom)
    var = Fraction(s2, denom) - mean * mean
    return mean, var


def pair_concentration(d: ExactDensity) -> Fraction:
    """Maximum probability of two adjacent points, max_k P({k, k+1}), exact.
    The pmf is symmetric about top/2 and unimodal (a convolution power of the
    log-concave uniform law is log-concave), so the central pair {c, c+1},
    c = floor(top/2), is the largest, and its two numerators are read."""
    nums, c = d.numerators, d.params.top // 2
    # a one-point support (ell = 1) has no pair; its one point is the maximum
    best = nums[c] + nums[c + 1] if len(nums) > 1 else nums[0]
    return Fraction(best, d.denominator)
