"""Characteristic-function side of the story: numeric Fourier inversion.

The pmf of the n-fold uniform sum is recovered from its characteristic
function as (2/pi) * integral over [0, pi/2] of (sin(ell*t)/(ell*sin t))**n
times a cosine whose frequency is set by the target point.  The quadrature
here is a composite Gauss-Legendre rule with dyadic panel refinement; the
reported error is the difference between refinement levels, a heuristic.
Certified claims never route through this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError, check_int

__all__ = [
    "SplitParams",
    "QuadratureResult",
    "charfn_kernel",
    "fourier_pmf",
    "split_integrals",
    "i1_majorant",
    "i2_majorant",
    "wallis_integral",
    "chebyshev_lemma_check",
]

_GL_ORDER = 24
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

# Below this |t| the sine ratio is evaluated by its even series; above it the
# direct ratio is safe (no cancellation, only the removable 0/0 at t = 0).
_SERIES_CROSSOVER = 1e-4

_MAX_PANELS = 1 << 22


@dataclass(frozen=True)
class SplitParams:
    """Lattice size, power, and the parity offset of the central point.

    ``alpha`` is n*(ell-1) - 2*floor(n*(ell-1)/2), i.e. the parity of the
    support width, and is the cosine frequency left over after centering the
    inversion integral on the peak.
    """

    ell: int
    n: int
    alpha: int

    def __post_init__(self):
        check_int("ell", self.ell, 2)
        check_int("n", self.n, 1)
        expected = self.n * (self.ell - 1) % 2
        if self.alpha != expected:
            raise ParameterError(
                f"alpha must be {expected} for ell={self.ell}, n={self.n}, got {self.alpha}"
            )

    @staticmethod
    def for_lattice(ell: int, n: int) -> "SplitParams":
        return SplitParams(ell, n, (n * (ell - 1)) % 2)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions: int


def _kernel_array(ell: int, t: np.ndarray) -> np.ndarray:
    """sin(ell*t)/(ell*sin t) vectorized, series near t = 0."""
    t = np.asarray(t, dtype=np.float64)
    small = np.abs(t) < _SERIES_CROSSOVER
    t_safe = np.where(small, 1.0, t)
    direct = np.sin(ell * t_safe) / (ell * np.sin(t_safe))
    u = t * t
    c2 = (ell * ell - 1) / 6.0
    c4 = (ell * ell - 1) ** 2 / 72.0 - (ell**4 - 1) / 180.0
    series = 1.0 - c2 * u + c4 * u * u
    return np.where(small, series, direct)


def charfn_kernel(ell: int, t: float) -> float:
    """The normalized Dirichlet-type ratio sin(ell*t)/(ell*sin t) on [0, pi/2].

    The removable singularity at t = 0 evaluates to 1.
    """
    check_int("ell", ell, 1)
    if not 0.0 <= t <= math.pi / 2:
        raise DomainError(f"t must lie in [0, pi/2], got {t}")
    return float(_kernel_array(ell, np.array([t]))[0])


def _composite_gl(f, a: float, b: float, panels: int) -> float:
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    y = f(x)
    return float(np.sum(y * _GL_WEIGHTS[None, :] * half[:, None]))


def _refine(f, a: float, b: float, tol: float, min_panels: int) -> QuadratureResult:
    """Double the panel count until two refinement levels agree within tol."""
    panels = max(1, min_panels)
    coarse = _composite_gl(f, a, b, panels)
    while True:
        panels *= 2
        fine = _composite_gl(f, a, b, panels)
        diff = abs(fine - coarse)
        if diff <= tol:
            return QuadratureResult(fine, diff, panels)
        if panels >= _MAX_PANELS:
            raise ConvergenceError(
                f"quadrature did not reach tol={tol} within {panels} panels",
                QuadratureResult(fine, diff, panels),
            )
        coarse = fine


def _inversion_panels(ell: int, n: int, freq: float, a: float, b: float) -> int:
    length = b - a
    per_period = math.ceil(8 * abs(freq) * length / (2 * math.pi))
    # the kernel power concentrates on a scale ~ 1/(ell*sqrt(n)); keep a few
    # panels across that peak so the first refinement check is meaningful
    peak = math.ceil(length * ell * math.sqrt(n) / 2)
    return max(4, per_period, peak)


def fourier_pmf(ell: int, n: int, k: int, tol: float = 1e-10) -> QuadratureResult:
    """Numeric pmf value at k by Fourier inversion of the characteristic
    function, error_estimate at most tol on success."""
    check_int("ell", ell, 2)
    check_int("n", n, 1)
    if tol <= 0:
        raise ParameterError("tol must be positive")
    freq = n * (ell - 1) - 2 * k

    def integrand(t):
        return (2 / math.pi) * _kernel_array(ell, t) ** n * np.cos(freq * t)

    b = math.pi / 2
    return _refine(integrand, 0.0, b, tol, _inversion_panels(ell, n, freq, 0.0, b))


def split_integrals(
    params: SplitParams, tol: float = 1e-10
) -> tuple[QuadratureResult, QuadratureResult]:
    """The inversion integral for the central point, split at t = pi/ell.

    Returns the inner part over [0, pi/ell] and the outer part over
    [pi/ell, pi/2]; their sum reproduces the maximal probability.  For
    ell = 2 the outer interval is empty and the second result is zero.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    ell, n, alpha = params.ell, params.n, params.alpha

    def integrand(t):
        return (2 / math.pi) * _kernel_array(ell, t) ** n * np.cos(alpha * t)

    cut = math.pi / ell
    inner = _refine(integrand, 0.0, cut, tol / 2, _inversion_panels(ell, n, alpha, 0.0, cut))
    if ell == 2:
        return inner, QuadratureResult(0.0, 0.0, 0)
    b = math.pi / 2
    # over the outer range the sine ratio itself oscillates with frequency ell
    outer_panels = max(4, 2 * ell, _inversion_panels(ell, n, alpha, cut, b))
    outer = _refine(integrand, cut, b, tol / 2, outer_panels)
    return inner, outer


def i1_majorant(ell: int, n: int) -> float:
    """Proved upper bound for the rescaled inner integral:
    1 - 3/(20n) + 21/(160n**2)."""
    check_int("ell", ell, 2)
    check_int("n", n, 1)
    return 1.0 - 3.0 / (20.0 * n) + 21.0 / (160.0 * n * n)


def i2_majorant(ell: int, n: int) -> float:
    """Proved upper bound for the outer integral: zero for odd n, and
    sqrt(2/(pi*n)) / (ell*(n-1)*2**(n-1)) for even n."""
    check_int("ell", ell, 2)
    check_int("n", n, 1)
    if n % 2 == 1:
        return 0.0
    return math.sqrt(2.0 / (math.pi * n)) / (ell * (n - 1) * 2.0 ** (n - 1))


def wallis_integral(lam: float, tol: float = 1e-9) -> QuadratureResult:
    """Numeric integral of sin(t)**lam over [0, pi/2] for lam > 0."""
    if lam <= 0:
        raise ParameterError(f"lambda must be positive, got {lam}")
    if tol <= 0:
        raise ParameterError("tol must be positive")

    def integrand(t):
        return np.sin(t) ** lam

    return _refine(integrand, 0.0, math.pi / 2, tol, 8)


def chebyshev_lemma_check(f, g, a: float, tol: float = 1e-8) -> bool:
    """Numeric check of the product-integral inequality
    int f*g <= (1/2a) * int f * int g over [-a, a].

    The caller guarantees f even and decreasing on [0, a] and g convex; under
    a hypothesis violation a False return is legitimate.  Both sides are
    evaluated by quadrature and compared with slack tol.
    """
    if a <= 0:
        raise ParameterError(f"a must be positive, got {a}")

    def fg(x):
        return np.asarray(f(x)) * np.asarray(g(x))

    lhs = _refine(fg, -a, a, tol / 4, 8).value
    int_f = _refine(lambda x: np.asarray(f(x)), -a, a, tol / 4, 8).value
    int_g = _refine(lambda x: np.asarray(g(x)), -a, a, tol / 4, 8).value
    rhs = int_f * int_g / (2 * a)
    return lhs <= rhs + tol
