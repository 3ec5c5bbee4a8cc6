"""Characteristic-function side of the story: Fourier inversion by exact
finite sums.

With K(t) = sin(ell*t)/(ell*sin t) and top = n*(ell-1), the characteristic
function of the centred n-fold sum gives K(t)**n = sum_j p_j cos((2j-top)*t),
so p_k = (1/pi) * integral over [0, pi] of K(t)**n * cos((top-2k)*t).  That
integrand is a trigonometric polynomial in 2t of degree max(|k|, |top-k|),
and the N-point trapezoid rule over its period [0, pi] integrates it exactly
once N exceeds that degree.  Each value here is such a sum at two node
counts, both exact; their difference is float rounding alone and is
reported as the error estimate.  Certified claims never route through this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, ParameterError, check_int

__all__ = ["QuadratureResult", "fourier_pmf", "split_integrals"]

# a sum keeps a float per node, and the nodes grow with |k|: far outside the
# support, where the value is 0, a sum would take seconds, so it is refused.
# split_integrals takes a sum for each of its degree + 1 coefficients, so it
# is held to the same cap on coefficients times nodes
_MAX_NODES = 2**20


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float


def _check_tol(tol: float) -> None:
    # NaN fails every comparison, so `tol <= 0` would let it through to a
    # cross-check that can never pass
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"tol must be finite and positive, got {tol!r}")


def _angle(m: int, j: int, nodes: int) -> float:
    """m*pi*j/nodes reduced mod 2*pi in integers first: rounded as a float
    product, the angle would carry an error growing with m*j (1.5e-11 in
    the pmf at (3, 4, 10**6))."""
    return math.pi * (m * j % (2 * nodes)) / nodes


def _kernel_powers(ell: int, n: int, nodes: int) -> list[float]:
    """K(pi*j/nodes)**n for j < nodes.  Node 0 is K's only singular node,
    the removable 0/0 where K = 1."""
    return [1.0] + [
        (math.sin(_angle(ell, j, nodes)) / (ell * math.sin(_angle(1, j, nodes)))) ** n
        for j in range(1, nodes)
    ]


def _cosine_sum(samples: list[float], m: int) -> float:
    """The trapezoid rule (1/N) * sum_j samples[j] * cos(m*pi*j/N) over the
    N = len(samples) nodes of [0, pi]."""
    nodes = len(samples)
    return math.fsum(s * math.cos(_angle(m, j, nodes)) for j, s in enumerate(samples)) / nodes


def _cross_checked(values: tuple[float, float], nodes: int, tol: float) -> QuadratureResult:
    """The sum at ``nodes`` nodes, checked against the sum at ``nodes + 1``."""
    result = QuadratureResult(values[0], abs(values[1] - values[0]))
    if result.error_estimate > tol:
        raise ConvergenceError(
            f"the sums at {nodes} and {nodes + 1} nodes differ by more than tol={tol}", result
        )
    return result


def fourier_pmf(ell: int, n: int, k: int, tol: float = 1e-10) -> QuadratureResult:
    """Numeric pmf value at k by Fourier inversion of the characteristic
    function, error_estimate at most tol on success.  Any integer k is
    accepted; outside the support the sum is zero up to rounding."""
    check_int("ell", ell, 2)
    check_int("n", n, 1)
    _check_tol(tol)
    m = n * (ell - 1) - 2 * k
    # the integrand's degree in 2t, max(|k|, |top - k|), plus one
    nodes = (n * (ell - 1) + abs(m)) // 2 + 1
    if nodes + 1 > _MAX_NODES:
        raise ParameterError(f"k={k} at ell={ell}, n={n} needs {nodes + 1} nodes; cap {_MAX_NODES}")
    values = tuple(_cosine_sum(_kernel_powers(ell, n, N), m) for N in (nodes, nodes + 1))
    return _cross_checked(values, nodes, tol)


def _split(ell: int, n: int, alpha: int, degree: int, nodes: int) -> tuple[float, float]:
    """(inner, outer) from the cosine coefficients a_f of
    g(t) = K(t)**n * cos(alpha*t) = a_0 + sum_{1 <= f <= degree} a_f cos(2ft),
    each integrated in closed form over [0, pi/ell] and [pi/ell, pi/2]."""
    samples = _kernel_powers(ell, n, nodes)
    g = [s * math.cos(_angle(alpha, j, nodes)) for j, s in enumerate(samples)]
    a0 = _cosine_sum(g, 0)
    # (2/pi) * integral over [0, pi/ell] of a_f cos(2ft) = a_f sin(2 pi f/ell) / (pi f);
    # over the whole [0, pi/2] it is zero
    wave = math.fsum(
        2 * _cosine_sum(g, 2 * f) * math.sin(_angle(2 * f, 1, ell)) / f
        for f in range(1, degree + 1)
    ) / math.pi
    return 2 * a0 / ell + wave, (1 - 2 / ell) * a0 - wave


def split_integrals(
    ell: int, n: int, tol: float = 1e-10
) -> tuple[QuadratureResult, QuadratureResult]:
    """The inversion integral for the central point, split at t = pi/ell.

    Returns the inner part over [0, pi/ell] and the outer part over
    [pi/ell, pi/2]; their sum reproduces the maximal probability.  For
    ell = 2 the outer interval is empty and the second result is zero.
    The cosine frequency left after centering on the peak is the parity
    alpha = n*(ell-1) mod 2 of the support width.  A split whose cosine
    sums would take more than ``_MAX_NODES`` nodes in all is refused before
    sampling.
    """
    check_int("ell", ell, 2)
    check_int("n", n, 1)
    _check_tol(tol)
    alpha = n * (ell - 1) % 2
    degree = (n * (ell - 1) + alpha) // 2
    # g(t) * cos(2ft) has degree up to 2*degree in 2t
    nodes = 2 * degree + 1
    if (degree + 1) * (nodes + 1) > _MAX_NODES:
        raise ParameterError(
            f"ell={ell}, n={n} needs {degree + 1} cosine sums of {nodes + 1} nodes; "
            f"cap {_MAX_NODES} in all"
        )
    coarse, fine = (_split(ell, n, alpha, degree, N) for N in (nodes, nodes + 1))
    inner = _cross_checked((coarse[0], fine[0]), nodes, tol / 2)
    if ell == 2:
        return inner, QuadratureResult(0.0, 0.0)
    return inner, _cross_checked((coarse[1], fine[1]), nodes, tol / 2)
