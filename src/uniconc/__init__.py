"""Exact convolution powers of discrete uniform distributions, their maximal
probabilities, and certified verdicts for the sharp concentration bounds."""

from .asymptotics import clt_ratio, local_clt_sup_dev
from .bounds import bessel_G
from .certify import (
    Dyadic,
    Interval,
    Outcome,
    RootBound,
    Verdict,
    evaluate,
    pi_enclosure,
    verdict_between,
)
from .errors import ConvergenceError, DomainError, ExpressionError, ParameterError
from .exactdist import (
    ExactDensity,
    LatticeParams,
    argmax_set,
    concentration,
    de_moivre_numerators,
    de_moivre_pmf,
    moments,
    pair_concentration,
    power,
)
from .spectral import (
    QuadratureResult,
    SplitParams,
    charfn_kernel,
    chebyshev_lemma_check,
    fourier_pmf,
    i1_majorant,
    i2_majorant,
    split_integrals,
    wallis_integral,
)
from .sweep import SweepCell, SweepConfig, SweepReport, SweepSummary, run_sweep

__version__ = "0.1.0"
