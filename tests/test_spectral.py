"""Quadrature oracle, inversion-integral split, and the integral lemmas."""

import math

import numpy as np
import pytest

import uniconc.spectral as spectral
from uniconc.errors import ConvergenceError, DomainError, ParameterError
from uniconc.exactdist import LatticeParams, concentration, power
from uniconc.spectral import (
    QuadratureResult,
    charfn_kernel,
    chebyshev_lemma_check,
    fourier_pmf,
    i1_majorant,
    i2_majorant,
    split_integrals,
    wallis_integral,
)


class TestSplitParams:
    def test_alpha_is_support_parity(self):
        # the wrong cosine frequency would miss the peak on both lattices
        inner, outer = split_integrals(3, 3, 1e-11)  # 3*2 even: alpha = 0
        assert inner.value + outer.value == pytest.approx(7 / 27, abs=1e-10)
        inner, outer = split_integrals(2, 3, 1e-11)  # 3*1 odd: alpha = 1
        assert inner.value + outer.value == pytest.approx(3 / 8, abs=1e-10)

    def test_bad_lattice(self):
        with pytest.raises(ParameterError):
            split_integrals(1, 3)


class TestKernel:
    def test_removable_singularity(self):
        assert charfn_kernel(3, 0.0) == 1.0

    def test_zero_of_numerator(self):
        assert abs(charfn_kernel(2, math.pi / 2)) < 1e-15

    def test_quarter_pi(self):
        assert charfn_kernel(2, math.pi / 4) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_point_mass_kernel_is_one(self):
        assert charfn_kernel(1, 0.7) == pytest.approx(1.0, abs=1e-15)

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            charfn_kernel(3, -0.1)
        with pytest.raises(DomainError):
            charfn_kernel(3, 2.0)

    def test_series_matches_direct_ratio_below_crossover(self):
        eps = spectral._SERIES_CROSSOVER
        for ell in (2, 5, 20, 50):
            for t in (eps * 0.999, eps * 0.5, eps * 0.01):
                series = charfn_kernel(ell, t)
                direct = math.sin(ell * t) / (ell * math.sin(t))
                assert series == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_bounded_by_one(self, ell):
        t = np.linspace(0.0, math.pi / 2, 4001)
        vals = spectral._kernel_array(ell, t)
        assert np.all(np.abs(vals) <= 1.0 + 1e-14)


class TestFourierPmf:
    def test_center_of_two_square(self):
        r = fourier_pmf(2, 2, 1, 1e-11)
        assert r.value == pytest.approx(0.5, abs=1e-10)
        assert r.error_estimate <= 1e-11

    def test_three_cubed_center(self):
        r = fourier_pmf(3, 3, 3, 1e-11)
        assert r.value == pytest.approx(7 / 27, abs=1e-10)

    def test_outside_support(self):
        r = fourier_pmf(2, 1, 5, 1e-11)
        assert abs(r.value) <= 1e-10

    @pytest.mark.parametrize("ell,n", [(2, 6), (3, 5), (5, 3)])
    def test_whole_support_against_exact(self, ell, n):
        d = power(LatticeParams(ell, n))
        for k in range(d.params.top + 1):
            r = fourier_pmf(ell, n, k, 1e-11)
            assert abs(r.value - float(d.pmf(k))) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            fourier_pmf(1, 2, 0)
        with pytest.raises(ParameterError):
            fourier_pmf(2, 2, 0, tol=-1.0)
        with pytest.raises(ParameterError):
            fourier_pmf(3.0, 2, 0)


class TestSplitIntegrals:
    def test_two_square_sum(self):
        inner, outer = split_integrals(2, 2, 1e-11)
        assert outer.value == 0.0  # split point coincides with the endpoint
        assert inner.value == pytest.approx(0.5, abs=1e-10)

    def test_three_cubed(self):
        inner, outer = split_integrals(3, 3, 1e-11)
        assert inner.value + outer.value == pytest.approx(7 / 27, abs=1e-10)
        assert outer.value <= 1e-10  # odd power: the outer part is not positive

    def test_degenerate_outer_interval(self):
        _, outer = split_integrals(2, 1, 1e-11)
        assert outer == QuadratureResult(0.0, 0.0, 0)

    @pytest.mark.parametrize("ell", [3, 5, 8])
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_reproduces_concentration(self, ell, n):
        inner, outer = split_integrals(ell, n, 1e-11)
        exact = float(concentration(LatticeParams(ell, n)))
        assert inner.value + outer.value == pytest.approx(exact, abs=1e-10)


class TestMajorants:
    def test_inner_values(self):
        assert i1_majorant(2, 1) == pytest.approx(0.98125, abs=1e-15)
        assert i1_majorant(5, 2) == pytest.approx(0.9578125, abs=1e-15)
        assert abs(i1_majorant(2, 10**6) - 1.0) < 1e-6

    def test_outer_values(self):
        assert i2_majorant(2, 3) == 0.0
        assert i2_majorant(2, 2) == pytest.approx(0.14104739588693907, abs=1e-15)
        assert i2_majorant(3, 4) == pytest.approx(0.005540865005575454, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ParameterError):
            i1_majorant(1, 1)
        with pytest.raises(ParameterError):
            i2_majorant(2, 0)
        with pytest.raises(ParameterError):
            i1_majorant(2, True)

    @pytest.mark.parametrize("ell", range(2, 9))
    def test_proof_chain_majorizes_split(self, ell):
        # numeric check, tolerance 1e-9, over all powers up to 30:
        # the rescaled inner integral stays below its closed-form majorant
        # and the outer integral below its own
        for n in range(1, 31):
            inner, outer = split_integrals(ell, n, 1e-11)
            scale = math.sqrt(math.pi * (ell * ell - 1) * n / 6)
            assert scale * inner.value <= i1_majorant(ell, n) + 1e-9
            assert outer.value <= i2_majorant(ell, n) + 1e-9
            if n % 2 == 1:
                assert outer.value <= 1e-10


class TestWallisIntegral:
    def test_exact_antiderivatives(self):
        assert wallis_integral(2, 1e-10).value == pytest.approx(math.pi / 4, abs=1e-9)
        assert wallis_integral(1, 1e-10).value == pytest.approx(1.0, abs=1e-9)
        assert wallis_integral(4, 1e-10).value == pytest.approx(3 * math.pi / 16, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 3.7, 10.0, 100.0])
    def test_gaussian_tail_bound(self, lam):
        tol = 1e-6 if lam < 1 else 1e-9
        r = wallis_integral(lam, tol)
        assert r.error_estimate <= tol
        assert r.value < math.sqrt(math.pi / (2 * lam))

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ParameterError):
            wallis_integral(0.0)


class TestChebyshevLemma:
    def test_constant_weight_gives_equality(self):
        assert chebyshev_lemma_check(lambda x: np.ones_like(x), lambda x: x**2, 1.0, 1e-8)

    def test_tent_weight(self):
        # int f*g = 1/6 strictly below (1/2a) int f int g = 1/3
        assert chebyshev_lemma_check(lambda x: 1 - np.abs(x), lambda x: x**2, 1.0, 1e-8)

    def test_gaussian_weight_exponential(self):
        assert chebyshev_lemma_check(
            lambda x: np.exp(-(x**2)), lambda x: np.exp(x), 2.0, 1e-8
        )

    def test_violated_hypothesis_can_fail(self):
        # f = x**2 is even but increasing on [0, a]; the inequality flips
        assert not chebyshev_lemma_check(lambda x: x**2, lambda x: x**2, 1.0, 1e-8)

    def test_rejects_bad_interval(self):
        with pytest.raises(ParameterError):
            chebyshev_lemma_check(lambda x: x, lambda x: x, 0.0)


class TestConvergenceBudget:
    def test_error_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_PANELS", 16)
        with pytest.raises(ConvergenceError) as info:
            wallis_integral(0.5, 1e-13)
        best = info.value.best
        assert isinstance(best, QuadratureResult)
        assert best.value == pytest.approx(1.1981402347355923, rel=1e-3)


class TestToleranceCheck:
    """NaN passes ``tol <= 0``; every quadrature entry point must reject it,
    and infinities and zero, before any refinement starts."""

    @pytest.fixture(autouse=True)
    def no_refine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_refine started")

        monkeypatch.setattr(spectral, "_refine", refuse)

    CALLS = {
        "fourier_pmf": lambda tol: fourier_pmf(3, 4, 4, tol),
        "split_integrals": lambda tol: split_integrals(3, 4, tol),
        "wallis_integral": lambda tol: wallis_integral(0.5, tol),
        "chebyshev_lemma_check": lambda tol: chebyshev_lemma_check(
            lambda x: np.ones_like(x), lambda x: x**2, 1.0, tol
        ),
    }

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejects_non_finite_or_non_positive(self, name, tol):
        with pytest.raises(ParameterError):
            self.CALLS[name](tol)

    def test_rejects_nan_exponent_and_interval(self):
        with pytest.raises(ParameterError):
            wallis_integral(math.nan)
        with pytest.raises(ParameterError):
            chebyshev_lemma_check(lambda x: x, lambda x: x, math.nan)
