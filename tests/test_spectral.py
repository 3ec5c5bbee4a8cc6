"""Fourier-inversion oracle, inversion-integral split, and the integral lemmas.

The lemmas of the paper's proof (the Wallis integral, the Chebyshev product
inequality and the closed-form majorants of both parts of the split) are
stated here by test-local helpers over ``mpmath.quad``; the package computes
only the two inversion sums."""

import math
from collections import namedtuple

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uniconc.spectral as spectral
from uniconc.errors import ConvergenceError, ParameterError, check_int
from uniconc.exactdist import LatticeParams, concentration, power
from uniconc.spectral import QuadratureResult, fourier_pmf, split_integrals

Integral = namedtuple("Integral", "value error_estimate")


def wallis_integral(lam, tol=1e-9):
    """Integral of sin(t)**lam over [0, pi/2] for lam > 0."""
    if not lam > 0:  # NaN too
        raise ParameterError(f"lambda must be positive, got {lam}")
    spectral._check_tol(tol)
    value, error = mpmath.quad(lambda t: mpmath.sin(t) ** lam, [0, mpmath.pi / 2], error=True)
    return Integral(float(value), float(error))


def chebyshev_lemma_check(f, g, a, tol=1e-8):
    """The product-integral inequality int f*g <= (1/2a) * int f * int g
    over [-a, a], compared with slack tol.

    It holds for f even and decreasing on [0, a] and g convex; under a
    violated hypothesis False is a legitimate answer.
    """
    if not a > 0:  # NaN too
        raise ParameterError(f"a must be positive, got {a}")
    spectral._check_tol(tol)

    def integral(h):
        return mpmath.quad(h, [-a, 0, a])  # a node at 0, where f may have a kink

    return integral(lambda x: f(x) * g(x)) <= integral(f) * integral(g) / (2 * a) + tol


def i1_majorant(ell, n):
    """The proof's bound for the rescaled inner integral:
    1 - 3/(20n) + 21/(160n**2)."""
    check_int("ell", ell, 2)
    check_int("n", n, 1)
    return 1.0 - 3.0 / (20.0 * n) + 21.0 / (160.0 * n * n)


def i2_majorant(ell, n):
    """The proof's bound for the outer integral: zero for odd n, and
    sqrt(2/(pi*n)) / (ell*(n-1)*2**(n-1)) for even n."""
    check_int("ell", ell, 2)
    check_int("n", n, 1)
    if n % 2 == 1:
        return 0.0
    return math.sqrt(2.0 / (math.pi * n)) / (ell * (n - 1) * 2.0 ** (n - 1))


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
    """The samples K(pi*j/N)**n, K(t) = sin(ell*t)/(ell*sin t), behind every sum."""

    def test_removable_singularity(self):
        assert spectral._kernel_powers(3, 1, 8)[0] == 1.0

    def test_zero_of_numerator(self):
        assert abs(spectral._kernel_powers(2, 1, 2)[1]) < 1e-15  # t = pi/2

    def test_quarter_pi(self):
        assert spectral._kernel_powers(2, 1, 4)[1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_point_mass_kernel_is_one(self):
        assert spectral._kernel_powers(1, 1, 9) == pytest.approx([1.0] * 9, abs=1e-15)

    @pytest.mark.parametrize("ell", range(2, 21))
    def test_bounded_by_one(self, ell):
        vals = spectral._kernel_powers(ell, 1, 4001)
        assert all(abs(v) <= 1.0 + 1e-14 for v in vals)


class TestFourierPmf:
    def test_center_of_two_square(self):
        r = fourier_pmf(2, 2, 1, 1e-11)
        assert r.value == pytest.approx(0.5, abs=1e-10)
        assert r.error_estimate <= 1e-11

    def test_three_cubed_center(self):
        r = fourier_pmf(3, 3, 3, 1e-11)
        assert r.value == pytest.approx(7 / 27, abs=1e-10)

    def test_outside_support(self):
        # with top + 1 nodes for every k these alias to 0.5, 0.111, 0.333
        # and 0.024: the nodes must exceed max(|k|, |top - k|)
        for ell, n, k in [(2, 1, 5), (3, 2, 9), (3, 2, -3), (5, 3, 40), (3, 4, -1), (3, 4, -60),
                          (2, 3, 200)]:
            r = fourier_pmf(ell, n, k, 1e-11)
            assert abs(r.value) <= 1e-10, (ell, n, k)
        # far out, m*j reaches 4e10; only angles reduced in integers keep
        # the sum at rounding level (1e-12 unreduced)
        assert abs(fourier_pmf(3, 4, 10**5).value) <= 1e-14

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


@st.composite
def lattice_points(draw):
    """(ell, n, k) with ell 2..12, n 1..40 and k up to 2*top past either end
    of the support."""
    ell = draw(st.integers(2, 12))
    n = draw(st.integers(1, 40))
    top = n * (ell - 1)
    return ell, n, draw(st.integers(-2 * top - 3, 3 * top + 3))


lattices = st.tuples(st.integers(2, 12), st.integers(1, 40))


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(lattice_points())
    @example((2, 1, 5))
    @example((3, 2, -3))
    @example((12, 40, 220))
    def test_pmf_matches_exact(self, point):
        ell, n, k = point
        exact = float(power(LatticeParams(ell, n)).pmf(k))
        assert abs(fourier_pmf(ell, n, k).value - exact) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(lattices)
    @example((12, 40))
    def test_pmf_sums_to_one(self, lattice):
        ell, n = lattice
        total = math.fsum(fourier_pmf(ell, n, k).value for k in range(n * (ell - 1) + 1))
        assert abs(total - 1.0) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(lattices)
    @example((12, 40))
    @example((2, 1))
    def test_split_reproduces_concentration(self, lattice):
        ell, n = lattice
        inner, outer = split_integrals(ell, n)
        assert abs(inner.value + outer.value - float(concentration(LatticeParams(ell, n)))) <= 1e-12
        if n % 2 == 1:
            assert outer.value <= 1e-12


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
        assert chebyshev_lemma_check(lambda x: 1, lambda x: x**2, 1.0, 1e-8)

    def test_tent_weight(self):
        # int f*g = 1/6 strictly below (1/2a) int f int g = 1/3
        assert chebyshev_lemma_check(lambda x: 1 - abs(x), lambda x: x**2, 1.0, 1e-8)

    def test_gaussian_weight_exponential(self):
        assert chebyshev_lemma_check(lambda x: mpmath.exp(-(x**2)), mpmath.exp, 2.0, 1e-8)

    def test_violated_hypothesis_can_fail(self):
        # f = x**2 is even but increasing on [0, a]; the inequality flips
        assert not chebyshev_lemma_check(lambda x: x**2, lambda x: x**2, 1.0, 1e-8)

    def test_rejects_bad_interval(self):
        with pytest.raises(ParameterError):
            chebyshev_lemma_check(lambda x: x, lambda x: x, 0.0)


class TestConvergenceBudget:
    def test_error_carries_best_estimate(self):
        # at the centre of (3, 1503) the two exact sums differ by rounding
        # of about 1e-13, far above this tol
        with pytest.raises(ConvergenceError) as info:
            fourier_pmf(3, 1503, 1503, 1e-17)
        best = info.value.best
        assert isinstance(best, QuadratureResult)
        assert best.error_estimate > 1e-17
        assert best.value == pytest.approx(float(concentration(LatticeParams(3, 1503))), abs=1e-11)


class TestToleranceCheck:
    """NaN passes ``tol <= 0``; every entry point that takes a tolerance,
    the package's sums and the tests' reference integrals alike, must reject
    it, and infinities and zero, before any sampling starts."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(spectral, "_kernel_powers", refuse)

    CALLS = {
        "fourier_pmf": lambda tol: fourier_pmf(3, 4, 4, tol),
        "split_integrals": lambda tol: split_integrals(3, 4, tol),
        "wallis_integral": lambda tol: wallis_integral(0.5, tol),
        "chebyshev_lemma_check": lambda tol: chebyshev_lemma_check(
            lambda x: 1, lambda x: x**2, 1.0, tol
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


class TestNodeCap:
    """A sum takes max(|k|, |top - k|) + 2 nodes at most; past _MAX_NODES it
    is refused before any sampling starts, naming k and the cap."""

    CAP = spectral._MAX_NODES

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(spectral, "_kernel_powers", refuse)

    @pytest.mark.parametrize("k", [10**7, CAP - 1, 9 - CAP])
    def test_refused_past_the_cap(self, k):
        with pytest.raises(ParameterError, match=rf"^k={k} at ell=3, n=4 .*cap {self.CAP}$"):
            fourier_pmf(3, 4, k)

    @pytest.mark.parametrize("k", [10**5, CAP - 2, 10 - CAP])
    def test_sampled_up_to_the_cap(self, k):
        # at (3, 4), top = 8: k = CAP - 2 and 10 - CAP take CAP - 1 and CAP
        # nodes, the most a sum may take
        with pytest.raises(AssertionError, match="sampling started"):
            fourier_pmf(3, 4, k)

    # split_integrals takes degree + 1 sums of up to nodes + 1 = 2*degree + 3
    # nodes, degree = ceil(top / 2): degree 723 is the last under the cap
    @pytest.mark.parametrize("ell, n", [(2, 1447), (3, 724)])
    def test_split_refused_past_the_cap(self, ell, n):
        with pytest.raises(ParameterError, match=rf"^ell={ell}, n={n} .*cap {self.CAP} in all$"):
            split_integrals(ell, n)

    @pytest.mark.parametrize("ell, n", [(2, 1446), (3, 723)])
    def test_split_sampled_up_to_the_cap(self, ell, n):
        with pytest.raises(AssertionError, match="sampling started"):
            split_integrals(ell, n)
