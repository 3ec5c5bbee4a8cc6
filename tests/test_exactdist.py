"""Exact-distribution layer: frozen examples, exhaustive small-grid
invariants and property tests of the three-term recurrence in k behind
``power`` (against a direct fold and against de Moivre's single-point sum,
up to ell = 60 and n = 400, and over the whole support as the
``pmf --method demoivre`` listing) and of de Moivre's stepped sum."""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniconc import exactdist
from uniconc.cli import main
from uniconc.errors import ParameterError
from uniconc.exactdist import (
    ExactDensity,
    LatticeParams,
    argmax_set,
    concentration,
    de_moivre_pmf,
    moments,
    pair_concentration,
    power,
)


def naive_power(ell: int, n: int) -> tuple[int, ...]:
    """Independent oracle: numerators of the n-fold sum, folding in one
    uniform factor at a time by a direct Cauchy product."""
    nums = [1]
    for _ in range(n):
        out = [0] * (len(nums) + ell - 1)
        for i, v in enumerate(nums):
            for j in range(ell):
                out[i + j] += v
        nums = out
    return tuple(nums)


def closed_form_two(ell: int, k: int) -> Fraction:
    """Triangular pmf of the two-fold sum: (ell - |ell-1-k|) / ell**2."""
    if 0 <= k <= 2 * (ell - 1):
        return Fraction(ell - abs(ell - 1 - k), ell * ell)
    return Fraction(0)


class TestUniformDensity:
    """The first power is the uniform density itself."""

    def test_two_point(self):
        d = power(LatticeParams(2, 1))
        assert d.numerators == (1, 1)
        assert d.denominator == 2

    def test_three_point(self):
        d = power(LatticeParams(3, 1))
        assert d.numerators == (1, 1, 1)
        assert d.denominator == 3

    def test_point_mass(self):
        d = power(LatticeParams(1, 1))
        assert d.numerators == (1,)
        assert d.denominator == 1

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ParameterError):
            power(LatticeParams(bad, 1))


class TestConvolve:
    """The second power is the self-convolution of the uniform density."""

    def test_square_of_two(self):
        d = power(LatticeParams(2, 2))
        assert d.numerators == (1, 2, 1)
        assert d.denominator == 4

    def test_square_of_three(self):
        d = power(LatticeParams(3, 2))
        assert d.numerators == (1, 2, 3, 2, 1)
        assert d.denominator == 9

    def test_point_mass_is_identity(self):
        # the point mass at zero convolved with itself stays the point mass
        d = power(LatticeParams(1, 2))
        assert d.numerators == (1,)
        assert d.denominator == 1


class TestPower:
    def test_binomial_four(self):
        assert power(LatticeParams(2, 4)).numerators == (1, 4, 6, 4, 1)

    def test_three_cubed(self):
        assert power(LatticeParams(3, 3)).numerators == (1, 3, 6, 7, 6, 3, 1)

    def test_power_one_is_uniform(self):
        assert power(LatticeParams(5, 1)).numerators == (1, 1, 1, 1, 1)

    @pytest.mark.parametrize("ell", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12])
    def test_matches_naive_convolution_oracle(self, ell, n):
        params = LatticeParams(ell, n)
        d = power(params)
        assert d.numerators == naive_power(ell, n)
        assert d.params == params
        assert d.denominator == ell**n

    @pytest.mark.parametrize("ell", range(2, 9))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_normalization_and_symmetry(self, ell, n):
        d = power(LatticeParams(ell, n))
        assert sum(d.numerators) == ell**n
        assert d.numerators == d.numerators[::-1]
        assert all(v >= 0 for v in d.numerators)
        assert len(d.numerators) == n * (ell - 1) + 1


class TestDeMoivre:
    def test_cross_check_triangular(self):
        assert de_moivre_pmf(LatticeParams(6, 2), 7) == Fraction(1, 9)
        assert de_moivre_pmf(LatticeParams(6, 2), 7) == closed_form_two(6, 7)

    def test_matches_power_numerator(self):
        assert de_moivre_pmf(LatticeParams(2, 4), 2) == Fraction(3, 8)

    def test_outside_support_cancels_to_zero(self):
        assert de_moivre_pmf(LatticeParams(3, 1), 5) == 0

    def test_negative_k_is_zero(self):
        assert de_moivre_pmf(LatticeParams(4, 3), -2) == 0

    @pytest.mark.parametrize("ell", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_oracle_equivalence_small_grid(self, ell, n):
        params = LatticeParams(ell, n)
        d = power(params)
        for k in range(params.top + 1):
            assert de_moivre_pmf(params, k) == Fraction(d.numerators[k], d.denominator)
        # beyond the support the alternating sum must cancel exactly
        for k in (params.top + 1, params.top + 5):
            assert de_moivre_pmf(params, k) == 0

    def test_numerators_are_plain_ints(self):
        nums = power(LatticeParams(3, 2)).numerators
        assert nums == (1, 2, 3, 2, 1)
        assert all(type(v) is int for v in nums)

    def test_large_point_matches_power(self):
        # (10, 2977) is a centre the large_n benchmark draws
        for ell, n in [(10, 400), (10, 2977)]:
            params = LatticeParams(ell, n)
            d = power(params)
            assert concentration(params) == Fraction(d.numerators[params.top // 2], d.denominator)

    def test_one_comb_per_point(self, monkeypatch):
        calls = []

        def counting_comb(a, b):
            calls.append((a, b))
            return comb(a, b)

        monkeypatch.setattr(exactdist, "comb", counting_comb)
        for ell, n in [(2, 30), (3, 20), (10, 40)]:
            params = LatticeParams(ell, n)
            calls.clear()
            concentration(params)
            assert len(calls) <= 1, (ell, n, calls)
            for k in (-1, 0, params.top // 3, params.top, params.top + 1):
                calls.clear()
                de_moivre_pmf(params, k)
                assert len(calls) <= 1, (ell, n, k, calls)

    @pytest.mark.parametrize("ell", range(2, 51))
    def test_closed_forms_single_and_double(self, ell):
        one = power(LatticeParams(ell, 1))
        for k in range(ell):
            assert one.pmf(k) == Fraction(1, ell)
        two = power(LatticeParams(ell, 2))
        for k in range(2 * ell - 1):
            assert two.pmf(k) == closed_form_two(ell, k)


class TestConcentration:
    @pytest.mark.parametrize(
        "ell,n,expected",
        [(3, 2, Fraction(1, 3)), (2, 3, Fraction(3, 8)), (3, 3, Fraction(7, 27))],
    )
    def test_values(self, ell, n, expected):
        assert concentration(LatticeParams(ell, n)) == expected

    @pytest.mark.parametrize("ell", range(2, 9))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_center_equals_global_max(self, ell, n):
        params = LatticeParams(ell, n)
        d = power(params)
        assert concentration(params) == Fraction(max(d.numerators), d.denominator)

    @pytest.mark.parametrize("ell", [2, 3, 10, 41])
    def test_first_two_powers(self, ell):
        assert concentration(LatticeParams(ell, 1)) == Fraction(1, ell)
        assert concentration(LatticeParams(ell, 2)) == Fraction(1, ell)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 25])
    def test_binomial_pairing(self, k):
        central = Fraction(comb(2 * k, k), 4**k)
        assert concentration(LatticeParams(2, 2 * k - 1)) == central
        assert concentration(LatticeParams(2, 2 * k)) == central


class TestArgmax:
    def test_two_central_points(self):
        assert argmax_set(power(LatticeParams(2, 3))) == {1, 2}

    def test_single_center(self):
        assert argmax_set(power(LatticeParams(3, 2))) == {2}

    def test_flat_pmf(self):
        assert argmax_set(power(LatticeParams(4, 1))) == {0, 1, 2, 3}

    @pytest.mark.parametrize("ell", range(2, 9))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_central_points_maximal(self, ell, n):
        params = LatticeParams(ell, n)
        peak = argmax_set(power(params))
        central = {params.top // 2, (params.top + 1) // 2}
        if n == 1:
            # flat pmf: every point is maximal, the center among them
            assert central <= peak
        else:
            assert peak == central


class TestMoments:
    def test_triangular(self):
        mean, var = moments(power(LatticeParams(3, 2)))
        assert mean == 2
        assert var == Fraction(4, 3)

    def test_single_uniform(self):
        mean, var = moments(power(LatticeParams(2, 1)))
        assert mean == Fraction(1, 2)
        assert var == Fraction(1, 4)

    def test_point_mass(self):
        mean, var = moments(power(LatticeParams(1, 7)))
        assert mean == 0
        assert var == 0

    @pytest.mark.parametrize("ell", [2, 4, 7, 10])
    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    def test_identities(self, ell, n):
        mean, var = moments(power(LatticeParams(ell, n)))
        assert mean == Fraction(n * (ell - 1), 2)
        assert var == Fraction(n * (ell * ell - 1), 12)


class TestPairConcentration:
    @pytest.mark.parametrize(
        "ell,n,expected",
        [(3, 1, Fraction(2, 3)), (3, 2, Fraction(5, 9)), (2, 2, Fraction(3, 4))],
    )
    def test_values(self, ell, n, expected):
        assert pair_concentration(power(LatticeParams(ell, n))) == expected

    def test_point_mass(self):
        assert pair_concentration(power(LatticeParams(1, 3))) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exhaustive_scan_matches(self, n):
        params = LatticeParams(3, n)
        d = power(params)
        pairs = [d.pmf(k) + d.pmf(k + 1) for k in range(-1, params.top + 1)]
        assert pair_concentration(d) == max(pairs)


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ParameterError):
            LatticeParams(2, 0)
        with pytest.raises(ParameterError):
            LatticeParams(-1, 4)

    def test_rejects_bools(self):
        # bool is an int subclass, so True would otherwise pass as 1
        with pytest.raises(ParameterError):
            LatticeParams(True, 3)
        with pytest.raises(ParameterError):
            LatticeParams(2, True)
        with pytest.raises(ParameterError):
            LatticeParams(False, 3)

    def test_density_length_checked(self):
        with pytest.raises(ParameterError):
            ExactDensity(LatticeParams(2, 2), (1, 2))


lattices = st.builds(
    LatticeParams, ell=st.integers(min_value=1, max_value=12), n=st.integers(min_value=1, max_value=40)
)


class TestPowerProperties:
    @settings(max_examples=50, deadline=None)
    @given(lattices)
    def test_matches_fold(self, params):
        assert power(params).numerators == naive_power(params.ell, params.n)

    @settings(max_examples=60, deadline=None)
    @given(lattices, st.data())
    def test_matches_de_moivre(self, params, data):
        d = power(params)
        ks = data.draw(
            st.lists(st.integers(min_value=-3, max_value=params.top + 3), min_size=1, max_size=8)
        )
        for k in ks + [params.top // 2]:
            assert de_moivre_pmf(params, k) == d.pmf(k)

    @settings(max_examples=40, deadline=None)
    @given(
        st.builds(
            LatticeParams,
            ell=st.integers(min_value=1, max_value=60),
            n=st.integers(min_value=1, max_value=400),
        ),
        st.lists(st.integers(min_value=0, max_value=59 * 400), max_size=4),
    )
    # ell > n, where the lagged terms start near or past the center
    @example(LatticeParams(40, 2), [38, 40, 41])
    @example(LatticeParams(60, 3), [59, 60, 61, 87])
    @example(LatticeParams(60, 1), [0, 59])
    @example(LatticeParams(60, 400), [1, 59, 60, 61, 11799])
    def test_matches_de_moivre_on_large_lattices(self, params, ks):
        d = power(params)
        # points drawn over the largest support, folded into this one
        for k in [k % params.support_size for k in ks] + [params.top // 2]:
            assert de_moivre_pmf(params, k) == d.pmf(k)

    @settings(max_examples=60, deadline=None)
    @given(lattices)
    def test_matches_de_moivre_numerators(self, params):
        # the whole-support listing of `pmf --method demoivre`: de Moivre at every k
        out = io.StringIO()
        with redirect_stdout(out):
            argv = ["pmf", "--ell", str(params.ell), "--n", str(params.n), "--method", "demoivre"]
            assert main(argv) == 0
        denom = params.ell**params.n
        nums = power(params).numerators
        assert out.getvalue() == "".join(f"{k} {v}/{denom}\n" for k, v in enumerate(nums))

    @settings(max_examples=50, deadline=None)
    @given(lattices)
    def test_symmetric_normalised_unimodal(self, params):
        nums = power(params).numerators
        assert len(nums) == params.support_size
        assert sum(nums) == params.ell**params.n
        assert nums == nums[::-1]
        assert all(v > 0 for v in nums)
        # non-decreasing up to the center; symmetry gives the other side
        assert all(a <= b for a, b in zip(nums[: len(nums) // 2], nums[1:]))

    @settings(max_examples=50, deadline=None)
    @given(lattices)
    def test_pair_maximum_is_central(self, params):
        nums = naive_power(params.ell, params.n)
        denom = params.ell**params.n
        top = params.top
        if top == 0:  # the point mass has no pair
            assert pair_concentration(power(params)) == Fraction(nums[0], denom)
            return
        pairs = [nums[k] + nums[k + 1] for k in range(top)]
        assert pair_concentration(power(params)) == Fraction(max(pairs), denom)
        assert pairs[(top - 1) // 2] == max(pairs)
