"""Local-CLT sharpness diagnostics."""

import decimal
import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uniconc.asymptotics as asymptotics
from uniconc.asymptotics import clt_ratio, local_clt_sup_dev
from uniconc.errors import ParameterError
from uniconc.exactdist import LatticeParams, concentration, power


def full_scan_sup_dev(ell: int, n: int) -> float:
    """The supremum over the wide window [-n(ell-1), 2n(ell-1)], with the
    same arithmetic as :func:`local_clt_sup_dev`."""
    d = power(LatticeParams(ell, n))
    top = d.params.top
    with mpmath.workprec(128):
        sqrt_n = mpmath.sqrt(n)
        mu = mpmath.mpf(ell - 1) / 2
        sigma = mpmath.sqrt(mpmath.mpf(ell * ell - 1) / 12)
        norm = 1 / (sigma * mpmath.sqrt(2 * mpmath.pi))
        mp_denom = mpmath.mpf(d.denominator)
        sup = mpmath.mpf(0)
        for k in range(-top, 2 * top + 1):
            z = (k - n * mu) / (sigma * sqrt_n)
            gauss = norm * mpmath.exp(-z * z / 2)
            if 0 <= k <= top:
                dev = abs(sqrt_n * mpmath.mpf(d.numerators[k]) / mp_denom - gauss)
            else:
                dev = gauss
            if dev > sup:
                sup = dev
        return float(sup)


def mpmath_clt_ratio(ell: int, n: int) -> float:
    """The ratio by the same formula in mpmath at 128 bits."""
    c = concentration(LatticeParams(ell, n))
    with mpmath.workprec(128):
        c_mp = mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
        return float(mpmath.sqrt(n) * c_mp * mpmath.sqrt(mpmath.pi * (ell * ell - 1) / 6))


def exact_ratio(ell: int, n: int) -> float:
    return clt_ratio(ell, n, concentration(LatticeParams(ell, n)))


class TestCltRatio:
    def test_triangular_case(self):
        assert exact_ratio(3, 2) == pytest.approx(0.9648016727443569, rel=1e-12)

    def test_single_coin(self):
        assert exact_ratio(2, 1) == pytest.approx(0.6266570686577502, rel=1e-12)

    def test_reversed_regime_exceeds_one(self):
        assert exact_ratio(5, 2) > 1.0

    def test_matches_float_formula(self):
        for ell, n in [(2, 9), (4, 5), (7, 3), (2, 100)]:
            c = concentration(LatticeParams(ell, n))
            ref = math.sqrt(n) * (c.numerator / c.denominator) * math.sqrt(
                math.pi * (ell * ell - 1) / 6
            )
            assert clt_ratio(ell, n, c) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=60))
    @example(2, 1005)
    @example(10, 300)
    @example(5, 2)
    def test_equals_the_mpmath_formula(self, ell, n):
        assert exact_ratio(ell, n) == mpmath_clt_ratio(ell, n)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 3, 10, 50])
    def test_below_one_where_bound_holds(self, ell, n):
        assert 0.0 < exact_ratio(ell, n) < 1.0

    def test_rejects_degenerate_lattice(self):
        with pytest.raises(ParameterError):
            exact_ratio(1, 5)


class TestSupDeviation:
    def test_hundred_steps(self):
        dev = local_clt_sup_dev(2, 100)
        assert dev == pytest.approx(0.001992186931077741, rel=1e-9)
        assert dev < 0.01

    def test_decreasing_in_n(self):
        assert local_clt_sup_dev(2, 100) < local_clt_sup_dev(2, 25)

    def test_rejects_degenerate_lattice(self):
        with pytest.raises(ParameterError):
            local_clt_sup_dev(1, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=60))
    @example(2, 1)
    @example(12, 1)
    @example(2, 60)
    @example(2, 1005)
    @example(2, 990)
    @example(3, 500)
    @example(10, 300)
    def test_narrow_scan_equals_the_wide_one(self, ell, n):
        assert local_clt_sup_dev(ell, n) == full_scan_sup_dev(ell, n)

    def test_scan_stops_near_the_centre(self, monkeypatch):
        reads = []

        class CountingTuple(tuple):
            def __getitem__(self, k):
                reads.append(k)
                return super().__getitem__(k)

        def counting_power(params):
            d = power(params)
            return replace(d, numerators=CountingTuple(d.numerators))

        monkeypatch.setattr(asymptotics, "power", counting_power)
        local_clt_sup_dev(2, 1005)
        # the support has 1,006 points; the Gaussian falls below the sup
        # about 65 points either side of the centre
        assert 0 < len(reads) <= 200


def test_caller_decimal_context_changes_nothing():
    points = [(2, 1), (3, 2), (2, 100), (7, 40)]
    expected = [(exact_ratio(ell, n), local_clt_sup_dev(ell, n)) for ell, n in points]
    hostile = decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR)
    with decimal.localcontext(hostile):
        got = [(exact_ratio(ell, n), local_clt_sup_dev(ell, n)) for ell, n in points]
        assert decimal.getcontext().prec == 5
    assert got == expected
