"""Local-CLT sharpness diagnostics."""

import math

import pytest

from uniconc.asymptotics import clt_ratio, local_clt_sup_dev
from uniconc.errors import ParameterError
from uniconc.exactdist import LatticeParams, concentration


class TestCltRatio:
    def test_triangular_case(self):
        assert clt_ratio(3, 2) == pytest.approx(0.9648016727443569, rel=1e-12)

    def test_single_coin(self):
        assert clt_ratio(2, 1) == pytest.approx(0.6266570686577502, rel=1e-12)

    def test_reversed_regime_exceeds_one(self):
        assert clt_ratio(5, 2) > 1.0

    def test_matches_float_formula(self):
        for ell, n in [(2, 9), (4, 5), (7, 3), (2, 100)]:
            c = concentration(LatticeParams(ell, n))
            ref = math.sqrt(n) * (c.numerator / c.denominator) * math.sqrt(
                math.pi * (ell * ell - 1) / 6
            )
            assert clt_ratio(ell, n) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("ell", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 3, 10, 50])
    def test_below_one_where_bound_holds(self, ell, n):
        assert 0.0 < clt_ratio(ell, n) < 1.0

    def test_rejects_degenerate_lattice(self):
        with pytest.raises(ParameterError):
            clt_ratio(1, 5)


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

