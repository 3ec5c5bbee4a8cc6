"""Bound enclosures against independent references and certified grid properties."""

from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniconc.bounds import (
    bessel_G,
    bessel_chain_expr,
    corollary_bound_expr,
    d_sequence_expr,
    main_bound_expr,
    wallis_bound_expr,
)
from uniconc.certify import Interval, Outcome, evaluate, verdict_between
from uniconc.errors import ParameterError

from test_certify import fraction_of


def frac_of_mpf(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    value = Fraction(man, 1) * Fraction(2) ** exp
    return -value if sign else value


def contains(iv: Interval, v: Fraction) -> bool:
    return fraction_of(iv.lo) <= v <= fraction_of(iv.hi)


def width_of(iv: Interval) -> Fraction:
    return fraction_of(iv.hi) - fraction_of(iv.lo)


def assert_encloses(iv, reference: float, width: float = 1e-15):
    assert float(fraction_of(iv.lo)) <= reference <= float(fraction_of(iv.hi)) or contains(
        iv, Fraction(reference)
    )
    assert float(width_of(iv)) <= width


class TestBuilderValidation:
    @pytest.mark.parametrize(
        "builder, args",
        [
            (main_bound_expr, (2, True)),
            (main_bound_expr, (True, 2)),
            (main_bound_expr, (2, 2.0)),
            (corollary_bound_expr, (2, True)),
            (corollary_bound_expr, (2.0, 2)),
            (wallis_bound_expr, (True,)),
            (wallis_bound_expr, (1.0,)),
            (bessel_chain_expr, (True,)),
            (bessel_chain_expr, (Fraction(2),)),
            (d_sequence_expr, (True,)),
            (d_sequence_expr, (2.0,)),
            (d_sequence_expr, (0,)),
        ],
        ids=lambda v: getattr(v, "__name__", repr(v)),
    )
    def test_rejects_bools_and_non_integers(self, builder, args):
        with pytest.raises(ParameterError):
            builder(*args)


class TestMainBound:
    def test_value_2_4(self):
        b = evaluate(main_bound_expr(2, 4), 128)
        assert_encloses(b, 0.3989422804014327)
        assert verdict_between(Fraction(3, 8), b, 128).outcome is Outcome.HOLDS

    def test_reversed_5_2(self):
        b = evaluate(main_bound_expr(5, 2), 128)
        assert_encloses(b, 0.19947114020071635)
        assert verdict_between(Fraction(1, 5), b, 128).outcome is Outcome.FAILS

    def test_small_lattice_2_2(self):
        b = evaluate(main_bound_expr(2, 2), 128)
        assert_encloses(b, 0.5641895835477563)
        assert verdict_between(Fraction(1, 2), b, 128).outcome is Outcome.HOLDS

    def test_relative_width_contract(self):
        for bits in (64, 128, 256):
            iv = evaluate(main_bound_expr(7, 13), bits)
            rel = width_of(iv) / fraction_of(iv.lo)
            assert rel <= Fraction(1, 2 ** (bits - 2))

    def test_rejects_point_mass(self):
        with pytest.raises(ParameterError):
            evaluate(main_bound_expr(1, 3), 64)

    def test_monotone_in_both_arguments(self):
        # strict decrease in ell and in n, certified via disjoint enclosures
        prev_row = None
        for ell in range(2, 21):
            values = [evaluate(main_bound_expr(ell, n), 96) for n in range(1, 101)]
            for a, b in zip(values, values[1:]):
                assert b.hi < a.lo
            if prev_row is not None:
                for new, old in zip(values, prev_row):
                    assert new.hi < old.lo
            prev_row = values


class TestCorollaryBound:
    def test_values(self):
        assert_encloses(evaluate(corollary_bound_expr(2, 1), 128), 0.7978845608028654)
        assert_encloses(evaluate(corollary_bound_expr(2, 4), 128), 0.3989422804014327)
        assert_encloses(evaluate(corollary_bound_expr(4, 1), 128), 0.3989422804014327)

    def test_dominates_main_bound(self):
        for ell in range(3, 13):
            for n in (1, 2, 7, 40):
                main = evaluate(main_bound_expr(ell, n), 96)
                cor = evaluate(corollary_bound_expr(ell, n), 96)
                assert main.hi < cor.lo

    def test_coincides_with_main_at_two(self):
        # ell = 2: the two formulas agree; enclosures must overlap
        for n in (1, 3, 10):
            main = evaluate(main_bound_expr(2, n), 128)
            cor = evaluate(corollary_bound_expr(2, n), 128)
            assert not (main.hi < cor.lo or cor.hi < main.lo)
            assert abs(float(fraction_of(main.lo) - fraction_of(cor.lo))) < 1e-30


class TestWallisBound:
    def test_k1(self):
        b = evaluate(wallis_bound_expr(1), 128)
        assert_encloses(b, 0.5641895835477563)
        assert verdict_between(Fraction(1, 2), b, 128).outcome is Outcome.HOLDS

    def test_k2(self):
        b = evaluate(wallis_bound_expr(2), 128)
        assert_encloses(b, 0.3989422804014327)
        assert verdict_between(Fraction(6, 16), b, 128).outcome is Outcome.HOLDS

    def test_k100_exact_binomial(self):
        central = Fraction(comb(200, 100), 4**100)
        b = evaluate(wallis_bound_expr(100), 128)
        assert verdict_between(central, b, 128).outcome is Outcome.HOLDS

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            evaluate(wallis_bound_expr(0), 64)


class TestDSequence:
    def test_first_term_exact_rational(self):
        b = evaluate(d_sequence_expr(1), 128)
        assert contains(b, Fraction(157, 160))
        assert float(width_of(b)) < 1e-30

    def test_second_term_exceeds_one(self):
        b = evaluate(d_sequence_expr(2), 128)
        assert_encloses(b, 1.2464876345948128, width=1e-12)
        assert verdict_between(Fraction(1), b, 128).outcome is Outcome.HOLDS

    def test_fourth_term_below_one(self):
        b = evaluate(d_sequence_expr(4), 128)
        assert_encloses(b, 0.9947593862162344, width=1e-12)
        assert verdict_between(b, Fraction(1), 128).outcome is Outcome.HOLDS

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 500))
    def test_terms_are_the_stated_formula(self, n):
        expr = d_sequence_expr(n)
        correction = Fraction(1, (n - 1) * 2 ** (n - 1)) if n % 2 == 0 else 0
        assert expr.a == 1 - Fraction(3, 20 * n) + Fraction(21, 160 * n * n)
        assert (expr.b, expr.r, expr.k) == (correction, 1, 0)

    def test_odd_terms_have_no_root_three_part(self):
        expr = d_sequence_expr(7)
        iv = evaluate(expr, 64)
        expected = 1 - Fraction(3, 140) + Fraction(21, 160 * 49)
        assert contains(iv, expected)
        assert float(width_of(iv)) < 1e-15


class TestBesselG:
    def test_at_zero(self):
        b = bessel_G(0, 64)
        assert b.lo == b.hi
        assert contains(b, Fraction(1))

    def test_reference_value(self):
        with mpmath.workprec(200):
            lam = mpmath.mpf(4) / 3
            ref = frac_of_mpf(mpmath.e ** (-lam) * (mpmath.besseli(0, lam) + mpmath.besseli(1, lam)))
        b = bessel_G(Fraction(4, 3), 128)
        assert contains(b, ref)
        assert width_of(b) <= Fraction(1, 10**12)
        assert abs(float(ref) - 0.6122146688499176) < 1e-15

    def test_large_argument_chain(self):
        g = bessel_G(Fraction(200, 3), 128)
        outer = evaluate(bessel_chain_expr(100), 128)
        assert verdict_between(g, outer, 128).outcome is Outcome.HOLDS

    def test_width_shrinks_from_128_to_512_bits(self):
        loose = width_of(bessel_G(Fraction(10), 128))
        tight = width_of(bessel_G(Fraction(10), 512))
        assert tight < loose <= Fraction(1, 10**6)
        assert tight <= Fraction(1, 2**510)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            bessel_G(Fraction(-1, 2), 64)

    @pytest.mark.parametrize("bits", [63, 16385, 256.0, True])
    def test_rejects_precision_outside_the_model(self, bits):
        with pytest.raises(ParameterError):
            bessel_G(Fraction(4, 3), bits)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(0, 6000), q=st.integers(1, 3), bits=st.integers(64, 512))
    def test_encloses_reference_with_relative_width(self, p, q, bits):
        g = bessel_G(Fraction(p, q), bits)
        # the reference is built from mpmath alone, 256 bits finer
        with mpmath.workprec(bits + 256):
            lam = mpmath.mpf(p) / q
            ref = frac_of_mpf(mpmath.exp(-lam) * (mpmath.besseli(0, lam) + mpmath.besseli(1, lam)))
        assert contains(g, ref)
        assert width_of(g) / ref <= Fraction(1, 2 ** (bits - 2))

    @staticmethod
    def reference(lam: Fraction, bits: int) -> Fraction:
        """G(lam) from mpmath alone at four times ``bits``."""
        with mpmath.workprec(4 * bits):
            x = mpmath.mpf(lam.numerator) / lam.denominator
            return frac_of_mpf(mpmath.exp(-x) * (mpmath.besseli(0, x) + mpmath.besseli(1, x)))

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_scan_encloses_reference(self, bits):
        """lam = k/3 for k = 1, 8, ..., 393, the sweep's lam = 2n/3 among
        them: a chain rounded the wrong way leaves some of these outside."""
        missed = [
            k for k in range(1, 394, 7)
            if not contains(bessel_G(Fraction(k, 3), bits), self.reference(Fraction(k, 3), bits))
        ]
        assert missed == []

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.fractions(min_value=0, max_value=200, max_denominator=1000),
        bits=st.integers(64, 256),
    )
    def test_encloses_reference_at_any_rational(self, lam, bits):
        assert contains(bessel_G(lam, bits), self.reference(lam, bits))


class TestBesselChainBound:
    def test_values(self):
        assert_encloses(evaluate(bessel_chain_expr(1), 128), 0.9772050238058398)
        assert_encloses(evaluate(bessel_chain_expr(3), 128), 0.5641895835477563)
        b2 = evaluate(bessel_chain_expr(2), 128)
        assert_encloses(b2, 0.690988298942671)
        g = bessel_G(Fraction(4, 3), 128)
        assert verdict_between(g, b2, 128).outcome is Outcome.HOLDS
