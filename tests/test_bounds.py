"""Bound enclosures against independent references and certified grid properties."""

import re
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniconc.asymptotics import clt_ratio, local_clt_sup_dev
from uniconc.bounds import (
    _side_sums,
    _skellam_sums,
    bessel_G,
    corollary_bound_expr,
    d_sequence_expr,
    main_bound_expr,
    wallis_bound_expr,
)
from uniconc.certify import _GUARD_BITS, Interval, Outcome, RootBound, evaluate, verdict_between
from uniconc.errors import ParameterError
from uniconc.spectral import fourier_pmf, split_integrals

from test_certify import fraction_of


def frac_of_mpf(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    value = Fraction(man, 1) * Fraction(2) ** exp
    return -value if sign else value


def contains(iv: Interval, v: Fraction) -> bool:
    return fraction_of(iv.lo) <= v <= fraction_of(iv.hi)


def width_of(iv: Interval) -> Fraction:
    return fraction_of(iv.hi) - fraction_of(iv.lo)


def chain_outer_bound(n: int) -> RootBound:
    """2 * main_bound_expr(3, n) = sqrt(3/(pi*n)), the outer end of the
    adjacent-pair chain on the three-point lattice."""
    m = main_bound_expr(3, n)
    return RootBound(2 * m.a, 2 * m.b, m.r, m.k)


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
            (d_sequence_expr, (True,)),
            (d_sequence_expr, (2.0,)),
            (d_sequence_expr, (0,)),
        ],
        ids=lambda v: getattr(v, "__name__", repr(v)),
    )
    def test_rejects_bools_and_non_integers(self, builder, args):
        with pytest.raises(ParameterError):
            builder(*args)

    # every entry point whose domain is the sharp bound's, ell >= 2 and n >= 1
    LATTICE_ENTRIES = {
        "main_bound_expr": main_bound_expr,
        "corollary_bound_expr": corollary_bound_expr,
        "fourier_pmf": lambda ell, n: fourier_pmf(ell, n, 0),
        "split_integrals": split_integrals,
        "clt_ratio": lambda ell, n: clt_ratio(ell, n, Fraction(1, 2)),
        "local_clt_sup_dev": local_clt_sup_dev,
    }

    @pytest.mark.parametrize(
        "ell, n, message",
        [
            (1, 2, "ell must be an integer >= 2, got 1"),
            (2, 0, "n must be an integer >= 1, got 0"),
            (True, 2, "ell must be an integer >= 2, got True"),
            (2, 2.0, "n must be an integer >= 1, got 2.0"),
        ],
    )
    @pytest.mark.parametrize("entry", sorted(LATTICE_ENTRIES))
    def test_lattice_domain_refused_with_one_message(self, entry, ell, n, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            self.LATTICE_ENTRIES[entry](ell, n)


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
        outer = evaluate(chain_outer_bound(100), 128)
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
    @example(p=13325, q=1, bits=256)
    @example(p=20000, q=1, bits=256)
    @example(p=1, q=3, bits=256)  # k0 = 0: no downward side
    @example(p=8, q=1, bits=64)  # mu = 4: the first downward ratio is exactly 1
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


def exact_side_enclosure(ratio, bits: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """[S, S + tail] around 2**bits * sum_{m>=1} t_m and around 4**bits *
    sum_{m>=1} t_m (t_(m-1) + t_m), where t_0 = 1 and t_m = t_(m-1) *
    ratio(m), for ratios that never rise with m: one side of the mode, as
    ``_side_sums`` sums it.  S is the exact partial sum up to a zero term,
    after which the tails are zero, or up to a term t below 2**-64 whose
    next ratio r is below 1/2; every later ratio is at most r, so the later
    terms are at most t*r**i, and the tails at most t*r/(1-r) and
    t*t*r/(1-r)."""
    prev = Fraction(1 << bits)
    s0 = s1 = Fraction(0)
    m = 1
    while True:
        term = prev * ratio(m)
        s0 += term
        s1 += term * (prev + term)
        if term == 0:
            return (s0, s0), (s1, s1)
        m += 1
        r = ratio(m)
        if term < Fraction(1, 2**64) and r < Fraction(1, 2):
            g = r / (1 - r)
            return (s0, s0 + term * g), (s1, s1 + term * term * g)
        prev = term


class TestBesselChains:
    """Each chain of bessel_G against exact Fraction partial sums: a chain
    rounded down is at most the scaled sum, one rounded up at least it."""

    @staticmethod
    def assert_brackets(got, enclosure, up):
        for value, (lo, hi) in zip(got, enclosure):
            assert value >= hi if up else value <= lo

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(0, 400), q=st.integers(1, 6), bits=st.integers(0, 256))
    @example(p=29, q=3, bits=256)
    @example(p=1, q=1, bits=1)  # both tails exceed every rounding gain
    @example(p=8, q=1, bits=64)  # an integer mu
    @example(p=1, q=3, bits=64)  # k0 = 0
    def test_chains_bracket_the_exact_sums(self, p, q, bits):
        mu, k0, one = Fraction(p, 2 * q), p // (2 * q), 1 << bits
        # upward from the mode by mu/(k+1), downward by k/mu
        sides = [(lambda m: mu / (k0 + m), lambda m: (p, 2 * q * (k0 + m)))]
        if k0:
            sides.append((lambda m: (k0 + 1 - m) / mu, lambda m: (2 * q * (k0 + 1 - m), p)))
        exact = [exact_side_enclosure(r, bits) for r, _ in sides]
        # S0 = V_k0 + both sides' first sums and S1 = V_k0**2 + their second
        totals = [
            tuple(sum(ends) for ends in zip(base, *(e[i] for e in exact)))
            for i, base in enumerate([(one, one), (one * one, one * one)])
        ]
        for up in (False, True):
            for (_, ratio), enclosure in zip(sides, exact):
                self.assert_brackets(_side_sums(ratio, one, up), enclosure, up)
            self.assert_brackets(_skellam_sums(p, q, bits, up), totals, up)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(0, 2000), q=st.integers(1, 6), bits=st.integers(64, 256))
    @example(p=0, q=1, bits=64)
    def test_ends_hold_the_quotients_of_the_chains(self, p, q, bits):
        # the lower end is S1 rounded down over S0**2 rounded up, and the
        # upper end the mirror
        g = bessel_G(Fraction(p, q), bits)
        w = bits + _GUARD_BITS
        (lo0, lo1), (hi0, hi1) = (_skellam_sums(p, q, w, up) for up in (False, True))
        assert fraction_of(g.lo) <= Fraction(lo1, hi0 * hi0)
        assert Fraction(hi1, lo0 * lo0) <= fraction_of(g.hi)


class TestBesselChainBound:
    def test_values(self):
        assert_encloses(evaluate(chain_outer_bound(1), 128), 0.9772050238058398)
        assert_encloses(evaluate(chain_outer_bound(3), 128), 0.5641895835477563)
        b2 = evaluate(chain_outer_bound(2), 128)
        assert_encloses(b2, 0.690988298942671)
        g = bessel_G(Fraction(4, 3), 128)
        assert verdict_between(g, b2, 128).outcome is Outcome.HOLDS
