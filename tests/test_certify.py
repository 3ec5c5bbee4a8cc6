"""Interval endpoints, enclosure soundness, and verdict semantics."""

import operator
import random
from fractions import Fraction
from math import floor, isqrt

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uniconc import certify
from uniconc.bounds import d_sequence_expr, main_bound_expr, wallis_bound_expr
from uniconc.certify import (
    Dyadic,
    Interval,
    Outcome,
    RootBound,
    certify_less,
    evaluate,
    pi_enclosure,
    verdict_between,
    _round_fraction,
    _round_ratio,
)
from uniconc.errors import DomainError, ExpressionError, ParameterError


def frac_of_mpf(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    value = Fraction(man, 1) * Fraction(2) ** exp
    return -value if sign else value


PI_REF = None

ZERO, ONE = Fraction(0), Fraction(1)


def root_over_pi(r: Fraction) -> RootBound:
    """sqrt(r / pi)."""
    return RootBound(ONE, ZERO, r, 1)


def setup_module():
    global PI_REF
    # reference must beat the tightest enclosure under test (1024 bits)
    with mpmath.workprec(1400):
        PI_REF = frac_of_mpf(+mpmath.pi)


class TestRounding:
    def test_directions(self):
        down = _round_ratio(1, 3, 16, up=False)
        up = _round_ratio(1, 3, 16, up=True)
        third = Fraction(1, 3)
        assert down.as_fraction() < third < up.as_fraction()
        assert up.as_fraction() - down.as_fraction() <= Fraction(1, 2**14)

    def test_negative_mirrored(self):
        down = _round_ratio(-1, 3, 16, up=False)
        up = _round_ratio(-1, 3, 16, up=True)
        assert down.as_fraction() < Fraction(-1, 3) < up.as_fraction()

    def test_exact_dyadic_unchanged(self):
        for up in (False, True):
            d = _round_ratio(5, 8, 30, up)
            assert d.as_fraction() == Fraction(5, 8)

    def test_never_rounds_to_zero(self):
        tiny = _round_ratio(1, 10**50, 8, up=False)
        assert tiny.man > 0

    def test_normalization(self):
        d = Dyadic.normalized(8, 0)
        assert (d.man, d.exp) == (1, 3)


class TestIntervalOps:
    def test_add_encloses(self):
        a = Interval.from_fraction(Fraction(1, 3), 24)
        b = Interval.from_fraction(Fraction(1, 7), 24)
        s = a.add(b, 24)
        assert s.contains(Fraction(1, 3) + Fraction(1, 7))

    def test_mul_signs(self):
        a = Interval.from_fraction(Fraction(-2, 3), 40)
        b = Interval.from_fraction(Fraction(5, 7), 40)
        p = a.mul(b, 40)
        assert p.contains(Fraction(-10, 21))
        assert p.lo.sign < 0

    def test_div_encloses(self):
        a = Interval.from_fraction(Fraction(22, 7), 40)
        b = Interval.from_fraction(Fraction(1, 3), 40)
        q = a.div(b, 40)
        assert q.contains(Fraction(66, 7))

    def test_div_by_zero_interval(self):
        a = Interval.point(1)
        b = Interval(Dyadic(-1, -10), Dyadic(1, -10))
        with pytest.raises(ExpressionError):
            a.div(b, 40)

    def test_endpoint_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(Dyadic(1, 0), Dyadic(-1, 0))

    def test_soundness_randomized(self):
        # exact rational evaluation must always land inside the enclosure
        rng = random.Random(20240817)
        for _ in range(1000):
            exact = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            iv = Interval.from_fraction(exact, 48)
            expr_exact = exact
            for _ in range(rng.randint(1, 6)):
                other = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                op = rng.choice("+-*/")
                jv = Interval.from_fraction(other, 48)
                if op == "+":
                    expr_exact, iv = expr_exact + other, iv.add(jv, 48)
                elif op == "-":
                    expr_exact, iv = expr_exact - other, iv.sub(jv, 48)
                elif op == "*":
                    expr_exact, iv = expr_exact * other, iv.mul(jv, 48)
                elif other != 0 and not jv.contains_zero():
                    expr_exact, iv = expr_exact / other, iv.div(jv, 48)
            assert iv.contains(expr_exact)


def _endpoints(lo: Dyadic, hi: Dyadic) -> Interval:
    return Interval(min(lo, hi), max(lo, hi))


dyadics = st.builds(Dyadic.normalized, st.integers(-(2**160), 2**160), st.integers(-200, 200))
nonneg_dyadics = st.builds(Dyadic.normalized, st.integers(0, 2**160), st.integers(-200, 200))
intervals = st.builds(_endpoints, dyadics, dyadics)
nonneg_intervals = st.builds(_endpoints, nonneg_dyadics, nonneg_dyadics)
precisions = st.integers(min_value=1, max_value=256)

OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def sqrt_on_grid(x: Fraction, bits: int, up: bool) -> Fraction:
    """sqrt(x) for a dyadic x >= 0, rounded down or up to a multiple of 2**k.

    x = m * 2**e with m odd; k is chosen as ``Interval.sqrt`` chooses it:
    x / 4**k is an integer of at least 2*bits + 2 bits (and no more shift
    than that needs), so the rounded root carries at least bits + 1 bits.
    """
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    e = -(den.bit_length() - 1)
    while num % 2 == 0:
        num, e = num // 2, e + 1
    shift = max(0, 2 * bits + 2 - num.bit_length())
    shift += (e - shift) % 2
    k = (e - shift) // 2
    scaled = x / Fraction(2) ** (2 * k)
    assert scaled.denominator == 1
    root = isqrt(scaled.numerator)
    if up and root * root != scaled.numerator:
        root += 1
    return root * Fraction(2) ** k


class TestIntervalProperties:
    """Endpoints of add/sub/mul/div equal, bit for bit, the exact rational
    image rounded outward by ``_round_fraction``; those of sqrt equal the
    directed root on its grid.  Both enclose the exact image."""

    @pytest.mark.parametrize("name", sorted(OPS))
    @settings(max_examples=100, deadline=None)
    @given(x=intervals, y=intervals, bits=precisions)
    def test_ops_match_fraction_oracle(self, name, x, y, bits):
        if name == "div":
            assume(not y.contains_zero())
        corners = [
            OPS[name](a.as_fraction(), b.as_fraction()) for a in (x.lo, x.hi) for b in (y.lo, y.hi)
        ]
        lo, hi = min(corners), max(corners)
        got = getattr(x, name)(y, bits)
        assert got == Interval(_round_fraction(lo, bits, False), _round_fraction(hi, bits, True))
        assert got.lo.as_fraction() <= lo and hi <= got.hi.as_fraction()

    @settings(max_examples=100, deadline=None)
    @given(x=nonneg_intervals, bits=precisions)
    def test_sqrt_matches_grid_oracle(self, x, bits):
        lo, hi = x.lo.as_fraction(), x.hi.as_fraction()
        got = x.sqrt(bits)
        assert got.lo.as_fraction() == sqrt_on_grid(lo, bits, False)
        assert got.hi.as_fraction() == sqrt_on_grid(hi, bits, True)
        assert got.lo.as_fraction() ** 2 <= lo and hi <= got.hi.as_fraction() ** 2


class TestPi:
    def test_contains_reference(self):
        for bits in (16, 53, 256, 1024):
            iv = pi_enclosure(bits)
            assert iv.contains(PI_REF)
            assert iv.width() <= Fraction(1, 2**bits)

    def test_example_windows(self):
        iv = pi_enclosure(53)
        assert Fraction("3.14159265358979") <= iv.lo.as_fraction()
        assert iv.hi.as_fraction() <= Fraction("3.14159265358980")
        iv16 = pi_enclosure(16)
        assert Fraction("3.1415") <= iv16.lo.as_fraction()
        assert iv16.hi.as_fraction() <= Fraction("3.1416")

    def test_monotone_refinement(self):
        assert pi_enclosure(128).width() < pi_enclosure(64).width()

    def test_minimum_precision(self):
        with pytest.raises(ParameterError):
            pi_enclosure(4)


class TestSqrt:
    def test_perfect_square(self):
        iv = Interval.point(4).sqrt(53)
        assert iv.lo == iv.hi == Dyadic(1, 1)

    def test_sqrt_two(self):
        iv = Interval.point(2).sqrt(53)
        with mpmath.workprec(200):
            ref = frac_of_mpf(mpmath.sqrt(2))
        assert iv.contains(ref)
        assert iv.width() <= Fraction(1, 2**50)

    def test_zero(self):
        iv = Interval.point(0).sqrt(53)
        assert iv.lo.man == iv.hi.man == 0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Interval(Dyadic(-1, 0), Dyadic(1, 0)).sqrt(53)

    def test_square_contains_input(self):
        iv = Interval.point(2).sqrt(64)
        assert iv.mul(iv, 64).contains(Fraction(2))


class TestRootBound:
    @pytest.mark.parametrize(
        "fields, error",
        [
            ((1, ZERO, ONE, 0), ExpressionError),
            ((ONE, 0.0, ONE, 0), ExpressionError),
            ((ONE, ZERO, "2", 0), ExpressionError),
            ((ONE, ZERO, ONE, 2), ExpressionError),
            ((ONE, ZERO, ONE, True), ExpressionError),
            ((ONE, ZERO, ONE, 1.0), ExpressionError),
            ((ZERO, ONE, ONE, 0), DomainError),
            ((Fraction(-1), ZERO, ONE, 0), DomainError),
            ((ONE, Fraction(-1), ONE, 0), DomainError),
            ((ONE, ZERO, ZERO, 1), DomainError),
        ],
    )
    def test_rejects_invalid_fields(self, fields, error):
        with pytest.raises(error):
            RootBound(*fields)


class TestPrecisionCap:
    @pytest.fixture
    def no_pi(self, monkeypatch):
        def refuse(bits):
            raise AssertionError(f"pi_enclosure({bits}) started")

        monkeypatch.setattr(certify, "pi_enclosure", refuse)

    @pytest.mark.parametrize("bits", [63, certify._MAX_PRECISION_BITS + 1, 10**6, 256.0, True])
    def test_evaluate_rejects_before_pi(self, no_pi, bits):
        with pytest.raises(ParameterError):
            evaluate(main_bound_expr(2, 2), bits)

    @pytest.mark.parametrize("bits", [32, certify._MAX_PRECISION_BITS + 1, 10**6, 256.0, True])
    def test_certify_less_rejects_cap_before_pi(self, no_pi, bits):
        with pytest.raises(ParameterError):
            certify_less(Fraction(1, 2), main_bound_expr(2, 2), bits)

    def test_cap_itself_accepted(self, no_pi):
        # d_n involves no pi, so the top precision is cheap to reach
        iv = evaluate(d_sequence_expr(1), certify._MAX_PRECISION_BITS)
        assert iv.contains(Fraction(157, 160))


def positive_fractions(hi: int):
    return st.builds(Fraction, st.integers(1, hi), st.integers(1, hi))


def mp_root_bound(a: Fraction, b: Fraction, r: Fraction, k: int):
    """(a + b/sqrt(3)) * sqrt(r / pi**k) in mpmath at the working precision."""
    def mpf(x: Fraction):
        return mpmath.mpf(x.numerator) / x.denominator

    return (mpf(a) + mpf(b) / mpmath.sqrt(3)) * mpmath.sqrt(mpf(r) / mpmath.pi**k)


class TestEvaluateProperties:
    """The four shapes the builders produce: sqrt(r/pi) (main, corollary,
    Wallis, Bessel chain), d_n for odd and even n, and d_n times the main
    bound."""

    @settings(max_examples=120, deadline=None)
    @given(
        a=positive_fractions(10**6),
        b=st.one_of(st.just(ZERO), positive_fractions(10**6)),
        r=st.one_of(st.just(ONE), positive_fractions(10**6)),
        k=st.sampled_from([0, 1]),
        bits=st.integers(64, 512),
    )
    def test_encloses_reference_with_relative_width(self, a, b, r, k, bits):
        iv = evaluate(RootBound(a, b, r, k), bits)
        with mpmath.workprec(bits + 256):
            ref = frac_of_mpf(mp_root_bound(a, b, r, k))
        assert iv.contains(ref)
        assert iv.width() / ref <= Fraction(1, 2 ** (bits - 2))


class TestCertifyLess:
    def test_reversed_boundary_case(self):
        v = certify_less(Fraction(1, 5), root_over_pi(Fraction(6, 48)))
        assert v.outcome is Outcome.FAILS
        margin = float(v.margin.lo)
        assert -6e-4 < margin < -5e-4

    def test_holds_case(self):
        v = certify_less(Fraction(3, 8), root_over_pi(Fraction(6, 12)))
        assert v.outcome is Outcome.HOLDS

    def test_exception_free_cell(self):
        v = certify_less(Fraction(1, 4), root_over_pi(Fraction(6, 30)))
        assert v.outcome is Outcome.HOLDS

    def test_margin_sign_matches_outcome(self):
        for lhs, expr in [
            (Fraction(1, 5), root_over_pi(Fraction(6, 48))),
            (Fraction(3, 8), root_over_pi(Fraction(6, 12))),
        ]:
            v = certify_less(lhs, expr)
            if v.outcome is Outcome.HOLDS:
                assert v.margin.lo.sign > 0
            elif v.outcome is Outcome.FAILS:
                assert v.margin.hi.sign < 0
            else:
                assert v.margin.contains_zero()

    def test_escalation_decides_tiny_margin(self):
        # 1/sqrt(pi) rounded down to a multiple of 2**-100: the margin is
        # below 2**-100, too small for the first 64-bit evaluation
        with mpmath.workprec(400):
            ref = frac_of_mpf(1 / mpmath.sqrt(mpmath.pi))
        lhs = Fraction(floor(ref * 2**100), 2**100)
        v = certify_less(lhs, wallis_bound_expr(1))
        assert v.outcome is Outcome.HOLDS
        assert v.precision_bits_used > 64

    def test_equality_is_inconclusive_at_cap(self):
        # d_1 = 157/160 is rational, so no precision separates it from itself
        v = certify_less(Fraction(157, 160), d_sequence_expr(1), 512)
        assert v.outcome is Outcome.INCONCLUSIVE
        assert v.precision_bits_used == 512

    def test_stability_under_escalation(self):
        # decisions may sharpen but never flip between precisions
        for ell, n in [(2, 1), (5, 2), (3, 7), (9, 2), (4, 50)]:
            expr = main_bound_expr(ell, n)
            from uniconc.exactdist import LatticeParams, concentration

            c = concentration(LatticeParams(ell, n))
            low = certify_less(c, expr, max_precision_bits=64)
            high = certify_less(c, expr, max_precision_bits=4096)
            if low.outcome is not Outcome.INCONCLUSIVE:
                assert low.outcome is high.outcome

    def test_rejects_non_expression(self):
        with pytest.raises(ExpressionError):
            certify_less(Fraction(1, 2), 0.75)

    def test_const_rejects_float(self):
        with pytest.raises(ExpressionError):
            RootBound(0.5, ZERO, ONE, 0)

    def test_sqrt_of_negative_expression(self):
        with pytest.raises(DomainError):
            RootBound(ONE, ZERO, Fraction(-1), 0)


class TestVerdictBetween:
    def test_fraction_vs_interval(self):
        iv = evaluate(RootBound(ONE, ZERO, Fraction(2), 0), 128)
        assert verdict_between(Fraction(7, 5), iv, 128).outcome is Outcome.HOLDS
        assert verdict_between(Fraction(3, 2), iv, 128).outcome is Outcome.FAILS

    def test_overlapping_intervals_inconclusive(self):
        iv = evaluate(RootBound(ONE, ZERO, Fraction(2), 0), 64)
        assert verdict_between(iv, iv, 64).outcome is Outcome.INCONCLUSIVE
