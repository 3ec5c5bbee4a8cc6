"""Interval endpoints, enclosure soundness, and verdict semantics."""

import operator
import random
from fractions import Fraction
from math import floor, isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniconc import certify
from uniconc.bounds import d_sequence_expr, main_bound_expr, wallis_bound_expr
from uniconc.certify import (
    Dyadic,
    Interval,
    Outcome,
    RootBound,
    evaluate,
    pi_enclosure,
    verdict_between,
    _round_ratio,
    _sqrt_ratio,
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


def contains(iv: Interval, v: Fraction) -> bool:
    return iv.lo.as_fraction() <= v <= iv.hi.as_fraction()


def width_of(iv: Interval) -> Fraction:
    return iv.hi.as_fraction() - iv.lo.as_fraction()


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
        assert contains(s, Fraction(1, 3) + Fraction(1, 7))

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
                jv = Interval.from_fraction(other, 48)
                if rng.random() < 0.5:
                    expr_exact, iv = expr_exact + other, iv.add(jv, 48)
                else:
                    expr_exact, iv = expr_exact - other, iv.sub(jv, 48)
            assert contains(iv, expr_exact)


def _endpoints(lo: Dyadic, hi: Dyadic) -> Interval:
    return Interval(min(lo, hi), max(lo, hi))


dyadics = st.builds(Dyadic.normalized, st.integers(-(2**160), 2**160), st.integers(-200, 200))
intervals = st.builds(_endpoints, dyadics, dyadics)
precisions = st.integers(min_value=1, max_value=256)

OPS = {"add": operator.add, "sub": operator.sub}


class TestIntervalProperties:
    """Endpoints of add/sub equal, bit for bit, the exact rational image
    rounded outward by ``_round_ratio``, and enclose that image."""

    @pytest.mark.parametrize("name", sorted(OPS))
    @settings(max_examples=100, deadline=None)
    @given(x=intervals, y=intervals, bits=precisions)
    def test_ops_match_fraction_oracle(self, name, x, y, bits):
        corners = [
            OPS[name](a.as_fraction(), b.as_fraction()) for a in (x.lo, x.hi) for b in (y.lo, y.hi)
        ]
        lo, hi = min(corners), max(corners)
        got = getattr(x, name)(y, bits)
        assert got == Interval(
            _round_ratio(lo.numerator, lo.denominator, bits, False),
            _round_ratio(hi.numerator, hi.denominator, bits, True),
        )
        assert got.lo.as_fraction() <= lo and hi <= got.hi.as_fraction()


def sqrt_on_grid(x: Fraction, k: int, up: bool) -> Fraction:
    """sqrt(x) for x >= 0 rounded down, or up, to a multiple of 2**k."""
    n, d = (x / Fraction(4) ** k).as_integer_ratio()
    q = -(-n // d) if up else n // d
    root = isqrt(q)
    if up and root * root != q:
        root += 1
    return root * Fraction(2) ** k


def sqrt_ratio(num: int, den: int, exp: int, bits: int, up: bool) -> Fraction:
    return _sqrt_ratio(num, den, exp, bits, up).as_fraction()


class TestSqrt:
    """``_sqrt_ratio``, the one directed root behind ``evaluate``."""

    def test_perfect_square(self):
        for up in (False, True):
            assert _sqrt_ratio(4, 1, 0, 53, up) == Dyadic(1, 1)
            assert _sqrt_ratio(9, 64, 0, 53, up) == Dyadic(3, -3)
            assert _sqrt_ratio(9, 1, -6, 53, up) == Dyadic(3, -3)

    def test_sqrt_two(self):
        iv = Interval(_sqrt_ratio(2, 1, 0, 53, False), _sqrt_ratio(2, 1, 0, 53, True))
        with mpmath.workprec(200):
            ref = frac_of_mpf(mpmath.sqrt(2))
        assert contains(iv, ref)
        assert width_of(iv) <= Fraction(1, 2**50)

    def test_zero(self):
        for up in (False, True):
            assert _sqrt_ratio(0, 1, 0, 53, up).man == 0

    def test_square_contains_input(self):
        lo, hi = sqrt_ratio(2, 1, 0, 64, False), sqrt_ratio(2, 1, 0, 64, True)
        assert lo * lo < 2 < hi * hi

    @settings(max_examples=200, deadline=None)
    @given(
        num=st.integers(1, 2**300),
        den=st.integers(1, 2**300),
        exp=st.integers(-400, 400),
        bits=st.integers(1, 300),
    )
    def test_sqrt_matches_grid_oracle(self, num, den, exp, bits):
        """Directed roots on the grid 2**k that gives them at least
        ``bits + 1`` significant bits."""
        x = Fraction(num, den) * Fraction(2) ** exp
        lo, hi = sqrt_ratio(num, den, exp, bits, False), sqrt_ratio(num, den, exp, bits, True)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= lo / 2 ** (bits - 1)
        # the shift rule: 2k = exp - s with s from the bit lengths, s - exp even
        s = 2 * bits + 2 - num.bit_length() + den.bit_length()
        s += (s - exp) % 2
        k = (exp - s) // 2
        assert lo == sqrt_on_grid(x, k, False) and hi == sqrt_on_grid(x, k, True)
        assert lo >= Fraction(2) ** (k + bits)

    @settings(max_examples=100, deadline=None)
    @given(
        man=st.integers(1, 2**200),
        exp=st.integers(-300, 300),
        den_exp=st.integers(0, 300),
        spare_bits=st.integers(0, 100),
    )
    def test_exact_on_perfect_squares(self, man, exp, den_exp, spare_bits):
        # a root of at most bits + 1 significant bits is exact in both directions
        bits = max(1, man.bit_length() - 1 + spare_bits)
        root = Fraction(man) * Fraction(2) ** exp
        x = root * root
        for up in (False, True):
            got = sqrt_ratio(x.numerator << den_exp, x.denominator << den_exp, 0, bits, up)
            assert got == root


class TestPi:
    def test_contains_reference(self):
        for bits in (16, 53, 256, 1024):
            iv = pi_enclosure(bits)
            assert contains(iv, PI_REF)
            assert width_of(iv) <= Fraction(1, 2**bits)

    def test_example_windows(self):
        iv = pi_enclosure(53)
        assert Fraction("3.14159265358979") <= iv.lo.as_fraction()
        assert iv.hi.as_fraction() <= Fraction("3.14159265358980")
        iv16 = pi_enclosure(16)
        assert Fraction("3.1415") <= iv16.lo.as_fraction()
        assert iv16.hi.as_fraction() <= Fraction("3.1416")

    def test_monotone_refinement(self):
        assert width_of(pi_enclosure(128)) < width_of(pi_enclosure(64))

    def test_minimum_precision(self):
        with pytest.raises(ParameterError):
            pi_enclosure(4)


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

    def test_cap_itself_accepted(self, no_pi):
        # d_n involves no pi, so the top precision is cheap to reach
        iv = evaluate(d_sequence_expr(1), certify._MAX_PRECISION_BITS)
        assert contains(iv, Fraction(157, 160))


def positive_fractions(hi: int):
    return st.builds(Fraction, st.integers(1, hi), st.integers(1, hi))


def mp_root_bound(a: Fraction, b: Fraction, r: Fraction, k: int):
    """(a + b/sqrt(3)) * sqrt(r / pi**k) in mpmath at the working precision."""
    def mpf(x: Fraction):
        return mpmath.mpf(x.numerator) / x.denominator

    return (mpf(a) + mpf(b) / mpmath.sqrt(3)) * mpmath.sqrt(mpf(r) / mpmath.pi**k)


def scaled_fractions(hi: int, decades: int):
    """Fractions p/q with p, q in 1..hi, times 10**e for |e| <= decades."""
    return st.builds(
        lambda fr, e: fr * Fraction(10) ** e, positive_fractions(hi), st.integers(-decades, decades)
    )


class TestEvaluateProperties:
    """The four shapes the builders produce: sqrt(r/pi) (main, corollary,
    Wallis, Bessel chain), d_n for odd and even n, and d_n times the main
    bound; ``r`` also from 10**-40 to 10**40, where the shift of each root
    must still keep the relative width."""

    @settings(max_examples=160, deadline=None)
    @given(
        a=positive_fractions(10**6),
        b=st.one_of(st.just(ZERO), positive_fractions(10**6)),
        r=st.one_of(st.just(ONE), positive_fractions(10**6), scaled_fractions(10**6, 40)),
        k=st.sampled_from([0, 1]),
        bits=st.integers(64, 512),
    )
    def test_encloses_reference_with_relative_width(self, a, b, r, k, bits):
        iv = evaluate(RootBound(a, b, r, k), bits)
        with mpmath.workprec(bits + 256):
            ref = frac_of_mpf(mp_root_bound(a, b, r, k))
        assert contains(iv, ref)
        assert width_of(iv) / ref <= Fraction(1, 2 ** (bits - 2))

    @settings(max_examples=60, deadline=None)
    @given(
        a=positive_fractions(10**6),
        b=st.one_of(st.just(ZERO), positive_fractions(10**6)),
        r=scaled_fractions(10**6, 40),
        bits=st.integers(64, 512),
    )
    def test_encloses_the_bound_at_both_ends_of_pi(self, a, b, r, bits):
        """With pi enclosed by [3, 7/2], the bound must cover both ends:
        pi's upper end under the lower root and its lower end under the
        upper one.  The real enclosure is too narrow to show a swap."""
        wide = Interval(Dyadic(3, 0), Dyadic(7, -1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "pi_enclosure", lambda _bits: wide)
            iv = evaluate(RootBound(a, b, r, 1), bits)
        with mpmath.workprec(bits + 256):
            at_hi = frac_of_mpf(mp_root_bound(a, b, r / Fraction(7, 2), 0))
            at_lo = frac_of_mpf(mp_root_bound(a, b, r / 3, 0))
        assert iv.lo.as_fraction() <= at_hi and at_lo <= iv.hi.as_fraction()


def decide(lhs: Fraction, bound: RootBound, precision_bits: int = 256):
    """The one decision path: lhs < bound against one enclosure of bound."""
    return verdict_between(lhs, evaluate(bound, precision_bits), precision_bits)


class TestCertifyLess:
    """Certified decisions of c < bound, through ``decide``."""

    def test_reversed_boundary_case(self):
        v = decide(Fraction(1, 5), root_over_pi(Fraction(6, 48)))
        assert v.outcome is Outcome.FAILS
        margin = float(v.margin.lo.as_fraction())
        assert -6e-4 < margin < -5e-4

    def test_holds_case(self):
        v = decide(Fraction(3, 8), root_over_pi(Fraction(6, 12)))
        assert v.outcome is Outcome.HOLDS

    def test_exception_free_cell(self):
        v = decide(Fraction(1, 4), root_over_pi(Fraction(6, 30)))
        assert v.outcome is Outcome.HOLDS

    def test_margin_sign_matches_outcome(self):
        for lhs, expr in [
            (Fraction(1, 5), root_over_pi(Fraction(6, 48))),
            (Fraction(3, 8), root_over_pi(Fraction(6, 12))),
        ]:
            v = decide(lhs, expr)
            if v.outcome is Outcome.HOLDS:
                assert v.margin.lo.sign > 0
            elif v.outcome is Outcome.FAILS:
                assert v.margin.hi.sign < 0
            else:
                assert v.margin.lo.sign <= 0 <= v.margin.hi.sign

    def test_tiny_margin_decided_at_256_bits(self):
        # 1/sqrt(pi) rounded down to a multiple of 2**-100: the margin is
        # below 2**-100, too small for 64 bits
        with mpmath.workprec(400):
            ref = frac_of_mpf(1 / mpmath.sqrt(mpmath.pi))
        lhs = Fraction(floor(ref * 2**100), 2**100)
        assert decide(lhs, wallis_bound_expr(1), 64).outcome is Outcome.INCONCLUSIVE
        assert decide(lhs, wallis_bound_expr(1), 256).outcome is Outcome.HOLDS

    def test_equality_is_inconclusive_at_cap(self):
        # d_1 = 157/160 is rational, so no precision separates it from itself
        v = decide(Fraction(157, 160), d_sequence_expr(1), 512)
        assert v.outcome is Outcome.INCONCLUSIVE

    def test_stability_under_escalation(self):
        # decisions may sharpen but never flip between precisions
        for ell, n in [(2, 1), (5, 2), (3, 7), (9, 2), (4, 50)]:
            expr = main_bound_expr(ell, n)
            from uniconc.exactdist import LatticeParams, concentration

            c = concentration(LatticeParams(ell, n))
            low = decide(c, expr, 64)
            high = decide(c, expr, 4096)
            if low.outcome is not Outcome.INCONCLUSIVE:
                assert low.outcome is high.outcome

    def test_rejects_non_expression(self):
        with pytest.raises(ExpressionError):
            evaluate(0.75, 256)

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
