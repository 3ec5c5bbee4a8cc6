"""Interval endpoints, enclosure soundness, and verdict semantics."""

import sys
import threading
from dataclasses import fields
from fractions import Fraction
from math import floor, isqrt

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniconc import certify
from uniconc.bounds import d_sequence_expr, main_bound_expr, wallis_bound_expr
from uniconc.certify import (
    Dyadic,
    Interval,
    Outcome,
    RootBound,
    Verdict,
    evaluate,
    pi_enclosure,
    verdict_between,
    _arctan_recip,
    _round_ratio,
    _round_sum,
    _series,
    _terms,
    _sqrt_ratio,
)
from uniconc.errors import DomainError, ExpressionError, ParameterError
from uniconc.sweep import decimal_string


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


def fraction_of(d: Dyadic) -> Fraction:
    return Fraction(d.numerator, d.denominator)


def contains(iv: Interval, v: Fraction) -> bool:
    return fraction_of(iv.lo) <= v <= fraction_of(iv.hi)


def width_of(iv: Interval) -> Fraction:
    return fraction_of(iv.hi) - fraction_of(iv.lo)


class TestRounding:
    def test_directions(self):
        down = _round_ratio(1, 3, 16, up=False)
        up = _round_ratio(1, 3, 16, up=True)
        third = Fraction(1, 3)
        assert fraction_of(down) < third < fraction_of(up)
        assert fraction_of(up) - fraction_of(down) <= Fraction(1, 2**14)

    def test_negative_mirrored(self):
        down = _round_ratio(-1, 3, 16, up=False)
        up = _round_ratio(-1, 3, 16, up=True)
        assert fraction_of(down) < Fraction(-1, 3) < fraction_of(up)

    def test_exact_dyadic_unchanged(self):
        for up in (False, True):
            d = _round_ratio(5, 8, 30, up)
            assert fraction_of(d) == Fraction(5, 8)

    def test_never_rounds_to_zero(self):
        tiny = _round_ratio(1, 10**50, 8, up=False)
        assert tiny.man > 0

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.fractions(max_denominator=10**40).filter(bool),
        scale=st.integers(1, 2**64),
        bits=st.integers(1, 256),
    )
    def test_directed_relative_and_of_the_value_alone(self, x, scale, bits):
        num, den = x.numerator, x.denominator
        down, up = (_round_ratio(num * scale, den * scale, bits, u) for u in (False, True))
        assert (down, up) == tuple(_round_ratio(num, den, bits, u) for u in (False, True))
        assert fraction_of(down) <= x <= fraction_of(up)
        assert fraction_of(up) - fraction_of(down) <= abs(x) / 2 ** (bits - 1)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.fractions(max_denominator=2**320).filter(bool),
        factor=st.integers(0, 2**64).map(lambda k: 2 * k + 1),
        bits=st.integers(1, 256),
    )
    # 2**p and one unit of 2**-300 either side, where bit lengths misjudge
    # the binary magnitude once an odd factor scales num and den
    @example(x=Fraction(2) ** 300 - Fraction(1, 2**300), factor=3, bits=53)
    @example(x=Fraction(2) ** 300, factor=3, bits=53)
    @example(x=-(Fraction(2) ** 300 + Fraction(1, 2**300)), factor=5, bits=53)
    @example(x=Fraction(1) - Fraction(1, 2**300), factor=3, bits=1)
    @example(x=-Fraction(1), factor=7, bits=8)
    @example(x=-(Fraction(1) + Fraction(1, 2**300)), factor=3, bits=256)
    @example(x=Fraction(2) ** -299 - Fraction(1, 2**300), factor=3, bits=64)
    @example(x=-Fraction(2) ** -300, factor=2**64 + 1, bits=64)
    @example(x=Fraction(2) ** -300 + Fraction(1, 2**300), factor=3, bits=1)
    def test_exponent_from_the_exact_magnitude(self, x, factor, bits):
        """Each end is directed, lies on the grid 2**(m - bits) where
        2**m <= |x| < 2**(m+1), with a mantissa in [2**bits, 2**(bits+1)], and
        depends on x alone however num and den are scaled."""
        m = x.numerator.bit_length() - x.denominator.bit_length()
        while Fraction(2) ** m > abs(x):
            m -= 1
        while Fraction(2) ** (m + 1) <= abs(x):
            m += 1
        num, den = x.numerator * factor, x.denominator * factor
        for up in (False, True):
            got = _round_ratio(num, den, bits, up)
            assert got == _round_ratio(x.numerator, x.denominator, bits, up)
            value = fraction_of(got)
            assert value >= x if up else value <= x
            mantissa = value / Fraction(2) ** (m - bits)
            assert mantissa.denominator == 1
            assert 2**bits <= abs(mantissa) <= 2 ** (bits + 1)


class TestIntervalOps:
    def test_endpoint_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(Dyadic(1, 0), Dyadic(-1, 0))


def _endpoints(lo: Dyadic, hi: Dyadic) -> Interval:
    return Interval(min(lo, hi), max(lo, hi))


dyadics = st.builds(Dyadic, st.integers(-(2**160), 2**160), st.integers(-200, 200))
intervals = st.builds(_endpoints, dyadics, dyadics)
# each side of a verdict: an int, a Fraction or an Interval
sides = st.one_of(
    st.integers(-(2**70), 2**70), st.fractions(max_denominator=3**80), intervals
)


class TestDyadicByValue:
    """A Dyadic may hold its value with any mantissa: order, equality and
    the numerator's sign see the value alone."""

    @settings(max_examples=200, deadline=None)
    @given(x=dyadics, y=dyadics, shift=st.integers(0, 64))
    def test_agrees_with_fractions(self, x, y, shift):
        scaled = Dyadic(x.man << shift, x.exp - shift)
        fx, fy = fraction_of(x), fraction_of(y)
        assert scaled == x
        assert (x < y, x == y, scaled < y, y < scaled) == (fx < fy, fx == fy, fx < fy, fy < fx)
        assert (scaled.numerator > 0, scaled.numerator < 0) == (fx > 0, fx < 0)

    @settings(max_examples=200, deadline=None)
    @given(
        d=dyadics,
        y=st.fractions(max_denominator=3**40),
        sign=st.sampled_from((1, -1)),
        bits=st.integers(1, 256),
    )
    def test_read_as_a_fraction_is_read(self, d, y, sign, bits):
        """``numerator`` over a power-of-two ``denominator`` is the value
        ``man * 2**exp``, and the renderer and the rounded sum, which read
        any rational by those two, give a Dyadic's result for its Fraction."""
        den = d.denominator
        assert den > 0 and den & (den - 1) == 0
        f = Fraction(d.numerator, den)
        assert f == d.man * Fraction(2) ** d.exp
        assert decimal_string(d) == decimal_string(f)
        for up in (False, True):
            assert _round_sum(d, y, sign, bits, up) == _round_sum(f, y, sign, bits, up)
            assert _round_sum(y, d, sign, bits, up) == _round_sum(y, f, sign, bits, up)

    def test_equal_values_in_other_forms(self):
        assert Dyadic(8, 0) == Dyadic(1, 3) == Dyadic(2**40, -37)
        assert Dyadic(0, 5) == Dyadic(0, -5)
        assert Interval(Dyadic(2, -1), Dyadic(6, 0)) == Interval(Dyadic(1, 0), Dyadic(3, 1))
        assert Dyadic(1, 0) != Fraction(1)


def sqrt_on_grid(x: Fraction, k: int, up: bool) -> Fraction:
    """sqrt(x) for x >= 0 rounded down, or up, to a multiple of 2**k."""
    n, d = (x / Fraction(4) ** k).as_integer_ratio()
    q = -(-n // d) if up else n // d
    root = isqrt(q)
    if up and root * root != q:
        root += 1
    return root * Fraction(2) ** k


def sqrt_ratio(num: int, den: int, bits: int, up: bool) -> Fraction:
    return fraction_of(_sqrt_ratio(num, den, bits, up))


class TestSqrt:
    """``_sqrt_ratio``, the one directed root behind ``evaluate``."""

    def test_perfect_square(self):
        for up in (False, True):
            assert sqrt_ratio(4, 1, 53, up) == 2
            assert sqrt_ratio(9, 64, 53, up) == Fraction(3, 8)
            assert sqrt_ratio(9 << 300, 1 << 306, 53, up) == Fraction(3, 8)

    def test_sqrt_two(self):
        iv = Interval(_sqrt_ratio(2, 1, 53, False), _sqrt_ratio(2, 1, 53, True))
        with mpmath.workprec(200):
            ref = frac_of_mpf(mpmath.sqrt(2))
        assert contains(iv, ref)
        assert width_of(iv) <= Fraction(1, 2**50)

    def test_zero(self):
        for up in (False, True):
            assert _sqrt_ratio(0, 1, 53, up).numerator == 0

    def test_square_contains_input(self):
        lo, hi = sqrt_ratio(2, 1, 64, False), sqrt_ratio(2, 1, 64, True)
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
        ``bits + 1`` significant bits; 2**exp is folded into num or den."""
        num, den = (num << exp, den) if exp >= 0 else (num, den << -exp)
        x = Fraction(num, den)
        lo, hi = sqrt_ratio(num, den, bits, False), sqrt_ratio(num, den, bits, True)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= lo / 2 ** (bits - 1)
        # the shift rule: 2k = -s with s the least even shift from the bit
        # lengths that is at least 2*bits + 2 - (len(num) - len(den))
        s = 2 * bits + 2 - num.bit_length() + den.bit_length()
        s += s % 2
        k = -s // 2
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
            got = sqrt_ratio(x.numerator << den_exp, x.denominator << den_exp, bits, up)
            assert got == root


class TestSeriesChains:
    """The directed term stepper and the series summed from it: pi sums
    through ``_series``, and bessel_G steps its Poisson weights by
    ``_terms``."""

    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    def test_exact_geometric_tail(self, k):
        # the terms 4**(k-m) are exact, so only the tail separates the two
        # chains from the sum 4**(k+1)/3
        lower = _series(lambda m: (1, 4), 4**k, False)
        upper = _series(lambda m: (1, 4), 4**k, True)
        assert lower < Fraction(4 ** (k + 1), 3) < upper
        assert upper - lower == 2

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 200), q=st.integers(1, 3), w=st.integers(0, 64))
    def test_exp_chains_bracket_the_scaled_sum(self, p, q, w):
        lower = _series(lambda m: (p, q * m), 2**w, False)
        upper = _series(lambda m: (p, q * m), 2**w, True)
        with mpmath.workprec(w + 400):
            ref = frac_of_mpf(mpmath.exp(mpmath.mpf(p) / q) * 2**w)
        assert lower <= ref <= upper

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_stop_waits_for_a_ratio_below_half(self, k):
        # k unit terms after the first, then ratio 1/4: the sum is k + 4/3,
        # and a term of 1 alone must not end the upper chain
        seen = []

        def ratio(m):
            seen.append(m)
            return (1, 1) if m <= k else (1, 4)

        lower, upper = (_series(ratio, 1, up) for up in (False, True))
        assert lower < k + Fraction(4, 3) < upper
        # one call per step: the pair read for the stop test makes the next term
        assert seen == [*range(1, k + 2)] * 2

    def test_stop_at_a_zero_term(self):
        # the third ratio is 0, and the ratio past the zero term it makes,
        # which would be negative here, is never read
        seen = []

        def ratio(m):
            seen.append(m)
            return (3 - m, 1)

        assert list(_terms(ratio, 5, False)) == list(_terms(ratio, 5, True)) == [5, 10, 10, 0]
        assert seen == [1, 2, 3] * 2
        assert _series(ratio, 5, False) == _series(ratio, 5, True) == 25

    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(2, 400), w=st.integers(0, 300))
    @example(q=2, w=0)
    @example(q=5, w=3)
    @example(q=239, w=0)
    def test_euler_arctan_chains_bracket(self, q, w):
        lower, upper = (_arctan_recip(q, w, up) for up in (False, True))
        with mpmath.workprec(w + 256):
            ref = frac_of_mpf(mpmath.atan(mpmath.mpf(1) / q) * 2**w)
        assert lower <= ref <= upper


class TestPi:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        # each test starts from an empty cache, and one that patches a
        # series leaves nothing in it
        certify._pi.cache_clear()
        yield
        certify._pi.cache_clear()

    def test_contains_reference(self):
        for bits in (16, 53, 256, 1024):
            iv = pi_enclosure(bits)
            assert contains(iv, PI_REF)
            assert width_of(iv) <= Fraction(1, 2**bits)

    def test_example_windows(self):
        iv = pi_enclosure(53)
        assert Fraction("3.14159265358979") <= fraction_of(iv.lo)
        assert fraction_of(iv.hi) <= Fraction("3.14159265358980")
        iv16 = pi_enclosure(16)
        assert Fraction("3.1415") <= fraction_of(iv16.lo)
        assert fraction_of(iv16.hi) <= Fraction("3.1416")

    def test_monotone_refinement(self):
        assert width_of(pi_enclosure(128)) < width_of(pi_enclosure(64))

    def test_minimum_precision(self):
        with pytest.raises(ParameterError):
            pi_enclosure(4)

    def test_cap_refused_before_the_series(self, monkeypatch):
        # evaluate asks for at most _MAX_PRECISION_BITS + _GUARD_BITS
        for bits in (16, 53):
            assert contains(pi_enclosure(bits), PI_REF)

        def refuse(ratio, first, up):
            raise AssertionError(f"a series started at {first.bit_length()} bits")

        monkeypatch.setattr(certify, "_series", refuse)
        # the cache sits behind the check, so no precision reaches a series
        for bits in (certify._MAX_PRECISION_BITS + certify._GUARD_BITS + 1, 4, True):
            with pytest.raises(ParameterError):
                pi_enclosure(bits)

    @settings(max_examples=40, deadline=None)
    @given(bits=st.integers(8, 3000))
    @example(bits=certify._MAX_PRECISION_BITS + certify._GUARD_BITS)
    def test_contains_pi_within_the_requested_width(self, bits):
        iv = pi_enclosure(bits)
        with mpmath.workprec(bits + 128):
            ref = frac_of_mpf(+mpmath.pi)
        assert contains(iv, ref)
        assert width_of(iv) <= Fraction(1, 2**bits)

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.integers(8, 200),
        slack=st.fixed_dictionaries(
            {(q, up): st.integers(0, 2**70) for q in (5, 239) for up in (False, True)}
        ),
    )
    @example(bits=53, slack={(5, False): 0, (5, True): 0, (239, False): 2**20, (239, True): 0})
    @example(bits=53, slack={(5, False): 0, (5, True): 0, (239, False): 0, (239, True): 2**20})
    def test_sound_for_any_sound_arctangent_bounds(self, bits, slack):
        # each end must take each arctangent's bound from the side that keeps
        # pi inside, however loose the other side is
        def loose(q, w, up):
            with mpmath.workprec(w + 128):
                exact = mpmath.atan(mpmath.mpf(1) / q) * 2**w
                end = int(mpmath.ceil(exact)) if up else int(mpmath.floor(exact))
            return end + slack[q, up] if up else end - slack[q, up]

        certify._pi.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(certify, "_arctan_recip", loose)
            iv = pi_enclosure(bits)
        certify._pi.cache_clear()
        assert contains(iv, PI_REF)

    def test_threads_share_one_fresh_precision(self):
        start = threading.Barrier(8, timeout=30)
        results = []

        def request():
            start.wait()
            results.append(pi_enclosure(997))

        threads = [threading.Thread(target=request) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(iv == results[0] for iv in results)
        assert contains(results[0], PI_REF)


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

    def test_rejects_non_expression(self):
        with pytest.raises(ExpressionError):
            evaluate(0.75, 256)

    def test_const_rejects_float(self):
        with pytest.raises(ExpressionError):
            RootBound(0.5, ZERO, ONE, 0)

    def test_sqrt_of_negative_expression(self):
        with pytest.raises(DomainError):
            RootBound(ONE, ZERO, Fraction(-1), 0)


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
        assert fraction_of(iv.lo) <= at_hi and at_lo <= fraction_of(iv.hi)


def decide(lhs: Fraction, bound: RootBound, precision_bits: int = 256):
    """The one decision path: lhs < bound against one enclosure of bound."""
    return verdict_between(lhs, evaluate(bound, precision_bits), precision_bits)


class TestVerdictBetween:
    """Certified decisions of lhs < rhs, directly and through ``decide``."""

    def test_reversed_boundary_case(self):
        v = decide(Fraction(1, 5), root_over_pi(Fraction(6, 48)))
        assert v.outcome is Outcome.FAILS
        margin = float(fraction_of(v.margin.lo))
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
                assert v.margin.lo.numerator > 0
            elif v.outcome is Outcome.FAILS:
                assert v.margin.hi.numerator < 0
            else:
                assert v.margin.lo.numerator <= 0 <= v.margin.hi.numerator

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

    def test_decided_verdicts_agree_across_precisions(self):
        # decisions may sharpen but never flip between precisions
        for ell, n in [(2, 1), (5, 2), (3, 7), (9, 2), (4, 50)]:
            expr = main_bound_expr(ell, n)
            from uniconc.exactdist import LatticeParams, concentration

            c = concentration(LatticeParams(ell, n))
            low = decide(c, expr, 64)
            high = decide(c, expr, 4096)
            if low.outcome is not Outcome.INCONCLUSIVE:
                assert low.outcome is high.outcome

    def test_fraction_vs_interval(self):
        iv = evaluate(RootBound(ONE, ZERO, Fraction(2), 0), 128)
        assert verdict_between(Fraction(7, 5), iv, 128).outcome is Outcome.HOLDS
        assert verdict_between(Fraction(3, 2), iv, 128).outcome is Outcome.FAILS

    @settings(max_examples=300, deadline=None)
    @given(lhs=sides, rhs=sides, precision_bits=st.integers(1, 256))
    def test_margin_is_the_endpoint_difference_rounded_once(self, lhs, rhs, precision_bits):
        """margin.lo is rhs.lo - lhs.hi and margin.hi is rhs.hi - lhs.lo, each
        exact and rounded once outward by ``_round_ratio``; the margin then
        encloses every rhs - lhs."""
        def ends(v):
            if isinstance(v, Interval):
                return fraction_of(v.lo), fraction_of(v.hi)
            return Fraction(v), Fraction(v)

        (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = ends(lhs), ends(rhs)
        low, high = rhs_lo - lhs_hi, rhs_hi - lhs_lo
        bits = precision_bits + certify._GUARD_BITS
        v = verdict_between(lhs, rhs, precision_bits)
        assert v.margin == Interval(
            _round_ratio(low.numerator, low.denominator, bits, False),
            _round_ratio(high.numerator, high.denominator, bits, True),
        )
        assert fraction_of(v.margin.lo) <= low and high <= fraction_of(v.margin.hi)
        if v.outcome is Outcome.HOLDS:
            assert low > 0
        elif v.outcome is Outcome.FAILS:
            assert high < 0
        else:
            assert v.margin.lo.numerator <= 0 <= v.margin.hi.numerator

    def test_overlapping_intervals_inconclusive(self):
        iv = evaluate(RootBound(ONE, ZERO, Fraction(2), 0), 64)
        assert verdict_between(iv, iv, 64).outcome is Outcome.INCONCLUSIVE

    @settings(max_examples=100, deadline=None)
    @given(margin=intervals)
    def test_verdict_holds_only_its_margin(self, margin):
        """The outcome is derived from the margin, so the two cannot disagree."""
        assert [f.name for f in fields(Verdict)] == ["margin"]
        with pytest.raises(TypeError):
            Verdict(Outcome.HOLDS, margin)
        outcome = Verdict(margin).outcome
        assert (outcome is Outcome.HOLDS) == (margin.lo.numerator > 0)
        assert (outcome is Outcome.FAILS) == (margin.hi.numerator < 0)
