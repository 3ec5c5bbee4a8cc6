"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (run with `pytest -s`
to see them live).  The single-point two-lattice comparison of criterion 9a,
c(ell,n) <= (2/ell)*c(2,n), is false on a proven exception set E; criterion
9a checks the relation on every cell outside E and the exact closed forms of
both sides on E, so a new violation and a lost counterexample both fail it.
"""

import math
import time
from fractions import Fraction
from math import comb

import pytest

from uniconc.asymptotics import clt_ratio, local_clt_sup_dev
from uniconc.bounds import (
    bessel_G,
    corollary_bound_expr,
    d_sequence_expr,
    wallis_bound_expr,
)
from uniconc.certify import Outcome, RootBound, evaluate, verdict_between
from uniconc.exactdist import (
    LatticeParams,
    argmax_set,
    concentration,
    de_moivre_pmf,
    moments,
    pair_concentration,
    power,
)
from uniconc.spectral import fourier_pmf, split_integrals
from uniconc.sweep import CHECKS, SweepConfig, run_sweep, write_report_csv, write_report_json

from test_certify import fraction_of
from test_report_output import written

PRECISION_BITS = 256


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_theorem_sweep():
    """Certified sharp-bound verdicts over ell 2..40, n 1..400."""
    t0 = time.perf_counter()
    config = SweepConfig(
        ell_range=(2, 40),
        n_range=(1, 400),
        checks=("main",),
        precision_bits=PRECISION_BITS,
        parallelism=2,
    )
    report = run_sweep(config)
    elapsed = time.perf_counter() - t0
    s = report.summary
    reversed_cells = {(c.ell, c.n) for c in report.cells if c.expected == "reversed"}
    expected_reversed = {(ell, 2) for ell in range(5, 41)}
    ok = (
        s.cells == 39 * 400
        and s.inconclusive == 0
        and s.mismatches == 0
        and reversed_cells == expected_reversed
        and all(c.verdict in ("Holds", "Fails") for c in report.cells)
        and elapsed < 300.0
    )
    _report(
        "01",
        ok,
        f"theorem sweep: {s.cells} cells, {s.holds} hold, {s.fails} reversed-fail, "
        f"{s.inconclusive} inconclusive, {s.mismatches} mismatches, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_oracle_equivalence():
    """Alternating-sum pmf identical to the convolution pmf, every point."""
    points = 0
    for ell in range(2, 9):
        for n in range(1, 13):
            params = LatticeParams(ell, n)
            d = power(params)
            denom = d.denominator
            for k, num in enumerate(d.numerators):
                assert de_moivre_pmf(params, k) == Fraction(num, denom)
                points += 1
    _report("02", True, f"de Moivre vs convolution: {points} point checks, all equal")


def test_criterion_03_first_two_powers():
    """c(ell,1) = c(ell,2) = 1/ell exactly for ell 2..100."""
    for ell in range(2, 101):
        assert concentration(LatticeParams(ell, 1)) == Fraction(1, ell)
        assert concentration(LatticeParams(ell, 2)) == Fraction(1, ell)
    _report("03", True, "c(ell,1) = c(ell,2) = 1/ell for ell 2..100")


def test_criterion_04_central_argmax():
    """The pmf peaks exactly at the one or two central points."""
    for ell in range(2, 9):
        for n in range(1, 13):
            params = LatticeParams(ell, n)
            peak = argmax_set(power(params))
            central = {params.top // 2, (params.top + 1) // 2}
            if n == 1:
                assert central <= peak
            else:
                assert peak == central
    _report("04", True, "argmax is the central point set, ell 2..8, n 1..12")


def test_criterion_05_wallis():
    """Central binomial probabilities below 1/sqrt(pi*k), certified, k 1..2000."""
    for k in range(1, 2001):
        central = Fraction(comb(2 * k, k), 4**k)
        verdict = verdict_between(
            central, evaluate(wallis_bound_expr(k), PRECISION_BITS), PRECISION_BITS
        )
        assert verdict.outcome is Outcome.HOLDS, f"k={k}"
    for k in range(1, 51):
        central = Fraction(comb(2 * k, k), 4**k)
        assert concentration(LatticeParams(2, 2 * k - 1)) == central
        assert concentration(LatticeParams(2, 2 * k)) == central
    _report("05", True, "Wallis bound certified k 1..2000; pairing identity k 1..50")


def test_criterion_06_bessel_chain():
    """pair < G(2n/3) < sqrt(3/(pi*n)) certified for n 1..200."""
    for n in range(1, 201):
        pair = pair_concentration(power(LatticeParams(3, n)))
        middle = bessel_G(Fraction(2 * n, 3), PRECISION_BITS)
        width = fraction_of(middle.hi) - fraction_of(middle.lo)
        assert width <= fraction_of(middle.lo) / 2 ** (PRECISION_BITS - 2)
        outer = evaluate(RootBound(Fraction(1), Fraction(0), Fraction(3, n), 1), PRECISION_BITS)
        assert verdict_between(pair, middle, PRECISION_BITS).outcome is Outcome.HOLDS, n
        assert verdict_between(middle, outer, PRECISION_BITS).outcome is Outcome.HOLDS, n
    spot = bessel_G(Fraction(4, 3), PRECISION_BITS)
    # the whole enclosure rounds to the 30-digit reference value
    spot_ref, half_unit = Fraction("0.612214668849917637458479695418"), Fraction(5, 10**31)
    assert spot_ref - half_unit <= fraction_of(spot.lo)
    assert fraction_of(spot.hi) <= spot_ref + half_unit
    assert verdict_between(Fraction(5, 9), spot, 128).outcome is Outcome.HOLDS
    _report("06", True, "adjacent-pair chain certified n 1..200; G(4/3) spot checked")


def test_criterion_07_fourier_oracle():
    """Quadrature pmf within 1e-10 of exact everywhere; split reproduces the peak."""
    worst = 0.0
    for ell in (2, 3, 5, 10):
        for n in range(1, 21):
            params = LatticeParams(ell, n)
            d = power(params)
            for k in range(params.top + 1):
                approx = fourier_pmf(ell, n, k, 1e-11).value
                worst = max(worst, abs(approx - float(d.pmf(k))))
            inner, outer = split_integrals(ell, n, 1e-11)
            exact_c = float(concentration(params))
            worst = max(worst, abs(inner.value + outer.value - exact_c))
            if n % 2 == 1:
                assert outer.value <= 1e-10, (ell, n)
    assert worst <= 1e-10
    _report("07", True, f"Fourier inversion oracle: max |error| = {worst:.2e} <= 1e-10")


def test_criterion_08_majorant_sequence():
    """d_2 > 1 and d_n < 1 certified; the rescaled peak stays below d_n."""
    d2 = evaluate(d_sequence_expr(2), 64)
    assert verdict_between(Fraction(1), d2, 64).outcome is Outcome.HOLDS
    for n in [1] + list(range(3, 10001)):
        dn = evaluate(d_sequence_expr(n), 64)
        assert verdict_between(dn, Fraction(1), 64).outcome is Outcome.HOLDS, n
    worst_slack = -math.inf
    for ell in range(2, 11):
        for n in range(1, 201):
            ratio = clt_ratio(ell, n, concentration(LatticeParams(ell, n)))
            upper = float(fraction_of(evaluate(d_sequence_expr(n), 64).hi))
            worst_slack = max(worst_slack, ratio - upper)
            assert ratio <= upper + 1e-9, (ell, n)
    _report(
        "08",
        True,
        f"d_2 > 1, d_n < 1 for n in {{1}}+3..10000; max(ratio - d_n) = {worst_slack:.2e}",
    )


def test_criterion_09a_two_lattice_reduction():
    """Single-point comparison against the two-point lattice, ell 2..12, n 1..60.

    The relation c(ell,n) <= (2/ell)*c(2,n) is false exactly on
    E = {(ell,3) : ell odd, ell >= 3} | {(3,5)}.  For odd ell the central
    count of three uniforms is (3ell^2+1)/4, so c(ell,3) = (3ell^2+1)/(4ell^3)
    exceeds (2/ell)*c(2,3) = 3/(4ell); and c(3,5) = 17/81 > (2/3)*(10/32) = 5/24.
    The test asserts that the violating cells are E on the grid, that the
    relation holds on every other cell, and the closed forms on E.
    """
    ells, ns = range(2, 13), range(1, 61)
    proven = {(ell, 3) for ell in ells if ell % 2 == 1 and ell >= 3} | {(3, 5)}
    violations = []
    for ell in ells:
        for n in ns:
            c = concentration(LatticeParams(ell, n))
            rhs = Fraction(2, ell) * concentration(LatticeParams(2, n))
            if c > rhs:
                violations.append((ell, n, str(c), str(rhs)))
            if (ell, n) == (3, 5):
                assert (c, rhs) == (Fraction(17, 81), Fraction(5, 24))
            elif (ell, n) in proven:
                assert c == Fraction(3 * ell**2 + 1, 4 * ell**3), (ell, n, c)
                assert rhs == Fraction(3, 4 * ell), (ell, n, rhs)
    found = {(ell, n) for ell, n, _, _ in violations}
    _report(
        "09a",
        found == proven,
        f"two-lattice single-point reduction: {len(violations)} counterexamples, "
        f"{'exactly' if found == proven else 'NOT'} the proven set {violations}",
    )
    assert found == proven, (
        f"unexpected violations {sorted(found - proven)}, "
        f"missing counterexamples {sorted(proven - found)}"
    )


def test_bretagnolle_violations_on_wide_scan_are_exactly_E():
    """The relation c(ell,n) <= (2/ell)*C(n, n//2)/2**n fails on ell 2..40,
    n 1..120 at exactly the 20 cells of E in that range and nowhere else.

    The right-hand side is the closed form of (2/ell)*c(2,n); E is written
    from the proof in criterion 9a, not taken from the sweep.
    """
    ells, ns = range(2, 41), range(1, 121)
    proven = {(ell, 3) for ell in ells if ell % 2 == 1 and ell >= 3} | {(3, 5)}
    found = {
        (ell, n)
        for ell in ells
        for n in ns
        if concentration(LatticeParams(ell, n)) > Fraction(2 * comb(n, n // 2), ell * 2**n)
    }
    assert len(proven) == 20
    assert found == proven, (
        f"unexpected violations {sorted(found - proven)}, "
        f"missing counterexamples {sorted(proven - found)}"
    )


def test_criterion_09b_corollary_bound():
    """Simplified bound 2*sqrt(2/pi)/(ell*sqrt(n)) certified, ell 2..12, n 1..60."""
    for ell in range(2, 13):
        for n in range(1, 61):
            c = concentration(LatticeParams(ell, n))
            bound = evaluate(corollary_bound_expr(ell, n), PRECISION_BITS)
            verdict = verdict_between(c, bound, PRECISION_BITS)
            assert verdict.outcome is Outcome.HOLDS, (ell, n)
    _report("09b", True, "corollary bound certified on ell 2..12, n 1..60")


def test_criterion_10_local_clt_sharpness():
    """Peak ratio near one at n = 1000; sup deviation shrinking in n."""
    ratios = {}
    for ell in (2, 3, 4, 5):
        r = clt_ratio(ell, 1000, concentration(LatticeParams(ell, 1000)))
        ratios[ell] = r
        assert 0.999 < r < 1.0, (ell, r)
    devs = [local_clt_sup_dev(2, n) for n in (25, 100, 400)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.005
    _report(
        "10",
        True,
        f"ratios at n=1000: {ratios}; sup deviations {[f'{d:.2e}' for d in devs]}",
    )


def test_criterion_11_moment_identities():
    """Exact mean n(ell-1)/2 and variance n(ell^2-1)/12, ell 2..10, n 1..20."""
    for ell in range(2, 11):
        for n in range(1, 21):
            mean, var = moments(power(LatticeParams(ell, n)))
            assert mean == Fraction(n * (ell - 1), 2)
            assert var == Fraction(n * (ell * ell - 1), 12)
    _report("11", True, "moment identities exact on ell 2..10, n 1..20")


def test_criterion_12_determinism():
    """Byte-identical reports from worker pools of size 1 and 8."""
    base = dict(
        ell_range=(2, 8),
        n_range=(1, 20),
        checks=CHECKS,
        precision_bits=PRECISION_BITS,
    )
    serial = run_sweep(SweepConfig(**base, parallelism=1))
    pooled = run_sweep(SweepConfig(**base, parallelism=8))
    csv_equal = written(write_report_csv, serial) == written(write_report_csv, pooled)
    json_equal = written(write_report_json, serial) == written(write_report_json, pooled)
    ok = csv_equal and json_equal
    _report(
        "12",
        ok,
        f"all-checks sweep, {serial.summary.cells} cells: csv identical={csv_equal}, "
        f"json identical={json_equal}",
    )
    assert ok
