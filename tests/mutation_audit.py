"""Mutation audit: every directed rounding in the certified layer, and every
decision listed beside them, is guarded by a test.

Each site in ``SITES`` is one rounding direction in ``certify.py`` or
``bounds.py``: an ``up`` or ``not up`` argument, the choice of pi's end or
of a sum's direction, or a tail term, given as (file, exact line text,
replacement); the tests in ``SUBSET`` must kill it.  Each site in
``DECISION_SITES`` is one other choice a verdict rests on, such as an
``expected`` rule or a check's comparison, given as (file, exact line text,
replacement, the test file that must kill it).  For each site in turn the
audit copies ``src`` to a temporary directory, applies that one
replacement, and runs the site's tests with ``-x`` against the copy, one
run after another.  A mutant that passes them survives.

The audit fails if any mutant survives, if a site's text is not found
exactly once, or if the unmutated copy does not pass every site's tests.
A survivor is a missing test: add the test that kills it, never drop the
site.  A change that adds a directed rounding or a decision adds its site
here.  A mutant that changes no output is not a site: it goes in
``EQUIVALENT_MUTANTS`` with the reason, and the audit does not run it.

Run from the root of a checkout:

    python tests/mutation_audit.py

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the fast tests that kill every rounding mutant below
SUBSET = ("tests/test_certify.py", "tests/test_bounds.py")

_CERTIFY = "src/uniconc/certify.py"
_BOUNDS = "src/uniconc/bounds.py"
_SWEEP = "src/uniconc/sweep.py"
_EXACTDIST = "src/uniconc/exactdist.py"
_CLI_TESTS = "tests/test_cli.py"
_BOUNDS_TESTS = "tests/test_bounds.py"

SITES = [
    # _round_ratio: the one quotient, at either sign of the exponent
    (_CERTIFY,
     "q = _div(num, den << e, up) if e >= 0 else _div(num << -e, den, up)",
     "q = _div(num, den << e, not up) if e >= 0 else _div(num << -e, den, up)"),
    (_CERTIFY,
     "q = _div(num, den << e, up) if e >= 0 else _div(num << -e, den, up)",
     "q = _div(num, den << e, up) if e >= 0 else _div(num << -e, den, not up)"),
    # _sqrt_ratio: the ratio under the root, at either sign of the shift
    (_CERTIFY,
     "q = _div(num << 2 * h, den, up) if h >= 0 else _div(num, den << -2 * h, up)",
     "q = _div(num << 2 * h, den, not up) if h >= 0 else _div(num, den << -2 * h, up)"),
    (_CERTIFY,
     "q = _div(num << 2 * h, den, up) if h >= 0 else _div(num, den << -2 * h, up)",
     "q = _div(num << 2 * h, den, up) if h >= 0 else _div(num, den << -2 * h, not up)"),
    # _round_sum
    (_CERTIFY,
     "return _round_ratio(a * d + sign * c * b, b * d, bits, up)",
     "return _round_ratio(a * d + sign * c * b, b * d, bits, not up)"),
    # _terms, the stepper: each term
    (_CERTIFY,
     "term = _div(term * num, den, up)",
     "term = _div(term * num, den, not up)"),
    # _series: the tail term on the upper chain only
    (_CERTIFY,
     "return total + 2 * term if up else total",
     "return total + 2 * term if not up else total"),
    # _arctan_recip: the first term and the chain
    (_CERTIFY,
     "return _series(lambda m: (2 * m, (2 * m + 1) * d), _div(q << bits, d, up), up)",
     "return _series(lambda m: (2 * m, (2 * m + 1) * d), _div(q << bits, d, not up), up)"),
    (_CERTIFY,
     "return _series(lambda m: (2 * m, (2 * m + 1) * d), _div(q << bits, d, up), up)",
     "return _series(lambda m: (2 * m, (2 * m + 1) * d), _div(q << bits, d, up), not up)"),
    # _pi: Machin's two arctangents, rounded opposite ways
    (_CERTIFY,
     "man = 16 * _arctan_recip(5, bits, up) - 4 * _arctan_recip(239, bits, not up)",
     "man = 16 * _arctan_recip(5, bits, not up) - 4 * _arctan_recip(239, bits, not up)"),
    (_CERTIFY,
     "man = 16 * _arctan_recip(5, bits, up) - 4 * _arctan_recip(239, bits, not up)",
     "man = 16 * _arctan_recip(5, bits, up) - 4 * _arctan_recip(239, bits, up)"),
    # evaluate: pi's end, the roots and their sum
    (_CERTIFY,
     "pi = (pi_k.lo if up else pi_k.hi) if pi_k else 1",
     "pi = (pi_k.hi if up else pi_k.lo) if pi_k else 1"),
    (_CERTIFY,
     "roots = [_sqrt_ratio(num * pi.denominator, den * pi.numerator, bits, up) for num, den in terms]",
     "roots = [_sqrt_ratio(num * pi.denominator, den * pi.numerator, bits, not up) for num, den in terms]"),
    (_CERTIFY,
     "return roots[0] if len(roots) == 1 else _round_sum(*roots, 1, bits, up)",
     "return roots[0] if len(roots) == 1 else _round_sum(*roots, 1, bits, not up)"),
    # verdict_between: the margin's two ends
    (_CERTIFY,
     "_round_sum(rhs_lo, lhs_hi, -1, bits, False), _round_sum(rhs_hi, lhs_lo, -1, bits, True)",
     "_round_sum(rhs_lo, lhs_hi, -1, bits, True), _round_sum(rhs_hi, lhs_lo, -1, bits, True)"),
    (_CERTIFY,
     "_round_sum(rhs_lo, lhs_hi, -1, bits, False), _round_sum(rhs_hi, lhs_lo, -1, bits, True)",
     "_round_sum(rhs_lo, lhs_hi, -1, bits, False), _round_sum(rhs_hi, lhs_lo, -1, bits, False)"),
    # bessel_G: S0 taken the opposite way from S1, and the quotient
    (_BOUNDS,
     "s1, s0 = sums[up][1], sums[not up][0]",
     "s1, s0 = sums[up][1], sums[up][0]"),
    (_BOUNDS,
     "ends.append(_round_ratio(s1, s0 * s0, bits, up))",
     "ends.append(_round_ratio(s1, s0 * s0, bits, not up))"),
    # _skellam_sums: the upward and the downward chain
    (_BOUNDS,
     "up0, up1 = _side_sums(lambda m: (p, 2 * q * (k0 + m)), one, up)",
     "up0, up1 = _side_sums(lambda m: (p, 2 * q * (k0 + m)), one, not up)"),
    (_BOUNDS,
     "down0, down1 = _side_sums(lambda m: (2 * q * (k0 + 1 - m), p), one, up) if k0 else (0, 0)",
     "down0, down1 = _side_sums(lambda m: (2 * q * (k0 + 1 - m), p), one, not up) if k0 else (0, 0)"),
    # _side_sums: the tail terms of S0 and S1, on the upper chain only
    (_BOUNDS,
     "s0 + 2 * prev if up else s0",
     "s0 + 2 * prev if not up else s0"),
    (_BOUNDS,
     "s1 + 2 * prev * prev if up else s1",
     "s1 + 2 * prev * prev if not up else s1"),
]

DECISION_SITES = [
    # _cell_main: the paper's n = 2 reversal starts at ell = 5
    (_SWEEP,
     'expected = "reversed" if (p.n == 2 and p.ell >= 5) else "holds"',
     'expected = "reversed" if (p.n == 2 and p.ell >= 6) else "holds"',
     _CLI_TESTS),
    # _cell_argmax: past n = 1 the central points are the only maxima
    (_SWEEP,
     "ok = central <= peak if p.n == 1 else peak == central",
     "ok = central <= peak",
     _CLI_TESTS),
    # _cell_moments: the mean is compared as well as the variance
    (_SWEEP,
     "ok = mean == Fraction(p.n * (p.ell - 1), 2) and var == p.variance",
     "ok = var == p.variance",
     _CLI_TESTS),
    # corollary_bound_expr: the radicand 8 / (ell**2 n), not main's ell**2 - 1
    (_BOUNDS,
     "return _pi_root(Fraction(8, ell * ell * n))",
     "return _pi_root(Fraction(8, (ell * ell - 1) * n))",
     _BOUNDS_TESTS),
    # d_sequence_expr: the constants 3/20 and 21/160 of d_n
    (_BOUNDS,
     "rational = Fraction(160 * n * n - 24 * n + 21, 160 * n * n)",
     "rational = Fraction(160 * n * n - 23 * n + 21, 160 * n * n)",
     _BOUNDS_TESTS),
    (_BOUNDS,
     "rational = Fraction(160 * n * n - 24 * n + 21, 160 * n * n)",
     "rational = Fraction(160 * n * n - 24 * n + 20, 160 * n * n)",
     _BOUNDS_TESTS),
    # _cell_wallis: k is matched so that c(2, n) = C(2k, k) / 4**k
    (_SWEEP,
     "return _certified_cell(p, check, bounds.wallis_bound_expr((p.n + 1) // 2), prec)",
     "return _certified_cell(p, check, bounds.wallis_bound_expr(p.n // 2 + 1), prec)",
     _CLI_TESTS),
    # _cell_bretagnolle: the comparison is non-strict, equality at ell = 2
    (_SWEEP,
     'verdict = "Holds" if margin >= 0 else "Fails"',
     'verdict = "Holds" if margin > 0 else "Fails"',
     _CLI_TESTS),
    # _Point.variance, which moments and the Bessel chain read, wrong at one ell
    (_SWEEP,
     "return Fraction(self.n * (self.ell * self.ell - 1), 12)",
     "return Fraction(self.n * (self.ell * self.ell - 1), 12 if self.ell != 7 else 11)",
     _CLI_TESTS),
    # _cell_oracle_equiv: each off-support de Moivre probe, dropped alone
    (_SWEEP,
     "ok = ok and de_moivre_pmf(params, -1) == 0 and de_moivre_pmf(params, params.top + 1) == 0",
     "ok = ok and de_moivre_pmf(params, params.top + 1) == 0",
     _CLI_TESTS),
    (_SWEEP,
     "ok = ok and de_moivre_pmf(params, -1) == 0 and de_moivre_pmf(params, params.top + 1) == 0",
     "ok = ok and de_moivre_pmf(params, -1) == 0",
     _CLI_TESTS),
    # _cell_bessel_chain: the chain's margin is the componentwise minimum
    (_SWEEP,
     "chain = Verdict(Interval(min(left.lo, right.lo), min(left.hi, right.hi)))",
     "chain = Verdict(Interval(max(left.lo, right.lo), min(left.hi, right.hi)))",
     _CLI_TESTS),
    # SweepSummary.unexpected counts Inconclusive cells too
    (_SWEEP,
     "return self.mismatches + self.inconclusive",
     "return self.mismatches",
     _CLI_TESTS),
    # SweepCell.mismatch: a Fails cell in a holds region is a mismatch
    (_SWEEP,
     'return self.verdict != "Inconclusive" and (self.expected == "holds") != (',
     'return self.verdict == "Holds" and (self.expected == "holds") != (',
     _CLI_TESTS),
]

# mutants that change no output, so no test can kill them; each is listed
# with the reason, as (file, exact line text, replacement, reason), and the
# audit does not run them
EQUIVALENT_MUTANTS = [
    (_SWEEP,
     "width = ((p.ell**p.n).bit_length() + 7) // 8",
     "width = ((p.ell**p.n).bit_length() + 15) // 8",
     "a wider packing slot still holds every coefficient, so the packing stays "
     "injective and the product carry-free"),
    (_SWEEP,
     "chunk = max(1, len(tasks) // (workers * 8))",
     "chunk = max(1, len(tasks) // workers)",
     "the chunk size batches tasks for the pool, whose map returns them in "
     "task order at any size"),
    (_EXACTDIST,
     "best = nums[c] + nums[c + 1] if len(nums) > 1 else nums[0]",
     "best = nums[c] + nums[c + 1] + 0 * nums[-1] if len(nums) > 1 else nums[0]",
     "the added term is zero"),
]


def mutants() -> list[tuple[str, str, str, tuple[str, ...]]]:
    """Every site of both lists as (file, text, replacement, the tests that
    must kill it)."""
    rounding = [(*site, SUBSET) for site in SITES]
    return rounding + [(*site, (tests,)) for *site, tests in DECISION_SITES]


# pytest under a hypothesis profile that draws the same examples on every
# run, keeps no example database (one mutant's failure would steer the next
# run), has no deadline, and reports a failure unshrunk: a kill needs a
# failing test, not its smallest example
_PYTEST = """
import sys
import pytest
from hypothesis import Phase, settings
settings.register_profile(
    "mutation_audit", derandomize=True, database=None, deadline=None,
    phases=(Phase.explicit, Phase.generate),
)
settings.load_profile("mutation_audit")
sys.exit(pytest.main(sys.argv[1:]))
"""


def missing_sites(root: Path) -> list[str]:
    """The sites whose text is not found exactly once in ``root``'s files."""
    bad = []
    for path, text, _, _ in mutants():
        count = (root / path).read_text(encoding="utf-8").count(text)
        if count != 1:
            bad.append(f"{path}: {text!r} found {count} times")
    return bad


def run_subset(src: Path, tests: tuple[str, ...]) -> bool:
    """Whether ``tests`` pass with the package imported from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", "import uniconc; print(uniconc.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    if not Path(where.strip()).is_relative_to(src):
        raise RuntimeError(f"uniconc is imported from {where.strip()}, not from {src}")
    cmd = [sys.executable, "-c", _PYTEST, "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode == 0


def main() -> int:
    bad = missing_sites(ROOT)
    if bad:
        print("sites not found exactly once:", *bad, sep="\n  ")
        return 1
    start = time.perf_counter()
    sites, survivors = mutants(), []
    # every test file any site names, each once, in order
    every = tuple(dict.fromkeys(test for *_, tests in sites for test in tests))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        if not run_subset(src, every):
            print(f"the unmutated copy fails {' '.join(every)}")
            return 1
        print(f"the unmutated copy passes in {time.perf_counter() - start:.1f}s")
        for i, (path, text, replacement, tests) in enumerate(sites, 1):
            target = Path(tmp) / path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(text, replacement), encoding="utf-8")
            t = time.perf_counter()
            killed = not run_subset(src, tests)
            target.write_text(original, encoding="utf-8")
            print(f"{i:2d} {'killed' if killed else 'SURVIVED'} {time.perf_counter() - t:5.1f}s"
                  f"  {path}: {replacement}")
            if not killed:
                survivors.append(replacement)
    print(f"{len(sites) - len(survivors)} of {len(sites)} mutants killed"
          f" in {time.perf_counter() - start:.1f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
