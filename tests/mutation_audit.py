"""Mutation audit: every directed rounding in the certified layer is guarded
by a test.

Each site in ``SITES`` is one rounding direction in ``certify.py`` or
``bounds.py``: an ``up`` or ``not up`` argument, the choice of pi's end or
of a sum's direction, or a tail term, given as (file, exact line text,
replacement).  For each site in turn the audit copies ``src`` to a
temporary directory, applies that one replacement, and runs the tests in
``SUBSET`` with ``-x`` against the copy, one run after another.  A mutant that passes them
survives.

The audit fails if any mutant survives, if a site's text is not found
exactly once, or if the unmutated copy does not pass ``SUBSET``.  A
survivor is a missing test: add the test that kills it, never drop the
site.  A change that adds a directed rounding adds its site here.

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

# the fast tests that kill every mutant below
SUBSET = ("tests/test_certify.py", "tests/test_bounds.py")

_CERTIFY = "src/uniconc/certify.py"
_BOUNDS = "src/uniconc/bounds.py"

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
    for path, text, _ in SITES:
        count = (root / path).read_text(encoding="utf-8").count(text)
        if count != 1:
            bad.append(f"{path}: {text!r} found {count} times")
    return bad


def run_subset(src: Path) -> bool:
    """Whether ``SUBSET`` passes with the package imported from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", "import uniconc; print(uniconc.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    if not Path(where.strip()).is_relative_to(src):
        raise RuntimeError(f"uniconc is imported from {where.strip()}, not from {src}")
    cmd = [sys.executable, "-c", _PYTEST, "-x", "-q", "-p", "no:cacheprovider", *SUBSET]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode == 0


def main() -> int:
    bad = missing_sites(ROOT)
    if bad:
        print("sites not found exactly once:", *bad, sep="\n  ")
        return 1
    start = time.perf_counter()
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        if not run_subset(src):
            print(f"the unmutated copy fails {' '.join(SUBSET)}")
            return 1
        print(f"the unmutated copy passes in {time.perf_counter() - start:.1f}s")
        for i, (path, text, replacement) in enumerate(SITES, 1):
            target = Path(tmp) / path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(text, replacement), encoding="utf-8")
            t = time.perf_counter()
            killed = not run_subset(src)
            target.write_text(original, encoding="utf-8")
            print(f"{i:2d} {'killed' if killed else 'SURVIVED'} {time.perf_counter() - t:5.1f}s"
                  f"  {path}: {replacement}")
            if not killed:
                survivors.append(replacement)
    print(f"{len(SITES) - len(survivors)} of {len(SITES)} mutants killed"
          f" in {time.perf_counter() - start:.1f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
