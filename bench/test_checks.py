"""Tests of the benchmark's own output checks and tracing.

    python3 -m pytest -q bench/test_checks.py

Small versions of each workload are run through the CLI, their outputs are
checked, and then single values are corrupted: every corruption must make
exactly the operation it touches fail.
"""

from __future__ import annotations

import csv
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest

import checks
import worker  # puts the uniconc sources on sys.path
from workloads import REPORT_CHECKS, Query, large_n_queries

import uniconc.cli as cli
import uniconc.exactdist as exactdist

REPORT = Query(
    "report", ("report", "--ell-range", "2:6", "--n-range", "1:8", "--out", "{out}/report"),
    "report_sweep", {"checks": REPORT_CHECKS, "ell_range": (2, 6), "n_range": (1, 8)},
)
VERIFY = Query(
    "verify",
    ("verify", "--checks", "main,corollary,dsequence,wallis", "--ell-range", "2:7",
     "--n-range", "1:9", "--out", "{out}/verify.csv"),
    "verify_sweep",
    {"checks": ("main", "corollary", "dsequence", "wallis"), "ell_range": (2, 7), "n_range": (1, 9)},
)
LARGE = large_n_queries({
    "conc": (3, 40), "conc_pair": (3, 41), "pmf_support": (6, 9), "pmf_point": (4, 21),
    "verify_cell": (10, 30), "bessel_chain": (3, 25),
    "asymptotics_small": (2, 10), "asymptotics_large": (2, 40),
})
E_CELLS_IN_REPORT = 3  # (3,3), (5,3) and (3,5)


def run(queries, out):
    return [worker.run_query(cli, q, out) for q in queries]


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    return out, run([REPORT], out)


@pytest.fixture(scope="module")
def large_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("large")
    return out, run(LARGE, out)


def copy_dir(src, dst):
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def edit_report(out, check, ell, n, **changes):
    """Change fields of one cell in report.csv and report.json alike."""
    rows = list(csv.reader(io.StringIO((out / "report.csv").read_text())))
    header = rows[0]
    for row in rows[1:]:
        if (row[2], row[0], row[1]) == (check, str(ell), str(n)):
            for key, value in changes.items():
                if key in header:
                    row[header.index(key)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    (out / "report.csv").write_text(buf.getvalue())
    doc = json.loads((out / "report.json").read_text())
    for cell in doc["cells"]:
        if (cell["check"], cell["ell"], cell["n"]) == (check, ell, n):
            cell.update(changes)
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")


def cell(out, check, ell, n):
    doc = json.loads((out / "report.json").read_text())
    return next(c for c in doc["cells"] if (c["check"], c["ell"], c["n"]) == (check, ell, n))


def test_report_passes_except_the_known_exceptions(report_dir):
    out, codes = report_dir
    result = checks.check_pass([REPORT], codes, out)
    assert result.output_faults == []
    assert result.attempted == 9 * 5 * 8 - 4 * 8 - 4 * 8  # wallis and bessel_chain keep one ell
    assert result.failed == E_CELLS_IN_REPORT
    assert all("bretagnolle" in p and "expected=holds" in p for p in result.problems)


@pytest.mark.parametrize("change", ["verdict", "exact_fraction", "bound", "margin", "expected"])
def test_one_corrupted_cell_fails(report_dir, tmp_path, change):
    out = copy_dir(report_dir[0], tmp_path)
    before = cell(out, "main", 4, 5)
    if change == "verdict":
        edit_report(out, "main", 4, 5, verdict="Fails")
    elif change == "exact_fraction":
        num, den = before["exact_fraction"].split("/")
        edit_report(out, "main", 4, 5, exact_fraction=f"{int(num) + 1}/{den}")
    elif change == "bound":
        # an interval just above the true bound, still 30 digits wide
        shifted = f"{Decimal(before['bound_hi']) * (1 + Decimal('1e-20')):.29e}"
        edit_report(out, "main", 4, 5, bound_lo=shifted, bound_hi=shifted)
    elif change == "margin":
        edit_report(out, "main", 4, 5, margin_lo="0.5", margin_hi="0.6")
    else:
        edit_report(out, "main", 4, 5, expected="reversed")
    result = checks.check_pass([REPORT], report_dir[1], out)
    assert result.failed == E_CELLS_IN_REPORT + 1
    assert any(p.startswith("main (4,5)") for p in result.problems)


def test_verify_csv_flipped_verdict_fails(tmp_path):
    codes = run([VERIFY], tmp_path)
    assert checks.check_pass([VERIFY], codes, tmp_path).failed == 0
    text = (tmp_path / "verify.csv").read_text()
    line = next(l for l in text.splitlines() if l.startswith("3,4,corollary,"))
    (tmp_path / "verify.csv").write_text(text.replace(line, line.replace("Holds", "Fails")))
    result = checks.check_pass([VERIFY], codes, tmp_path)
    assert result.failed == 1
    assert result.problems[0].startswith("corollary (3,4)")


def test_wrong_exit_code_is_an_output_fault(report_dir):
    out, codes = report_dir
    assert checks.check_pass([REPORT], [0], out).output_faults


def test_large_n_queries_pass(large_dir):
    out, codes = large_dir
    result = checks.check_pass(LARGE, codes, out)
    assert (result.attempted, result.failed, result.output_faults) == (7, 0, [])


def bump_fraction(text: str) -> str:
    num, den = text.split("/")
    return f"{int(num) + 1}/{den}"


def off_by_one(out, name):
    """Add one to a numerator in a query's output."""
    if name in ("conc", "conc_pair", "pmf_point"):
        path = out / f"{name}.stdout"
        first, *rest = path.read_text().split(" ")
        path.write_text(" ".join([bump_fraction(first), *rest]))
    elif name == "pmf_support":
        path = out / f"{name}.stdout"
        lines = path.read_text().splitlines()
        k, value = lines[len(lines) // 2].split(" ")
        lines[len(lines) // 2] = f"{k} {bump_fraction(value)}"
        path.write_text("\n".join(lines) + "\n")
    elif name in ("verify_cell", "bessel_chain"):
        path = out / f"{name}.json"
        doc = json.loads(path.read_text())
        doc["cells"][0]["exact_fraction"] = bump_fraction(doc["cells"][0]["exact_fraction"])
        path.write_text(json.dumps(doc))
    else:  # asymptotics prints decimals: change the last digit of one
        path = out / "asymptotics.csv"
        lines = path.read_text().splitlines()
        n, c, rest = lines[1].split(",", 2)
        c = c[:-1] + str((int(c[-1]) + 1) % 10)
        lines[1] = ",".join((n, c, rest))
        path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", [q.name for q in LARGE])
def test_large_n_off_by_one_fails(large_dir, tmp_path, name):
    out = copy_dir(large_dir[0], tmp_path)
    off_by_one(out, name)
    result = checks.check_pass(LARGE, large_dir[1], out)
    assert result.failed == 1
    assert result.problems[0].startswith(name)


def test_verified_concentration_rejects_a_neighbour():
    exact = checks.verified_concentration("1/1", 10, 30)[0]
    assert exact is None
    # c(10,30) by the exact recurrence, then one more in the numerator
    import reference

    row = [r for n, r in reference.uniform_rows(10, 30)][-1]
    c = Fraction(reference.central(row), 10**30)
    assert checks.verified_concentration(checks.fraction_text(c), 10, 30) == (c, [])
    wrong = Fraction(c.numerator * (10**30 // c.denominator) + 1, 10**30)
    assert checks.verified_concentration(checks.fraction_text(wrong), 10, 30)[0] is None


@pytest.mark.parametrize("grid", [((2, 10), (1, 60)), ((2, 40), (1, 100))])
def test_regions_agree_with_reference_verdicts(grid):
    """The proven regions (main reversed at n = 2, ell >= 5; bretagnolle
    failing on E) match the verdicts computed from the references."""
    ell_range, n_range = grid
    checks_ = ("main", "bretagnolle") if ell_range[1] <= 10 else ("main",)
    refs = checks.sweep_references(checks_, ell_range, n_range)
    for key, r in refs.items():
        assert (r.verdict == "Holds") == r.region_holds, key


def test_rendering_rules():
    third = checks.dec(Fraction(1, 3))
    assert checks.rendering_problem("0.333333333333333333333333333333", third) is None
    assert checks.rendering_problem("0.333333333333333333333333333334", third)
    assert checks.rendering_problem("0.3333333333333333333333333333333", third)  # 31 digits
    assert checks.rendering_problem("1e+00", Decimal(1)) is None
    assert checks.enclosure_problem("0.3", "0.4", third, Decimal(1)) is None
    assert checks.enclosure_problem("0.34", "0.4", third, Decimal(1))
    assert checks.enclosure_problem("0.3", "0.4", third, Decimal("0.01"))


def test_traced_counts_repeat_and_a_deleted_function_reads_zero(tmp_path, monkeypatch):
    import spans

    small = [LARGE[0], LARGE[5]]  # conc and the bessel_chain cell
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            tracer.begin_pass()
            run(small, tmp_path)
    finally:
        tracer.uninstall()
    first, second = tracer.per_pass()
    counts = [name for name, unit in spans.LAYER_METRICS if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["exactdist.concentration.calls"] == 1
    assert first["exactdist.pair_concentration.s"] > 0
    assert first["exactdist.pmf_points"] == 2 * 25 + 1  # the pmf behind the pair maximum
    assert first["certify.evaluate.calls"] == 1
    assert not hasattr(cli.main, "__wrapped__")  # uninstalled

    monkeypatch.delattr(exactdist, "power")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        run(small[:1], tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.metrics()["exactdist.power.calls"] == 0
