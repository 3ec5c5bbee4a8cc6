"""The report writers: byte-identity with the whole-document encoders they
replace, memory that does not grow with the report, how the cells hold
their values, and digests of the benchmark grids' outputs."""

import csv
import dataclasses
import hashlib
import io
import json
import pickle
import tracemalloc
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uniconc.sweep as sweep
from uniconc.certify import Dyadic, Interval
from uniconc.cli import main
from uniconc.sweep import (
    CHECKS,
    CSV_COLUMNS,
    SweepCell,
    SweepConfig,
    SweepReport,
    decimal_string,
    run_sweep,
    write_report_csv,
    write_report_json,
)

from test_certify import fraction_of


def whole_csv(report: SweepReport) -> str:
    """The CSV report as one string, built row by row in a StringIO."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for c in report.cells:
        writer.writerow([getattr(c, col) for col in CSV_COLUMNS])
    return buf.getvalue()


def whole_json(report: SweepReport) -> str:
    """The JSON report as one ``json.dumps`` of the whole document."""
    obj = {
        "config": report.config.serializable(),
        "cells": [dataclasses.asdict(c) for c in report.cells],
        "summary": dataclasses.asdict(report.summary),
    }
    return json.dumps(obj, indent=2) + "\n"


def written(write, report: SweepReport) -> str:
    """What ``write`` writes of the report into a text stream."""
    buf = io.StringIO()
    write(report, buf)
    return buf.getvalue()


def report_of(cells: list[SweepCell], config: SweepConfig | None = None) -> SweepReport:
    config = config or SweepConfig((2, 3), (1, 2), ("main",))
    return SweepReport(config, cells)


# field text with every character CSV or JSON must quote or escape; lone
# surrogates are left out because no report can be encoded as UTF-8 with one
special_text = st.text(st.sampled_from('"\\,\n\r\t é€\U0001f600\x00\x7f'), max_size=8)
any_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
field_text = special_text | any_text
cells = st.builds(
    SweepCell,
    st.integers(-(10**40), 10**40),
    st.integers(-(10**40), 10**40),
    *[field_text] * (len(SweepCell.__dataclass_fields__) - 2),
)


def cell_with(exact="0.5", bound="0.6", margin="0.1", expected="holds") -> SweepCell:
    return SweepCell(2, 1, "main", exact, "1/2", bound, bound, "Holds", margin, margin, expected)


class TestWriterBytes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(cells, max_size=6))
    # one row per character that makes csv quote a field, each in its own
    # column, so every run writes rows through the csv.writer fallback
    @example([cell_with(exact="0,5")])
    @example([cell_with(), cell_with(bound='0"6')])
    @example([cell_with(margin="0.1\r")])
    @example([cell_with(expected="\nholds"), cell_with()])
    def test_drawn_cells_match_the_whole_document_encoders(self, drawn):
        report = report_of(drawn)
        csv_text, json_text = whole_csv(report), whole_json(report)
        assert written(write_report_csv, report) == csv_text
        assert written(write_report_json, report) == json_text

    def test_zero_cell_report(self, tmp_path, capsys):
        # wallis runs on ell = 2 only, so this grid has no cell
        out = tmp_path / "empty.json"
        argv = ["verify", "--checks", "wallis", "--ell-range", "3:4", "--format", "json"]
        assert main([*argv, "--out", str(out)]) == 0
        data = out.read_text(encoding="utf-8")
        assert '\n  "cells": [],\n' in data
        assert json.loads(data)["cells"] == []
        report = run_sweep(SweepConfig((3, 4), (1, 20), ("wallis",), 256, "json"))
        assert report.cells == []
        assert data == whole_json(report)
        assert written(write_report_csv, report) == whole_csv(report) == ",".join(CSV_COLUMNS) + "\n"


class Discard(io.TextIOBase):
    """A text sink that keeps nothing it is given."""

    def write(self, s: str) -> int:
        return len(s)


def traced_peak(write, report: SweepReport) -> int:
    """Bytes allocated at the peak while ``write`` streams the report into a
    sink that discards it."""
    tracemalloc.start()
    try:
        write(report, Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def report_grid() -> SweepReport:
    """Every check on ell 2..10, n 1..60: the 3,900 cells of the report
    benchmark."""
    return run_sweep(SweepConfig((2, 10), (1, 60), CHECKS))


class TestWriterMemory:
    @pytest.mark.parametrize("write", [write_report_csv, write_report_json])
    def test_peak_does_not_grow_with_the_cells(self, report_grid, write):
        assert len(report_grid.cells) == 3900
        small = report_of(report_grid.cells[:540], report_grid.config)
        peaks = [traced_peak(write, r) for r in (small, report_grid)]
        assert abs(peaks[1] - peaks[0]) < 64 * 1024, peaks


def units_apart(target: Fraction, bits: int, offset: int, negative: bool) -> Interval:
    """Two dyadics one unit apart, the unit ``bits`` bits or so below the
    leading bit of ``target > 0``, ``offset`` units from ``target``."""
    shift = bits - (target.numerator.bit_length() - target.denominator.bit_length())
    man = floor(target * Fraction(2) ** shift) + offset
    lo, hi = Dyadic(man, -shift), Dyadic(man + 1, -shift)
    if negative:
        lo, hi = Dyadic(-hi.man, hi.exp), Dyadic(-lo.man, lo.exp)
    return Interval(lo, hi)


# halfway between two 30-digit decimals, and powers of ten, where the
# rendering's last digit or its exponent turns over between adjacent ends
rounding_ties = st.builds(
    lambda digits, e: Fraction(2 * digits + 1, 2) * Fraction(10) ** (e - 29),
    st.integers(10**29, 10**30 - 1),
    st.integers(-6, 20),
)
powers_of_ten = st.builds(lambda e: Fraction(10) ** e, st.integers(-8, 20))
adjacent_ends = st.builds(
    units_apart, rounding_ties | powers_of_ten, st.integers(85, 115), st.integers(-2, 1), st.booleans()
)
dyadics = st.builds(Dyadic, st.just(0) | st.integers(-(2**120), 2**120), st.integers(-200, 50))
any_ends = st.lists(dyadics, min_size=2, max_size=2).map(lambda ends: Interval(*sorted(ends)))


class TestCellStorage:
    @settings(max_examples=300, deadline=None)
    @given(adjacent_ends | any_ends)
    @example(Interval(Dyadic(0, 0), Dyadic(0, 0)))
    @example(Interval(Dyadic(0, 0), Dyadic(1, -100)))
    @example(Interval(Dyadic(-3, -2), Dyadic(5, -1)))
    @example(Interval(Dyadic(-5, -1), Dyadic(-3, -2)))
    def test_ends_that_render_alike_share_one_string(self, iv):
        lo, hi = sweep._interval_strings(iv)
        assert (lo, hi) == tuple(decimal_string(fraction_of(d)) for d in (iv.lo, iv.hi))
        assert (lo is hi) == (lo == hi)

    def test_checks_of_one_point_share_the_central_strings(self):
        argmax, oracle = run_sweep(SweepConfig((5, 5), (7, 7), ("argmax", "oracle_equiv"))).cells
        assert argmax.exact is oracle.exact
        assert argmax.exact_fraction is oracle.exact_fraction

    def test_cells_are_slotted_and_pickle(self):
        cell = run_sweep(SweepConfig((2, 3), (1, 2), ("main",))).cells[0]
        assert not hasattr(cell, "__dict__")
        assert pickle.loads(pickle.dumps(cell)) == cell

    def test_retained_bytes_per_cell(self):
        # 2,900 cells; 352 bytes a cell with slotted cells and shared
        # strings, 580 with a dict per cell and every end rendered apart
        config = SweepConfig((2, 20), (1, 50), ("main", "corollary", "dsequence", "wallis"))
        run_sweep(config)  # warm: the pi enclosure and first-use set-up
        tracemalloc.start()
        try:
            report = run_sweep(config)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / len(report.cells) < 460, retained


class TestBenchmarkGridDigests:
    """SHA-256 of the two sweep benchmarks' outputs, recorded from the
    whole-document encoders before the writers streamed.  The golden
    reports stop at ell 8 and n 20; these cover the benchmark grids."""

    def test_verify_grid_csv(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        argv = ["verify", "--checks", "main,corollary,dsequence,wallis",
                "--ell-range", "2:40", "--n-range", "1:100", "--out", str(out)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "404a8fe4fc8929377e294f6746c82fe92d7fb845fc5f13ab367a91085fface17"
        )

    def test_report_grid_csv_and_json(self, tmp_path, capsys):
        base = tmp_path / "report"
        # the grid holds the five bretagnolle exception cells, hence exit 1
        assert main(["report", "--ell-range", "2:10", "--n-range", "1:60", "--out", str(base)]) == 1
        digests = {
            suffix: hashlib.sha256(base.with_name(f"report.{suffix}").read_bytes()).hexdigest()
            for suffix in ("csv", "json")
        }
        assert digests == {
            "csv": "2caf95a8628f7372eb3e59464d034d0a11a24bb31925848a749b2db3419623e8",
            "json": "766a158b4af26536089f1a75a7f7f5facfe190c00255aab9e468fc7ae6082690",
        }
