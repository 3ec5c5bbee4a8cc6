"""The report writers: byte-identity with the whole-document encoders they
replace, memory that does not grow with the report, and digests of the
benchmark grids' outputs."""

import csv
import hashlib
import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniconc.cli import main
from uniconc.sweep import (
    CHECKS,
    CSV_COLUMNS,
    SweepCell,
    SweepConfig,
    SweepReport,
    SweepSummary,
    report_to_csv_bytes,
    report_to_json_bytes,
    run_sweep,
    write_report_csv,
    write_report_json,
)


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
        "cells": [vars(c) for c in report.cells],
        "summary": vars(report.summary),
    }
    return json.dumps(obj, indent=2) + "\n"


def written(write, report: SweepReport) -> str:
    buf = io.StringIO()
    write(report, buf)
    return buf.getvalue()


def report_of(cells: list[SweepCell], config: SweepConfig | None = None) -> SweepReport:
    config = config or SweepConfig((2, 3), (1, 2), ("main",))
    return SweepReport(config, cells, SweepSummary.of(cells))


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


class TestWriterBytes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(cells, max_size=6))
    def test_drawn_cells_match_the_whole_document_encoders(self, drawn):
        report = report_of(drawn)
        csv_text, json_text = whole_csv(report), whole_json(report)
        assert written(write_report_csv, report) == csv_text
        assert written(write_report_json, report) == json_text
        assert report_to_csv_bytes(report) == csv_text.encode("utf-8")
        assert report_to_json_bytes(report) == json_text.encode("utf-8")

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
