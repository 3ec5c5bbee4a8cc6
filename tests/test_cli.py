"""CLI surface and sweep-report contracts."""

import concurrent.futures
import csv
import dataclasses
import importlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import ROUND_FLOOR, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uniconc
import uniconc.cli as cli
import uniconc.exactdist as exactdist
import uniconc.spectral as spectral
import uniconc.sweep as sweep
from uniconc.bounds import bessel_G
from uniconc.certify import Dyadic, Interval, Outcome, RootBound, Verdict, evaluate, verdict_between
from uniconc.cli import main
from uniconc.errors import ConvergenceError, ParameterError
from uniconc.exactdist import ExactDensity, LatticeParams, concentration, power
from uniconc.sweep import (
    CHECKS,
    CSV_COLUMNS,
    SweepCell,
    SweepConfig,
    SweepReport,
    SweepSummary,
    decimal_string,
    run_sweep,
    write_report_csv,
    write_report_json,
)

from test_certify import fraction_of
from test_report_output import written


def csv_rows(data: bytes) -> list[dict]:
    """A CSV report's rows as string dictionaries, with ell and n as ints."""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    for row in rows:
        row["ell"], row["n"] = int(row["ell"]), int(row["n"])
    return rows


# the interpreter's int-to-str digit limit; None where it has none
int_str_limit = getattr(sys, "get_int_max_str_digits", lambda: None)


@contextmanager
def no_int_str_limit():
    """Lift the int-to-str digit limit, where the interpreter has one."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    limit = int_str_limit()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


# the two forms a rendered decimal takes; a mantissa ends in a non-zero digit
POSITIONAL = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?")
SCIENTIFIC = re.compile(r"-?[1-9](\.[0-9]*[1-9])?e[+-][0-9]{2,}")


def decimal_exponent(v: Fraction) -> int:
    """The e with 10**e <= |v| < 10**(e+1), for v != 0: a numerator of a
    digits over a denominator of b digits lies strictly between 10**(a-b-1)
    and 10**(a-b+1), so one comparison settles it."""
    num, den = abs(v.numerator), v.denominator
    e = len(str(num)) - len(str(den))
    return e if num * 10 ** max(-e, 0) >= den * 10 ** max(e, 0) else e - 1


def check_rendering(fr: Fraction, text: str) -> None:
    """``text`` as ``decimal_string(fr)`` must be: at most 30 significant
    digits, no trailing zero in its mantissa, positional for a decimal
    exponent in -4..15 and scientific otherwise, and within half a unit in
    the 30th digit of ``fr``."""
    if fr == 0:
        assert text == "0"
        return
    value = Fraction(text)
    e = decimal_exponent(value)
    if -4 <= e < 16:
        assert POSITIONAL.fullmatch(text), text
    else:
        assert SCIENTIFIC.fullmatch(text) and int(text.partition("e")[2]) == e, text
    # an integer's trailing zeros place its point, and are not significant
    digits = text.lstrip("-").partition("e")[0].replace(".", "").lstrip("0").rstrip("0")
    assert len(digits) <= 30, text
    assert abs(value - fr) <= Fraction(5) * Fraction(10) ** (decimal_exponent(fr) - 30), text


class TestDecimalString:
    @pytest.mark.parametrize(
        "fr,expected",
        [
            (Fraction(1, 3), "0." + "3" * 30),
            (Fraction(3, 8), "0.375"),
            (Fraction(1, 5), "0.2"),
            (Fraction(0), "0"),
            (Fraction(-1, 2), "-0.5"),
            (Fraction(2), "2"),
            (Fraction(1, 10**40), "1e-40"),
            (Fraction(10**40), "1e+40"),
            (Fraction(1, 10**5000), "1e-5000"),
            # a tie at the 30th digit rounds away from zero
            (Fraction(-(2 * 10**29 + 1), 2 * 10**29), "-1." + "0" * 28 + "1"),
        ],
    )
    def test_values(self, fr, expected):
        assert decimal_string(fr) == expected

    def test_round_half_up_carry(self):
        # 31 nines round up at the 30th digit and carry into a new one
        assert decimal_string(Fraction(10**31 - 1, 10**31)) == "1"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-(2**200), 2**200), st.integers(-300, 300))
    def test_dyadic_rendering_matches_fraction(self, man, exp):
        # unnormalized mantissas too: the rendering depends on the value only
        d = Dyadic(man, exp)
        assert sweep._interval_strings(Interval(d, d)) == (decimal_string(fraction_of(d)),) * 2

    @settings(max_examples=100, deadline=None)
    @given(st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)))
    def test_round_trip_within_half_unit(self, fr):
        check_rendering(fr, decimal_string(fr))

    def test_caller_decimal_context_changes_nothing(self):
        values = [
            Fraction(1, 3), Fraction(-2, 7), Fraction(10**31 - 1, 10**31), Fraction(7, 10**50),
        ]
        interval = Interval(Dyadic(1, -3), Dyadic(5, -2))
        expected = [*map(decimal_string, values), sweep._interval_strings(interval)]
        hostile = Context(prec=3, rounding=ROUND_FLOOR, traps=[Inexact])
        with localcontext(hostile):
            assert [*map(decimal_string, values), sweep._interval_strings(interval)] == expected


class TestDecimalExponent:
    """Powers of ten and one unit either side, where the decimal exponent
    and with it the rendered form change."""

    @settings(max_examples=200, deadline=None)
    @example(-400, 0, 1, False)
    @example(-5, 0, 1, False)
    @example(-4, 0, 7, False)
    @example(15, 0, 7, False)
    @example(16, 0, 1, False)
    @example(400, 0, 1, True)
    @given(
        st.integers(-400, 400),
        st.sampled_from((-1, 0, 1)),
        st.integers(1, 2**300),
        st.booleans(),
    )
    def test_renders_within_half_unit_in_its_form(self, p, offset, scale, negative):
        # num/den is 10**p, or one unit of num either side of it
        if p >= 0:
            num, den = 10**p * scale + offset, scale
        else:
            num, den = scale + offset, 10**-p * scale
        fr = Fraction(-num if negative else num, den)
        check_rendering(fr, decimal_string(fr))


class TestPmfCommand:
    def test_demoivre_single_point(self, capsys):
        assert main(["pmf", "--ell", "3", "--n", "2", "--k", "2", "--method", "demoivre"]) == 0
        assert capsys.readouterr().out == "3/9 = 1/3\n"

    def test_exact_whole_support(self, capsys):
        # an odd and an even number of lines, the upper half reusing the lower
        for n, nums in ((4, (1, 4, 6, 4, 1)), (3, (1, 3, 3, 1)), (1, (1, 1))):
            assert main(["pmf", "--ell", "2", "--n", str(n), "--method", "exact"]) == 0
            assert capsys.readouterr().out == "".join(f"{k} {v}/{2**n}\n" for k, v in enumerate(nums))

    def test_outside_support(self, capsys, monkeypatch):
        # the value is 0 by the support alone; no pmf is built
        def refuse(*args, **kwargs):
            raise AssertionError("pmf built")

        monkeypatch.setattr(cli, "power", refuse)
        monkeypatch.setattr(cli, "de_moivre_pmf", refuse)
        for method in ("exact", "demoivre"):
            for k in ("9", "-1", "10000000"):
                assert main(["pmf", "--ell", "2", "--n", "1", "--k", k, "--method", method]) == 0
                assert capsys.readouterr().out == "0\n"

    def test_demoivre_whole_support_matches_exact(self, capsys):
        assert main(["pmf", "--ell", "3", "--n", "3", "--method", "demoivre"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"{k} {num}/27" for k, num in enumerate((1, 3, 6, 7, 6, 3, 1))]

    def test_fourier_method(self, capsys):
        assert main(["pmf", "--ell", "2", "--n", "2", "--k", "1", "--method", "fourier"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5, abs=1e-10)

    def test_fourier_whole_support(self, capsys):
        assert main(["pmf", "--ell", "2", "--n", "2", "--method", "fourier"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert [float(r[1]) for r in rows] == pytest.approx([0.25, 0.5, 0.25], abs=1e-10)

    def test_fourier_prints_to_the_tolerance_place(self, capsys):
        # 1/6**10 = 1.65381716879...e-08; the sum is good to tol = 1e-10, so
        # the digits past the tenth place, which are noise, are not printed
        assert main(["pmf", "--ell", "6", "--n", "10", "--k", "0", "--method", "fourier"]) == 0
        out = capsys.readouterr().out
        assert out == "0.0000000165\n"
        assert Fraction(out.strip()) == round(Fraction(1, 6**10), 10)

    def test_fourier_whole_support_at_a_coarser_tolerance(self, capsys):
        argv = ["pmf", "--ell", "3", "--n", "4", "--method", "fourier", "--tol", "1e-7"]
        assert main(argv) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        exact = power(LatticeParams(3, 4))
        assert [Fraction(v) for _, v in rows] == [round(exact.pmf(k), 7) for k in range(9)]
        assert all(len(v) == len("0.0123457") for _, v in rows)

    def test_fourier_off_the_support_prints_no_negative_zero(self, capsys):
        # the sum there is about -1.4e-16
        assert main(["pmf", "--ell", "3", "--n", "4", "--k", "40", "--method", "fourier"]) == 0
        assert capsys.readouterr().out == "0.0000000000\n"

    def test_invalid_parameters_exit_usage(self, capsys):
        assert main(["pmf", "--ell", "0", "--n", "2"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_fourier_bad_tolerance_exit_usage(self, tol, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(spectral, "_kernel_powers", refuse)
        argv = ["pmf", "--ell", "3", "--n", "4", "--k", "4", "--method", "fourier", "--tol", tol]
        assert main(argv) == 2
        assert "tol must be finite and positive" in capsys.readouterr().err

    def test_fourier_node_cap_exits_usage(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(spectral, "_kernel_powers", refuse)
        argv = ["pmf", "--ell", "3", "--n", "4", "--k", "10000000", "--method", "fourier"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: k=10000000 at ell=3, n=4 needs")

    def test_fourier_non_convergence_exits_one(self, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ConvergenceError("quadrature did not reach tol=1e-10", None)

        monkeypatch.setattr(spectral, "fourier_pmf", no_convergence)
        assert main(["pmf", "--ell", "3", "--n", "4", "--k", "4", "--method", "fourier"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: quadrature did not reach tol=1e-10"]

    def test_exact_value_beyond_int_str_limit(self, capsys):
        # 1/ell**4 has 4,401 digits, past CPython's default limit of 4,300
        limit = int_str_limit()
        ell = 10**1100
        with no_int_str_limit():
            argv = ["pmf", "--ell", str(ell), "--n", "4", "--k", "5", "--method", "demoivre"]
            value = Fraction(56, ell**4)  # C(8, 3) ways to reach 5 with four steps
            expected = f"56/{ell**4} = {value.numerator}/{value.denominator}\n"
        assert main(argv) == 0
        assert int_str_limit() == limit
        assert capsys.readouterr().out == expected


# the names the package root once re-exported, by defining module
FORMER_ROOT_EXPORTS = {
    "asymptotics": ("clt_ratio", "local_clt_sup_dev"),
    "bounds": ("bessel_G",),
    "certify": (
        "Dyadic", "Interval", "Outcome", "RootBound", "Verdict", "evaluate", "pi_enclosure",
        "verdict_between",
    ),
    "errors": ("ConvergenceError", "DomainError", "ExpressionError", "ParameterError"),
    "exactdist": (
        "ExactDensity", "LatticeParams", "argmax_set", "concentration", "de_moivre_pmf",
        "moments", "pair_concentration", "power",
    ),
    "spectral": ("QuadratureResult", "fourier_pmf", "split_integrals"),
    "sweep": ("SweepCell", "SweepConfig", "SweepReport", "SweepSummary", "run_sweep"),
}


class TestPackageSurface:
    def test_cli_import_leaves_numpy_unloaded(self):
        # asymptotics stays eager: the bench tracer wraps only modules that
        # are loaded when it installs
        code = (
            "import sys, uniconc.cli; "
            "print(sorted(m for m in ('numpy', 'mpmath', 'uniconc.spectral', "
            "'uniconc.asymptotics', 'concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))"
        )
        src = str(Path(uniconc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "['uniconc.asymptotics']\n"

    def test_host_default_context_changes_no_output(self):
        # a host may set decimal.DefaultContext before importing the package;
        # every Context fills the fields it leaves unnamed from it
        run = (
            "import sys, uniconc.cli as c\n"
            "print([c.main(argv) for argv in (\n"
            "    ['conc', '--ell', '10', '--n', '300'],\n"
            "    ['asymptotics', '--ell', '2', '--n-list', '100,1000', '--format', 'csv'],\n"
            "    ['verify', '--checks', 'main,corollary,dsequence', '--ell-range', '2:4',\n"
            "     '--n-range', '1:6', '--out', '-'])])\n"
        )
        hostile = (
            "import decimal\n"
            "decimal.DefaultContext.traps[decimal.Inexact] = True\n"
            "decimal.DefaultContext.prec = 5\n"
            "decimal.DefaultContext.rounding = decimal.ROUND_FLOOR\n"
        )
        src = str(Path(uniconc.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        plain, hosted = (
            subprocess.run([sys.executable, "-c", pre + run], env=env, capture_output=True)
            for pre in ("", hostile)
        )
        assert plain.returncode == 0 and plain.stdout.endswith(b"\n[0, 0, 0]\n")
        assert (hosted.returncode, hosted.stdout, hosted.stderr) == (0, plain.stdout, plain.stderr)

    @pytest.mark.parametrize("module", sorted(FORMER_ROOT_EXPORTS))
    def test_former_root_exports_resolve_in_their_modules(self, module):
        mod = importlib.import_module(f"uniconc.{module}")
        for name in FORMER_ROOT_EXPORTS[module]:
            assert name in mod.__all__, name
            assert getattr(mod, name) is not None

    def test_package_root_lists_no_names(self):
        assert not hasattr(uniconc, "__all__")
        assert {n for n in vars(uniconc) if not n.startswith("_")} <= {
            *FORMER_ROOT_EXPORTS, "cli"
        }


class TestConcCommand:
    def test_single(self, capsys):
        assert main(["conc", "--ell", "2", "--n", "3"]) == 0
        assert capsys.readouterr().out == "3/8 = 0.375\n"

    def test_pair(self, capsys):
        assert main(["conc", "--ell", "3", "--n", "2", "--pair"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("5/9 = 0.5555")

    def test_exact_value_beyond_int_str_limit(self, capsys):
        limit = int_str_limit()
        ell = 10**1100
        # the central probability of four steps is (2 ell**2 + 1) / (3 ell**3)
        value = Fraction(2 * ell * ell + 1, 3 * ell**3)
        assert main(["conc", "--ell", str(ell), "--n", "4"]) == 0
        assert int_str_limit() == limit
        with no_int_str_limit():
            expected = f"{value.numerator}/{value.denominator} = {decimal_string(value)}\n"
        assert capsys.readouterr().out == expected


class TestVerifyCommand:
    def test_main_check_grid(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["verify", "--ell-range", "2:6", "--n-range", "1:4", "--checks", "main",
             "--out", str(out)]
        )
        assert code == 0
        rows = csv_rows(out.read_bytes())
        assert len(rows) == 20
        cell52 = next(r for r in rows if r["ell"] == 5 and r["n"] == 2)
        assert cell52["verdict"] == "Fails"
        assert cell52["expected"] == "reversed"
        assert "mismatches=0" in capsys.readouterr().err

    def test_small_lattices_hold_at_two(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["verify", "--ell-range", "2:4", "--n-range", "2:2", "--checks", "main",
             "--out", str(out)]
        )
        assert code == 0
        rows = csv_rows(out.read_bytes())
        assert [r["verdict"] for r in rows] == ["Holds"] * 3

    def test_oracle_equiv_check(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["verify", "--ell-range", "2:6", "--n-range", "1:10",
             "--checks", "oracle_equiv", "--out", str(out)]
        )
        assert code == 0
        rows = csv_rows(out.read_bytes())
        assert all(r["verdict"] == "Holds" for r in rows)

    def test_csv_round_trip(self, tmp_path):
        cfg = SweepConfig((2, 5), (1, 6), ("main", "bretagnolle"), 128, "csv", 1)
        report = run_sweep(cfg)
        rows = csv_rows(written(write_report_csv, report).encode("utf-8"))
        assert len(rows) == len(report.cells)
        for row, cell in zip(rows, report.cells):
            for col in CSV_COLUMNS:
                assert row[col] == getattr(cell, col)

    def test_json_schema(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["verify", "--ell-range", "2:3", "--n-range", "1:3", "--checks", "main",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "cells", "summary"}
        assert "parallelism" not in doc["config"]
        assert doc["summary"]["mismatches"] == 0
        assert doc["cells"][0]["exact_fraction"] == "1/2"

    def test_stdout_default(self, capsys):
        code = main(["verify", "--ell-range", "2:2", "--n-range", "1:2", "--checks", "main"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("ell,n,check,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_file_and_bytes_agree(self, tmp_path, fmt):
        argv = ["verify", "--checks", "main,corollary,wallis", "--ell-range", "2:4",
                "--n-range", "1:6", "--format", fmt]
        # stdout redirected to a file at run time, as the benchmark's worker
        # runs its queries
        piped = tmp_path / "stdout"
        with open(piped, "w", encoding="utf-8") as so, redirect_stdout(so), \
                redirect_stderr(io.StringIO()):
            assert main([*argv, "--out", "-"]) == 0
        out = tmp_path / f"r.{fmt}"
        with redirect_stderr(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0
        report = run_sweep(SweepConfig((2, 4), (1, 6), ("main", "corollary", "wallis"), 256, fmt))
        write = write_report_json if fmt == "json" else write_report_csv
        assert piped.read_bytes() == out.read_bytes() == written(write, report).encode("utf-8")

    def test_config_file_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("ell_range=2:3\nn_range=1:2\nchecks=main,moments\n# comment\nout=-\n")
        code = main(["verify", "--config", str(cfg), "--checks", "moments"])
        assert code == 0
        out = capsys.readouterr().out
        assert "moments" in out and ",main," not in out

    def test_config_file_takes_every_documented_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "ell_range=2:2\nn_range=1:1\nchecks=main\nprecision_bits=128\n"
            "format=json\nout=-\nparallelism=1\n"
        )
        assert main(["verify", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["precision_bits"] == 128

    NO_CHECK = f"checks must name at least one check; valid: {CHECKS}"
    BAD_SETTINGS = {
        "parallelism=abc": "parallelism must be an integer, got 'abc'",
        "precision_bits=2.5e2": "precision_bits must be an integer, got '2.5e2'",
        "format=xml": "format must be csv or json, got xml",
        "checks=": NO_CHECK,
        "checks=,": NO_CHECK,
    }

    @pytest.mark.parametrize("line", list(BAD_SETTINGS))
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_bad_setting_exits_usage(self, tmp_path, capsys, via, line):
        # a value is parsed once, by one parser, from a flag or a config file
        # alike, and the error carries no usage text
        key, value = line.split("=")
        if via == "flag":
            argv = ["verify", "--ell-range", "2:2", "--n-range", "1:1",
                    f"--{key.replace('_', '-')}", value]
        else:
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(f"ell_range=2:2\nn_range=1:1\n{line}\n")
            argv = ["verify", "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {self.BAD_SETTINGS[line]}\n"

    def test_config_key_set_twice_exits_usage(self, tmp_path, capsys, monkeypatch):
        # the last of a repeated flag wins, but a file that sets a key twice is
        # refused before any work, as --checks main,main is
        def refuse(config):
            raise AssertionError("run_sweep ran")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("ell_range=2:2\nn_range=1:1\nchecks=main\nchecks=corollary\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config key 'checks' is set twice\n"

    def test_no_settings_sweeps_the_config_defaults(self, capsys):
        assert main(["verify"]) == 0
        assert capsys.readouterr().out == written(write_report_csv, run_sweep(SweepConfig()))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_flags_win_and_unset_settings_take_the_config_defaults(self, data):
        # each of the six settings comes from a flag, the file, both or neither
        values = {
            "ell_range": st.tuples(st.integers(2, 3), st.integers(3, 4)),
            "n_range": st.tuples(st.integers(1, 2), st.integers(2, 3)),
            "checks": st.lists(st.sampled_from(CHECKS), min_size=1, max_size=3, unique=True),
            "precision_bits": st.integers(64, 512),
            "format": st.sampled_from(["csv", "json"]),
            "parallelism": st.integers(1, 4),
        }
        text = {
            "ell_range": "{0[0]}:{0[1]}".format, "n_range": "{0[0]}:{0[1]}".format,
            "checks": ",".join, "precision_bits": str, "format": str, "parallelism": str,
        }
        flags, lines, expected = [], [], {}
        for key, values_of in values.items():
            flag = data.draw(st.none() | values_of, label=f"flag {key}")
            in_file = data.draw(st.none() | values_of, label=f"file {key}")
            if in_file is not None:
                lines.append(f"{key}={text[key](in_file)}")
            if flag is not None:
                flags += [f"--{key.replace('_', '-')}", text[key](flag)]
            value = flag if flag is not None else in_file
            if value is not None:
                expected[key] = tuple(value) if key == "checks" else value
        configs = []

        def no_sweep(config):
            configs.append(config)
            return SweepReport(config, [])

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "run_sweep", no_sweep)
            cfg = Path(tmp) / "sweep.cfg"
            cfg.write_text("".join(f"{line}\n" for line in lines))
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(["verify", "--config", str(cfg), *flags]) == 0
        (config,) = configs
        defaults = SweepConfig()
        for key in values:
            field = "output_format" if key == "format" else key
            assert getattr(config, field) == expected.get(key, getattr(defaults, field)), key

    def test_config_file_unknown_key_exits_usage(self, tmp_path, capsys):
        # a typo of n_range must not sweep the default grid
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("ell_range=2:2\nn-range=1:3\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown config key 'n-range'")

    def test_config_file_not_utf8_exits_usage(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(b"ell_range=2:2\xff\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config file {cfg} is not UTF-8")

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_repeated_check_exits_usage(self, tmp_path, capsys, via):
        # a repeated check would write every row of it twice
        grid = ["--ell-range", "2:2", "--n-range", "1:2"]
        if via == "flag":
            argv = ["verify", "--checks", "main,moments,main", *grid]
        else:
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text("checks=main,moments,main\n")
            argv = ["verify", "--config", str(cfg), *grid]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: repeated checks: ['main']\n"

    @pytest.mark.parametrize("text", ["2:", "5", ":3"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_range_not_a_to_b_exits_usage(self, tmp_path, capsys, via, text):
        # a missing end must not be read as a one-point range
        if via == "flag":
            argv = ["verify", "--ell-range", "2:2", "--n-range", text]
        else:
            cfg = tmp_path / "sweep.cfg"
            cfg.write_text(f"ell_range=2:2\nn_range={text}\n")
            argv = ["verify", "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: expected a range A:B, got {text!r}\n"

    @pytest.mark.parametrize("out", ["", "rr/", ".", ".."])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_out_without_a_file_name_is_refused(self, tmp_path, capsys, monkeypatch, via, out):
        def refuse(config):
            raise AssertionError("sweep ran")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_sweep", refuse)
        argv = ["verify", "--ell-range", "2:2", "--n-range", "1:2"]
        if via == "flag":
            argv += ["--out", out]
        else:
            Path("sweep.cfg").write_text(f"out={out}\n")
            argv += ["--config", "sweep.cfg"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out must end in a file name, got {out!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ([] if via == "flag" else ["sweep.cfg"])

    def test_io_error_exit_code(self, tmp_path):
        # a missing directory is made (TestOutRule); under a regular file none can be
        (tmp_path / "afile").write_text("")
        code = main(
            ["verify", "--ell-range", "2:2", "--n-range", "1:1", "--checks", "main",
             "--out", str(tmp_path / "afile" / "r.csv")]
        )
        assert code == 3

    def test_usage_error_exit_code(self):
        assert main(["verify", "--ell-range", "nonsense"]) == 2
        assert main(["no-such-command"]) == 2

    def test_inconclusive_forces_failure_exit(self, monkeypatch, capsys):
        real = run_sweep

        def with_inconclusive(config):
            (cell,) = real(config).cells
            return SweepReport(config, [dataclasses.replace(cell, verdict="Inconclusive")])

        monkeypatch.setattr(cli, "run_sweep", with_inconclusive)
        code = main(["verify", "--ell-range", "2:2", "--n-range", "1:1", "--checks", "main",
                     "--out", "-"])
        assert code == 1
        assert capsys.readouterr().err == (
            "cells=1 holds=0 fails=0 inconclusive=1 mismatches=0\n"
        )


# a margin of one link of the Bessel chain: it holds, fails or straddles 0,
# with an end at 0 or not
link_margins = st.builds(
    lambda a, b, e: Interval(Dyadic(min(a, b), e), Dyadic(max(a, b), e)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-8, 8),
)
LINK_SIGN_PATTERNS = [
    Interval(Dyadic(lo, 0), Dyadic(hi, 0)) for lo, hi in ((1, 2), (-2, -1), (-1, 1), (0, 0))
]


def every_sign_pattern(test):
    """Run ``test`` on every pair of link margins in LINK_SIGN_PATTERNS."""
    for left in LINK_SIGN_PATTERNS:
        for right in LINK_SIGN_PATTERNS:
            test = example(left=left, right=right)(test)
    return test


class TestSweepEngine:
    def test_cells_sorted_lexicographically(self):
        cfg = SweepConfig((2, 4), (1, 3), ("moments", "argmax"), 128, "csv", 1)
        report = run_sweep(cfg)
        keys = [(c.check, c.ell, c.n) for c in report.cells]
        assert keys == sorted(keys)

    def test_lattice_specific_checks_filter_rows(self):
        cfg = SweepConfig((2, 6), (1, 4), ("wallis", "bessel_chain"), 128, "csv", 1)
        report = run_sweep(cfg)
        assert {c.ell for c in report.cells if c.check == "wallis"} == {2}
        assert {c.ell for c in report.cells if c.check == "bessel_chain"} == {3}

    def test_parallelism_does_not_change_bytes(self):
        checks = ("main", "corollary", "wallis", "dsequence", "argmax")
        r1 = run_sweep(SweepConfig((2, 5), (1, 6), checks, 128, "csv", 1))
        r2 = run_sweep(SweepConfig((2, 5), (1, 6), checks, 128, "csv", 4))
        for write in (write_report_csv, write_report_json):
            assert written(write, r1) == written(write, r2)

    @staticmethod
    def exact_fraction(ell: int, n: int) -> str:
        c = concentration(LatticeParams(ell, n))
        with no_int_str_limit():
            return f"{c.numerator}/{c.denominator}"

    def test_exact_fraction_beyond_int_str_limit(self):
        # c(10, 4400) has a denominator of about 4,400 digits
        limit = int_str_limit()
        report = run_sweep(SweepConfig((10, 10), (4400, 4400)))
        assert int_str_limit() == limit
        assert report.cells[0].exact_fraction == self.exact_fraction(10, 4400)

    def test_spawned_workers_render_beyond_int_str_limit(self, capsys, monkeypatch):
        # a spawned worker starts a fresh interpreter with the default limit
        spawn = multiprocessing.get_context("spawn")
        pools = []

        def spawn_pool(max_workers):
            pools.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers, mp_context=spawn)

        # run_sweep imports the pool when it needs one, so patch its home
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawn_pool)
        # two usable CPUs, by the affinity set the pool is sized from
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        limit = int_str_limit()
        argv = ["verify", "--ell-range", "10:10", "--n-range", "4400:4401", "--parallelism", "2",
                "--format", "json"]
        assert main(argv) == 0
        assert int_str_limit() == limit
        assert pools == [2]
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert [c["exact_fraction"] for c in cells] == [
            self.exact_fraction(10, n) for n in (4400, 4401)
        ]

    def test_bretagnolle_equality_at_two(self):
        report = run_sweep(SweepConfig((2, 2), (1, 5), ("bretagnolle",), 128, "csv", 1))
        for cell in report.cells:
            assert cell.verdict == "Holds"
            assert cell.margin_lo == "0"

    def test_bretagnolle_counterexample_reported_honestly(self):
        # the single-point relation is simply false at (3, 3): 7/27 > 1/4;
        # the sweep must report that rather than hide it
        report = run_sweep(SweepConfig((3, 3), (3, 3), ("bretagnolle",), 128, "csv", 1))
        (cell,) = report.cells
        assert cell.verdict == "Fails"
        assert cell.exact_fraction == "7/27"
        assert report.summary.mismatches == 1
        assert not report.summary.clean

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SweepConfig((1, 4), (1, 2))
        with pytest.raises(ParameterError):
            SweepConfig((2, 4), (3, 2))
        with pytest.raises(ParameterError):
            SweepConfig((2, 4), (1, 2), ("nonsense",))
        with pytest.raises(ParameterError, match="at least one check"):
            SweepConfig((2, 4), (1, 2), ())
        with pytest.raises(ParameterError):
            SweepConfig((2, 4), (1, 2), ("main",), 256, "xml")

    @pytest.mark.parametrize(
        "fields",
        [
            dict(precision_bits=256.0),
            dict(precision_bits=True),
            dict(parallelism=True),
            dict(parallelism=2.0),
            dict(n_range=(1.0, 2)),
            dict(n_range=(1, 2.5)),
            dict(ell_range=(True, 3)),
        ],
        ids=repr,
    )
    def test_rejects_bools_and_non_integers(self, fields):
        base = dict(ell_range=(2, 3), n_range=(1, 2), checks=("main",))
        with pytest.raises(ParameterError):
            run_sweep(SweepConfig(**{**base, **fields}))

    def test_precision_cap(self):
        assert SweepConfig((2, 2), (1, 1), ("main",), 16384).precision_bits == 16384
        for bad in (63, 16385, 10**9):
            with pytest.raises(ParameterError):
                SweepConfig((2, 2), (1, 1), ("main",), bad)
        assert main(["verify", "--ell-range", "2:2", "--n-range", "1:1",
                     "--precision-bits", "16385"]) == 2

    @pytest.mark.parametrize(
        "requested,cpus,units,expected",
        [(10**6, 2, 540, 2), (8, 64, 3, 3), (1, 64, 540, 1), (8, None, 540, 1), (4, 8, 0, 1)],
    )
    def test_pool_size_clamp(self, requested, cpus, units, expected):
        assert sweep._pool_size(requested, cpus, units) == expected

    def test_one_cpu_affinity_runs_serially(self, monkeypatch):
        # as under taskset -c 0 on a host with more CPUs: no pool starts
        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
        cfg = SweepConfig((2, 3), (1, 3), ("main",), 128, "csv", 2)
        assert [(c.ell, c.n) for c in run_sweep(cfg).cells] == [(e, n) for e in (2, 3) for n in (1, 2, 3)]

    @pytest.mark.parametrize(
        "expected,verdict,mismatch",
        [
            ("holds", "Holds", False),
            ("holds", "Fails", True),
            ("reversed", "Holds", True),
            ("reversed", "Fails", False),
            ("holds", "Inconclusive", False),
            ("reversed", "Inconclusive", False),
        ],
    )
    def test_cell_mismatch(self, expected, verdict, mismatch):
        cell = SweepCell(2, 1, "main", "", "", "", "", verdict, "", "", expected)
        assert cell.mismatch is mismatch

    def test_exact_objects_built_once_per_point_and_only_on_demand(self, monkeypatch):
        calls = {"power": 0, "concentration": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(params):
                calls[name] += 1
                return real(params)

            return wrapper

        # a pmf built inside exactdist counts as one built by the sweep
        for module, name in ((sweep, "power"), (exactdist, "power"), (sweep, "concentration")):
            monkeypatch.setattr(module, name, counted(module, name))
        run_sweep(SweepConfig((2, 4), (1, 3), ("argmax", "moments", "oracle_equiv"), 128))
        assert calls == {"power": 9, "concentration": 0}
        calls.update(power=0)
        # the pair maximum reads the point's one pmf
        run_sweep(SweepConfig((3, 3), (1, 3), ("argmax", "bessel_chain"), 128))
        assert calls == {"power": 3, "concentration": 0}
        calls.update(power=0)
        run_sweep(SweepConfig((2, 4), (1, 3), ("main", "corollary", "dsequence"), 128))
        assert calls == {"power": 0, "concentration": 9}
        calls.update(concentration=0)
        # c(2, n) for bretagnolle is a closed form, not a second concentration
        run_sweep(SweepConfig((2, 4), (1, 3), ("main", "bretagnolle"), 128))
        assert calls == {"power": 0, "concentration": 9}

        # the sharp bound, shared by main and dsequence
        built = {"main_bound_expr": 0}
        real_main = sweep.bounds.main_bound_expr

        def main_bound_expr(ell, n):
            built["main_bound_expr"] += 1
            return real_main(ell, n)

        monkeypatch.setattr(sweep.bounds, "main_bound_expr", main_bound_expr)
        run_sweep(SweepConfig((2, 4), (1, 3), ("main", "dsequence"), 128))
        assert built == {"main_bound_expr": 9}

        # the concentration objects, and how often each is rendered; by
        # identity, since at ell = 2 bretagnolle's bound equals c(2, n)
        concs, rendered, renders = [], [], []
        real_conc, real_render = sweep.concentration, sweep.decimal_string

        def concentration(params):
            concs.append(real_conc(params))
            return concs[-1]

        def decimal_string(x):
            renders.append(x)
            rendered.extend(i for i, c in enumerate(concs) if x is c)
            return real_render(x)

        monkeypatch.setattr(sweep, "concentration", concentration)
        monkeypatch.setattr(sweep, "decimal_string", decimal_string)
        checks = ("main", "corollary", "dsequence", "bretagnolle")
        report = run_sweep(SweepConfig((2, 4), (1, 3), checks, 128))
        assert len(report.cells) == 36
        assert sorted(rendered) == list(range(9))
        # every report decimal goes through the renderer: per point, the
        # concentration once, four interval ends for each of the three
        # certified cells, and bretagnolle's bound and margin
        assert len(renders) == 9 * (1 + 3 * 4 + 2)

    def test_one_bound_evaluation_per_certified_cell(self, monkeypatch):
        calls = {"evaluate": 0}
        real_evaluate = sweep.evaluate

        def evaluate(expr, precision_bits):
            calls["evaluate"] += 1
            return real_evaluate(expr, precision_bits)

        monkeypatch.setattr(sweep, "evaluate", evaluate)
        for check in ("main", "corollary", "wallis", "dsequence"):
            calls.update(evaluate=0)
            report = run_sweep(SweepConfig((2, 4), (1, 3), (check,), 128))
            assert report.cells and calls["evaluate"] == len(report.cells), check

    def test_summary_clean_logic(self):
        assert SweepSummary(5, 5, 0, 0, 0).clean
        assert not SweepSummary(5, 4, 1, 0, 1).clean
        assert not SweepSummary(5, 4, 0, 1, 0).clean

    def test_summary_of_cells(self):
        rows = [("holds", "Holds"), ("holds", "Fails"), ("reversed", "Holds"),
                ("reversed", "Fails"), ("holds", "Inconclusive")]
        cells = [SweepCell(2, 1, "main", "", "", "", "", v, "", "", e) for e, v in rows]
        summary = SweepSummary.of(cells)
        assert summary == SweepSummary(5, 2, 2, 1, 2)
        assert summary.unexpected == 3 and not summary.clean
        assert SweepSummary.of([]) == SweepSummary(0, 0, 0, 0, 0)

    @settings(max_examples=150, deadline=None)
    @given(left=link_margins, right=link_margins)
    @every_sign_pattern
    def test_chain_outcome_is_the_three_way_rule_of_its_links(self, left, right):
        """The chain cell decides by the one sign rule on the componentwise
        minimum of its links' margins; that equals the rule it replaced:
        Holds when both links hold, Fails when one fails, else Inconclusive."""
        def three_way(a: Outcome, b: Outcome) -> Outcome:
            if a is Outcome.HOLDS and b is Outcome.HOLDS:
                return Outcome.HOLDS
            if Outcome.FAILS in (a, b):
                return Outcome.FAILS
            return Outcome.INCONCLUSIVE

        links = iter((left, right))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "verdict_between", lambda lhs, rhs, prec: Verdict(next(links)))
            cell = sweep._cell_bessel_chain(sweep._Point(3, 1), 64)
        want = three_way(Verdict(left).outcome, Verdict(right).outcome)
        assert cell.verdict == want.value
        ends = min(left.lo, right.lo), min(left.hi, right.hi)
        margins = tuple(decimal_string(fraction_of(d)) for d in ends)
        assert (cell.margin_lo, cell.margin_hi) == margins

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 1500))
    @example(n=1)
    @example(n=1500)
    def test_chain_at_ell_3_is_the_papers_statement(self, n):
        """The general chain, pair < G(Var S_n) < 2 * main_bound, is at
        ell = 3 the paper's pair < G(2n/3) < sqrt(3/(pi*n)), stated here by
        hand, with the pair taken by a scan of every adjacent pair."""
        prec = 256
        nums = power(LatticeParams(3, n)).numerators
        pair = Fraction(max(a + b for a, b in zip(nums, nums[1:])), 3**n)
        middle = bessel_G(Fraction(2 * n, 3), prec)
        outer = evaluate(RootBound(Fraction(1), Fraction(0), Fraction(3, n), 1), prec)
        left = verdict_between(pair, middle, prec).margin
        right = verdict_between(middle, outer, prec).margin
        chain = Verdict(Interval(min(left.lo, right.lo), min(left.hi, right.hi)))
        want = SweepCell(
            3, n, "bessel_chain", decimal_string(pair), f"{pair.numerator}/{pair.denominator}",
            *sweep._interval_strings(outer), chain.outcome.value,
            *sweep._interval_strings(chain.margin), "holds",
        )
        assert sweep._cell_bessel_chain(sweep._Point(3, n), prec) == want


grid_points = st.tuples(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=60))


def oracle_verdict(ell: int, n: int, nums=None) -> str:
    """The ``oracle_equiv`` verdict at (ell, n); ``nums``, when given,
    stands in for the numerators that ``power`` would supply."""
    point = sweep._Point(ell, n)
    if nums is not None:
        point.pmf = ExactDensity(point.params, tuple(nums))
    return sweep._cell_oracle_equiv(point, 256).verdict


class TestOracleEquiv:
    @settings(max_examples=60, deadline=None)
    @given(grid_points)
    def test_holds_on_the_recurrence(self, point):
        assert oracle_verdict(*point) == "Holds"

    @settings(max_examples=60, deadline=None)
    @given(grid_points, st.data())
    def test_one_numerator_off_by_one_fails(self, point, data):
        nums = list(power(LatticeParams(*point)).numerators)
        k = data.draw(st.integers(min_value=0, max_value=len(nums) - 1))
        nums[k] += data.draw(st.sampled_from((-1, 1)))
        assert oracle_verdict(*point, nums) == "Fails"

    @settings(max_examples=30, deadline=None)
    @given(grid_points, st.data())
    def test_negative_numerator_fails(self, point, data):
        nums = list(power(LatticeParams(*point)).numerators)
        k = data.draw(st.integers(min_value=0, max_value=len(nums) - 1))
        nums[k] = -nums[k]
        assert oracle_verdict(*point, nums) == "Fails"

    @settings(max_examples=60, deadline=None)
    @given(grid_points, st.data())
    def test_carry_alias_fails(self, point, data):
        ell, n = point
        true = power(LatticeParams(ell, n)).numerators
        nums = list(true)
        k = data.draw(st.integers(min_value=0, max_value=len(nums) - 2))
        bits = 8 * (((ell**n).bit_length() + 7) // 8)
        nums[k] += 1 << bits
        nums[k + 1] -= 1

        def shift_sum(vs):
            return sum(v << (bits * i) for i, v in enumerate(vs))

        # by value the alias packs to the true integer; only its slot
        # range gives it away
        assert shift_sum(nums) == shift_sum(true)
        assert oracle_verdict(ell, n, nums) == "Fails"

    @settings(max_examples=30, deadline=None)
    @given(grid_points, st.sampled_from((-1, 1)))
    def test_de_moivre_nonzero_off_the_support_fails(self, point, side):
        real = sweep.de_moivre_pmf

        def off_support_mass(params, k):
            off = -1 if side < 0 else params.top + 1
            return Fraction(1, params.ell**params.n) if k == off else real(params, k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "de_moivre_pmf", off_support_mass)
            assert oracle_verdict(*point) == "Fails"


class TestAsymptoticsCommand:
    def test_table(self, capsys):
        code = main(["asymptotics", "--ell", "3", "--n-list", "2,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.9648016727" in out
        assert out.splitlines()[0].split()[:2] == ["n", "concentration"]

    def test_csv(self, capsys):
        code = main(["asymptotics", "--ell", "2", "--n-list", "10", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,concentration,ratio,sup_deviation"
        n, conc, ratio, dev = lines[1].split(",")
        assert n == "10" and conc == "0.24609375"
        assert 0.9 < float(ratio) < 1.0
        assert float(dev) < 0.05

    def test_bad_list(self, capsys):
        assert main(["asymptotics", "--ell", "2", "--n-list", "1,x"]) == 2

    def test_out_without_a_file_name_is_refused(self, tmp_path, capsys, monkeypatch):
        def refuse(params):
            raise AssertionError("table computed")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "concentration", refuse)
        assert main(["asymptotics", "--ell", "2", "--n-list", "5", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out must end in a file name, got ''\n"
        assert list(tmp_path.iterdir()) == []


class TestReportCommand:
    def test_writes_both_formats(self, tmp_path, capsys):
        # n <= 2 keeps the grid clear of the known bretagnolle counterexamples
        base = tmp_path / "out" / "summary"
        code = main(
            ["report", "--ell-range", "2:4", "--n-range", "1:2", "--out", str(base)]
        )
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        out = capsys.readouterr().out
        assert "oracle_equiv" in out and "mismatches=0" in out
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        checks = {c["check"] for c in doc["cells"]}
        assert checks == {
            "argmax", "bessel_chain", "bretagnolle", "corollary", "dsequence",
            "main", "moments", "oracle_equiv", "wallis",
        }

    def test_files_equal_the_bytes_functions(self, tmp_path, capsys):
        base = tmp_path / "B"
        assert main(["report", "--ell-range", "2:4", "--n-range", "1:2", "--out", str(base)]) == 0
        report = run_sweep(SweepConfig((2, 4), (1, 2), CHECKS))
        for suffix, write in (("csv", write_report_csv), ("json", write_report_json)):
            assert (tmp_path / f"B.{suffix}").read_bytes() == written(write, report).encode("utf-8")

    def test_dotted_basename_keeps_every_dot(self, tmp_path, capsys):
        # the suffixes are appended: grid.v2 and grid.v3 write apart
        runs = tmp_path / "runs"
        for name in ("grid.v2", "grid.v3"):
            argv = ["report", "--ell-range", "2:2", "--n-range", "1:2", "--out", str(runs / name)]
            assert main(argv) == 0
            last = capsys.readouterr().out.splitlines()[-1]
            assert last == f"wrote {runs / name}.csv and {runs / name}.json"
        assert sorted(p.name for p in runs.iterdir()) == [
            "grid.v2.csv", "grid.v2.json", "grid.v3.csv", "grid.v3.json",
        ]

    @pytest.mark.parametrize("out", ["rr/", "rr/.", "rr/..", ".", "..", "", "-"])
    def test_out_without_a_file_name_is_refused(self, tmp_path, capsys, monkeypatch, out):
        # the suffixes are appended to the text: rr/ would write rr/.csv; and
        # - is stdout, which cannot take two files
        def refuse(config):
            raise AssertionError("sweep ran")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_sweep", refuse)
        assert main(["report", "--ell-range", "2:2", "--n-range", "1:2", "--out", out]) == 2
        assert "--out must end in a file name" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def check_lines(out: str) -> dict[str, str]:
        """The per-check lines of ``report``'s stdout, by check."""
        return {line.split()[0]: line for line in out.splitlines() if line.split()[0] in CHECKS}

    def test_per_check_lines(self, tmp_path, capsys):
        # (3, 3) and (3, 5) are the bretagnolle exception cells of the grid
        argv = ["report", "--ell-range", "3:3", "--n-range", "1:5", "--out", str(tmp_path / "r")]
        assert main(argv) == 1
        lines = self.check_lines(capsys.readouterr().out)
        assert sorted(lines) == sorted(set(CHECKS) - {"wallis"})
        assert lines.pop("bretagnolle") == "bretagnolle    cells=5      2 unexpected"
        for check, line in lines.items():
            assert line == f"{check:<14} cells=5      ok"

    def test_inconclusive_cells_are_unexpected(self, tmp_path, capsys, monkeypatch):
        # every certified margin straddles 0: [-1, 1] - 0
        real = sweep.verdict_between
        straddle = Interval(Dyadic(-1, 0), Dyadic(1, 0))
        monkeypatch.setattr(
            sweep, "verdict_between", lambda lhs, rhs, prec: real(Fraction(0), straddle, prec)
        )
        argv = ["report", "--ell-range", "3:3", "--n-range", "1:5", "--out", str(tmp_path / "r")]
        assert main(argv) == 1
        lines = self.check_lines(capsys.readouterr().out)
        for check in ("bessel_chain", "corollary", "dsequence", "main"):
            assert lines.pop(check) == f"{check:<14} cells=5      5 unexpected"
        assert lines.pop("bretagnolle") == "bretagnolle    cells=5      2 unexpected"
        for check, line in lines.items():
            assert line.endswith(" ok"), line


class TestOutRule:
    """One rule for what --out names, and every output opened before any work:
    stdout, a refusal (exit 2), or files in a directory made first (exit 3 if
    the directory cannot be made or a file cannot be opened)."""

    # each command on a tiny grid, and the work it must not reach on a refusal
    ARGV = {
        "verify": (["verify", "--ell-range", "2:2", "--n-range", "1:2"], "run_sweep"),
        "asymptotics": (["asymptotics", "--ell", "2", "--n-list", "5"], "concentration"),
        "report": (["report", "--ell-range", "2:2", "--n-range", "1:2"], "run_sweep"),
    }

    @staticmethod
    def refuse_work(monkeypatch, name):
        def refuse(*args):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("command, via", [
        ("verify", "flag"), ("verify", "config"), ("asymptotics", "flag"),
    ])
    def test_missing_directory_is_made(self, tmp_path, capsys, monkeypatch, command, via):
        monkeypatch.chdir(tmp_path)
        argv = self.ARGV[command][0]
        assert main([*argv, "--out", "-"]) == 0
        streamed = capsys.readouterr().out
        if via == "flag":
            argv = [*argv, "--out", "nodir/r.csv"]
        else:
            Path("sweep.cfg").write_text("out=nodir/r.csv\n")
            argv = [*argv, "--config", "sweep.cfg"]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        assert Path("nodir/r.csv").read_text(encoding="utf-8") == streamed

    @pytest.mark.parametrize("command", ["verify", "asymptotics", "report"])
    @pytest.mark.parametrize("under", ["afile/r.csv", "afile/sub/r.csv"])
    def test_under_a_regular_file_fails_before_the_work(
        self, tmp_path, capsys, monkeypatch, command, under
    ):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept")
        argv, work = self.ARGV[command]
        self.refuse_work(monkeypatch, work)
        assert main([*argv, "--out", under]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert Path("afile").read_text() == "kept"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.parametrize("command, bad", [
        ("verify", ["--ell-range", "2:"]),
        ("asymptotics", ["--ell", "0"]),
        ("report", ["--ell-range", "2:"]),
        # LatticeParams admits ell = 1; the table's own rule refuses it
        ("asymptotics", ["--ell", "1"]),
    ])
    def test_settings_are_checked_before_the_directory_is_made(
        self, tmp_path, capsys, monkeypatch, command, bad
    ):
        # the last of a repeated flag wins
        monkeypatch.chdir(tmp_path)
        argv, work = self.ARGV[command]
        self.refuse_work(monkeypatch, work)
        assert main([*argv, *bad, "--out", "newdir/r.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, out, directory, left", [
        ("verify", "adir", "adir", ["adir"]),
        ("asymptotics", "adir", "adir", ["adir"]),
        ("report", "b", "b.csv", ["b.csv"]),
        # b.csv is opened, and so made empty, before b.json is refused
        ("report", "b", "b.json", ["b.csv", "b.json"]),
    ])
    def test_a_directory_fails_before_the_work(
        self, tmp_path, capsys, monkeypatch, command, out, directory, left
    ):
        # every output is opened before any work, so the OS refuses a
        # directory before the sweep or the table starts
        monkeypatch.chdir(tmp_path)
        Path(directory).mkdir()
        argv, work = self.ARGV[command]
        self.refuse_work(monkeypatch, work)
        assert main([*argv, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == left
        assert all(Path(name).is_dir() or Path(name).read_text() == "" for name in left)

    def test_report_names_the_files_it_wrote(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([*self.ARGV["report"][0], "--out", "./sub/r"]) == 0
        assert capsys.readouterr().out.endswith("wrote sub/r.csv and sub/r.json\n")
        assert sorted(p.name for p in Path("sub").iterdir()) == ["r.csv", "r.json"]


class TestGoldenReport:
    """The criterion-12 grid (ell 2:8, n 1:20, all checks, 256 bits) against
    reports committed under tests/golden before the exact layer and the sweep
    were restructured; any change to a verdict, a rendered number or the
    summary shows up as a byte difference.  The margins of main, corollary,
    dsequence and wallis were regenerated once, when the sweep began to
    enclose them at the requested precision instead of at 64 bits; the
    margins of the 20 bessel_chain rows were regenerated once, when G(2n/3)
    began to be enclosed at the requested precision instead of to a fixed
    1e-12 tolerance.  Every certified column is checked against an mpmath
    reference."""

    GOLDEN = Path(__file__).parent / "golden"

    @pytest.fixture(scope="class")
    def report(self):
        return run_sweep(SweepConfig((2, 8), (1, 20), CHECKS, 256))

    def test_csv_bytes(self, report):
        golden = (self.GOLDEN / "criterion12.csv").read_bytes()
        assert written(write_report_csv, report).encode("utf-8") == golden

    def test_json_bytes(self, report):
        golden = (self.GOLDEN / "criterion12.json").read_bytes()
        assert written(write_report_json, report).encode("utf-8") == golden

    def test_certified_columns_enclose_mpmath_reference(self, report):
        assert enclosed_reference_cells(report) == 460

    def test_64_bit_columns_enclose_reference_and_keep_decided_verdicts(self, report):
        # 64 bits, the lowest precision, is where rounding shows most in the
        # margins; a decided verdict must not depend on the precision
        low = run_sweep(SweepConfig((2, 8), (1, 20), CHECKS, 64))
        assert enclosed_reference_cells(low) == 460
        assert len(low.cells) == len(report.cells)
        for a, b in zip(low.cells, report.cells):
            assert (a.ell, a.n, a.check) == (b.ell, b.n, b.check)
            if a.verdict != "Inconclusive":
                assert a.verdict == b.verdict, (a, b)


def enclosed_reference_cells(report) -> int:
    """Assert that every certified bound and margin of ``report`` encloses
    the mpmath reference; return how many cells were checked."""
    checked = 0
    for cell in report.cells:
        if cell.check not in ("main", "corollary", "dsequence", "wallis", "bessel_chain"):
            continue
        bound = reference_bound(cell.check, cell.ell, cell.n)
        margin = bound - Fraction(cell.exact_fraction)
        if cell.check == "bessel_chain":
            # pair < G(2n/3) < bound; the margin is the smaller side's
            g = reference_G(Fraction(2 * cell.n, 3))
            margin = min(g - Fraction(cell.exact_fraction), bound - g)
        assert rendered(cell.bound_lo, -1) <= bound <= rendered(cell.bound_hi, 1), cell
        assert rendered(cell.margin_lo, -1) <= margin <= rendered(cell.margin_hi, 1), cell
        checked += 1
    return checked


def frac_of_mpf(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    value = Fraction(man, 1) * Fraction(2) ** exp
    return -value if sign else value


def reference_bound(check: str, ell: int, n: int) -> Fraction:
    """The bound of a certified check at 500 bits, from mpmath alone."""
    with mpmath.workprec(500):
        pi = mpmath.pi
        main = mpmath.sqrt(6 / (pi * (ell * ell - 1) * n))
        if check == "main":
            value = main
        elif check == "corollary":
            value = 2 * mpmath.sqrt(2 / pi) / (ell * mpmath.sqrt(n))
        elif check == "wallis":
            value = 1 / mpmath.sqrt(pi * ((n + 1) // 2))
        elif check == "bessel_chain":
            value = mpmath.sqrt(3 / (pi * n))
        else:
            d = 1 - mpmath.mpf(3) / (20 * n) + mpmath.mpf(21) / (160 * n * n)
            if n % 2 == 0:
                d += 1 / (mpmath.sqrt(3) * (n - 1) * mpmath.mpf(2) ** (n - 1))
            value = d * main
        return frac_of_mpf(value)


def reference_G(lam: Fraction) -> Fraction:
    """exp(-lam) * (I0(lam) + I1(lam)) at 500 bits, from mpmath alone."""
    with mpmath.workprec(500):
        x = mpmath.mpf(lam.numerator) / lam.denominator
        return frac_of_mpf(mpmath.exp(-x) * (mpmath.besseli(0, x) + mpmath.besseli(1, x)))


def rendered(text: str, direction: int) -> Fraction:
    """A rendered endpoint moved outward by half a unit in its 30th digit,
    the most its decimal rounding can have moved it inward."""
    d = Decimal(text)
    return Fraction(d) + direction * Fraction(5) * Fraction(10) ** (d.adjusted() - 30)
