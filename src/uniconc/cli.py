"""Command-line front end.

Subcommands:
  pmf          exact or numeric pmf values of the n-fold uniform sum
  conc         maximal single-point (or adjacent-pair) probability
  verify       certified grid sweep of the concentration checks
  asymptotics  local-CLT sharpness table
  report       full check suite over a grid, CSV + JSON side by side

Exit codes: 0 success / verified, 1 verification mismatch or inconclusive
result (a Fourier sum whose cross-check misses --tol is inconclusive too), 2 usage
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from decimal import Decimal
from itertools import groupby
from pathlib import Path

from .asymptotics import clt_ratio, local_clt_sup_dev
from .errors import ConvergenceError, ParameterError
from .exactdist import (
    LatticeParams,
    concentration,
    de_moivre_pmf,
    pair_concentration,
    power,
)
from .sweep import (
    CHECKS,
    SweepConfig,
    SweepReport,
    SweepSummary,
    _no_int_digit_limit,
    decimal_string,
    run_sweep,
    write_report_csv,
    write_report_json,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

# the keys a --config file may set, each the dest of its verify flag
_CONFIG_KEYS = ("ell_range", "n_range", "checks", "precision_bits", "format", "out", "parallelism")


def _parse_range(text: str) -> tuple[int, int]:
    # without a colon hi is empty, so a bare number fails too
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ParameterError(f"expected a range A:B, got {text!r}") from None


def _parse_int(key: str, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParameterError(f"{key} must be an integer, got {value!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniconc",
        description="Exact concentrations of n-fold uniform sums and certified bound verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="pmf values of the n-fold uniform sum")
    p.add_argument("--ell", type=int, required=True, help="support size of the base uniform law")
    p.add_argument("--n", type=int, required=True, help="convolution power")
    p.add_argument("--k", type=int, default=None, help="point to evaluate; omit for the whole support")
    p.add_argument("--method", choices=("exact", "demoivre", "fourier"), default="exact")
    p.add_argument("--tol", type=float, default=1e-10, help="rounding tolerance for --method fourier")

    p = sub.add_parser("conc", help="maximal probability of the n-fold uniform sum")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pair", action="store_true", help="maximal adjacent-pair probability instead")

    p = sub.add_parser("verify", help="certified sweep over a (ell, n) grid")
    _add_sweep_args(p)
    p.add_argument("--checks", help=f"comma list from {','.join(CHECKS)}")
    p.add_argument("--format", help="csv or json")
    p.add_argument("--out", help="output path, - for stdout (default)")
    p.add_argument("--config", help="key=value file; explicit flags win")

    p = sub.add_parser("asymptotics", help="sharpness diagnostics for growing n")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated list of powers")
    p.add_argument("--format", dest="output_format", choices=("table", "csv"), default="table")
    p.add_argument("--out", default=None, help="output path, - for stdout (default)")

    p = sub.add_parser("report", help="run every check over a grid, write CSV and JSON")
    _add_sweep_args(p)
    p.add_argument("--out", default="report", help="output basename; writes BASENAME.csv and BASENAME.json")
    return parser


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell-range", help="lattice sizes A:B")
    p.add_argument("--n-range", help="convolution powers A:B")
    p.add_argument("--precision-bits")
    p.add_argument("--parallelism")


def _read_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file {path} is not UTF-8: {exc}") from None
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParameterError(f"bad config line (expected key=value): {raw!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"unknown config key {key!r}; valid: {', '.join(_CONFIG_KEYS)}")
        values[key] = value.strip()
    return values


def _flags(args) -> dict[str, str]:
    """The text of every setting given as a flag, by its config key."""
    return {key: text for key in _CONFIG_KEYS if (text := getattr(args, key, None)) is not None}


def _sweep_config(given: dict[str, str], **settings) -> SweepConfig:
    """The SweepConfig of ``settings`` and of the given settings' text, flag
    or config value alike, each parsed by the one parser of its kind.  Other
    keys are not sweep settings, and a setting not given takes the default of
    its SweepConfig field."""
    for key, text in given.items():
        if key in ("ell_range", "n_range"):
            settings[key] = _parse_range(text)
        elif key in ("precision_bits", "parallelism"):
            settings[key] = _parse_int(key, text)
        elif key == "checks":
            settings[key] = tuple(c.strip() for c in text.split(",") if c.strip())
        elif key == "format":
            settings["output_format"] = text
    return SweepConfig(**settings)


def _cmd_pmf(args) -> int:
    params = LatticeParams(args.ell, args.n)
    denom = args.ell**args.n

    if args.method == "fourier":
        # imported here so that no other command loads the oracle
        from .spectral import fourier_pmf

        # the sum is only good to tol, so each value is printed rounded to
        # tol's decimal place; adding 0.0 turns a rounded -0.0 into 0.0
        places = max(0, -Decimal(repr(args.tol)).adjusted())
        ks = [args.k] if args.k is not None else range(params.top + 1)
        for k in ks:
            value = round(fourier_pmf(args.ell, args.n, k, args.tol).value, places) + 0.0
            prefix = f"{k} " if args.k is None else ""
            print(f"{prefix}{value:.{places}f}")
        return EXIT_OK

    if args.k is not None:
        if not 0 <= args.k <= params.top:
            value = 0
        elif args.method == "demoivre":
            value = de_moivre_pmf(params, args.k)
        else:
            value = power(params).pmf(args.k)
        if value == 0:
            print("0")
        elif value.denominator == denom:
            print(f"{value.numerator}/{value.denominator}")
        else:
            print(f"{value.numerator * (denom // value.denominator)}/{denom} = {value}")
        return EXIT_OK

    if args.method == "demoivre":
        # unreduced numerators over ell**n, as the --k branch prints them
        values = (de_moivre_pmf(params, k) for k in range(params.top + 1))
        nums = (v.numerator * (denom // v.denominator) for v in values)
    else:
        nums = power(params).numerators
    # the denominator is converted to text once, not once per line
    tail = f"/{denom}"
    for k, num in enumerate(nums):
        print(f"{k} {num}{tail}")
    return EXIT_OK


def _cmd_conc(args) -> int:
    params = LatticeParams(args.ell, args.n)
    value = pair_concentration(power(params)) if args.pair else concentration(params)
    print(f"{value.numerator}/{value.denominator} = {decimal_string(value)}")
    return EXIT_OK


def _check_out(path: str | None) -> None:
    """Refuse, before any work, an output path whose last component is
    empty, . or ..: no file could be written there, and ``report``, which
    appends its suffixes to the text, would write rr/.csv for rr/.  No path
    and - mean stdout."""
    if path not in (None, "-") and os.path.basename(path) in ("", ".", ".."):
        raise ParameterError(f"--out must end in a file name, got {path!r}")


@contextmanager
def _output(path: str | Path | None):
    """The text stream an output goes to: ``sys.stdout`` as it is at the
    call, for no path or -, else the file, written as UTF-8 with every
    newline as given and closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        yield out


def _summary_line(report: SweepReport) -> str:
    s = report.summary
    return (
        f"cells={s.cells} holds={s.holds} fails={s.fails} "
        f"inconclusive={s.inconclusive} mismatches={s.mismatches}"
    )


def _cmd_verify(args) -> int:
    given = _read_config_file(args.config) if args.config else {}
    given.update(_flags(args))
    _check_out(given.get("out"))
    report = run_sweep(_sweep_config(given))
    write = write_report_json if report.config.output_format == "json" else write_report_csv
    with _output(given.get("out")) as stream:
        write(report, stream)
    print(_summary_line(report), file=sys.stderr)
    return EXIT_OK if report.summary.clean else EXIT_VERIFICATION


def _cmd_asymptotics(args) -> int:
    _check_out(args.out)
    try:
        n_list = [int(part) for part in args.n_list.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"bad --n-list {args.n_list!r}") from None
    if not n_list:
        raise ParameterError("--n-list must name at least one power")
    rows = []
    for n in n_list:
        c = concentration(LatticeParams(args.ell, n))
        rows.append(
            (
                n,
                decimal_string(c),
                f"{clt_ratio(args.ell, n, c):.15g}",
                f"{local_clt_sup_dev(args.ell, n):.15g}",
            )
        )
    if args.output_format == "csv":
        lines = ["n,concentration,ratio,sup_deviation"]
        lines += [f"{n},{c},{r},{s}" for n, c, r, s in rows]
    else:
        header = f"{'n':>8}  {'concentration':<34}{'ratio':<20}{'sup_deviation'}"
        lines = [header]
        lines += [f"{n:>8}  {c:<34}{r:<20}{s}" for n, c, r, s in rows]
    with _output(args.out) as out:
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_report(args) -> int:
    _check_out(args.out)
    report = run_sweep(_sweep_config(_flags(args), checks=CHECKS))
    csv_path, json_path = Path(f"{args.out}.csv"), Path(f"{args.out}.json")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    for path, write in ((csv_path, write_report_csv), (json_path, write_report_json)):
        with _output(path) as out:
            write(report, out)
    # the cells are sorted by check, and each check is summarized by the rule
    # that decides the whole report's exit code
    for check, cells in groupby(report.cells, key=lambda c: c.check):
        s = SweepSummary.of(list(cells))
        status = "ok" if s.clean else f"{s.unexpected} unexpected"
        print(f"{check:<14} cells={s.cells:<6} {status}")
    print(_summary_line(report))
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK if report.summary.clean else EXIT_VERIFICATION


_COMMANDS = {
    "pmf": _cmd_pmf,
    "conc": _cmd_conc,
    "verify": _cmd_verify,
    "asymptotics": _cmd_asymptotics,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    # argv is parsed under the int-to-str digit limit; exact values are not
    with _no_int_digit_limit():
        try:
            return _COMMANDS[args.command](args)
        except ParameterError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
