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
from contextlib import ExitStack, contextmanager
from decimal import Decimal
from functools import cache
from itertools import groupby
from pathlib import Path

from .asymptotics import clt_ratio, local_clt_sup_dev
from .errors import ConvergenceError, ParameterError, check_lattice
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
    _exact_strings,
    _int_string,
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


# built on the first call, not at import, and then shared by every call:
# parse_args reads the parser and never changes it
@cache
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
        if key in values:
            raise ParameterError(f"config key {key!r} is set twice")
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

    # the denominator is converted to text once, not once per line
    tail = f"/{_int_string(denom)}"
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
            print(f"{_int_string(value.numerator)}{tail}")
        else:
            unreduced = _int_string(value.numerator * (denom // value.denominator))
            reduced = f"{_int_string(value.numerator)}/{_int_string(value.denominator)}"
            print(f"{unreduced}{tail} = {reduced}")
        return EXIT_OK

    top = params.top
    if args.method == "demoivre":
        # unreduced numerators over ell**n, as the --k branch prints them
        for k in range(top + 1):
            v = de_moivre_pmf(params, k)
            print(f"{k} {_int_string(v.numerator * (denom // v.denominator))}{tail}")
        return EXIT_OK
    # the pmf is symmetric, so line k > top/2 reuses the text of line top - k
    nums, write = power(params).numerators, sys.stdout.write
    lower = [f"{_int_string(nums[k])}{tail}\n" for k in range(top // 2 + 1)]
    for k, text in enumerate(lower + lower[: (top + 1) // 2][::-1]):
        write(f"{k} {text}")
    return EXIT_OK


def _cmd_conc(args) -> int:
    params = LatticeParams(args.ell, args.n)
    value = pair_concentration(power(params)) if args.pair else concentration(params)
    exact, fraction = _exact_strings(value)
    print(f"{fraction} = {exact}")
    return EXIT_OK


@contextmanager
def _outputs(text: str | None, suffixes: tuple[str, ...] = ("",)):
    """The text streams ``--out`` names, by one rule, opened before any work:
    ``(sys.stdout,)`` as it is at the call for no path or for - with one
    output; else one file per suffix appended to the text, in a directory made
    first, as UTF-8 with newlines as given, all closed on exit.  A last
    component "", . or .., or - for two files, is refused."""
    if text is None or (text == "-" and len(suffixes) == 1):
        yield (sys.stdout,)
        return
    if text == "-" or os.path.basename(text) in ("", ".", ".."):
        raise ParameterError(f"--out must end in a file name, got {text!r}")
    Path(text).parent.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        yield tuple(
            stack.enter_context(open(Path(text + suffix), "w", encoding="utf-8", newline=""))
            for suffix in suffixes
        )


def _summary_line(report: SweepReport) -> str:
    s = report.summary
    return (
        f"cells={s.cells} holds={s.holds} fails={s.fails} "
        f"inconclusive={s.inconclusive} mismatches={s.mismatches}"
    )


def _cmd_verify(args) -> int:
    given = _read_config_file(args.config) if args.config else {}
    given.update(_flags(args))
    config = _sweep_config(given)
    write = write_report_json if config.output_format == "json" else write_report_csv
    with _outputs(given.get("out")) as (stream,):
        report = run_sweep(config)
        write(report, stream)
    print(_summary_line(report), file=sys.stderr)
    return EXIT_OK if report.summary.clean else EXIT_VERIFICATION


def _cmd_asymptotics(args) -> int:
    try:
        n_list = [int(part) for part in args.n_list.split(",") if part.strip()]
    except ValueError:
        raise ParameterError(f"bad --n-list {args.n_list!r}") from None
    if not n_list:
        raise ParameterError("--n-list must name at least one power")
    for n in n_list:
        check_lattice(args.ell, n)
    with _outputs(args.out) as (stream,):
        rows = []
        for n in n_list:
            c = concentration(LatticeParams(args.ell, n))
            ratio, dev = clt_ratio(args.ell, n, c), local_clt_sup_dev(args.ell, n)
            rows.append((n, decimal_string(c), f"{ratio:.15g}", f"{dev:.15g}"))
        if args.output_format == "csv":
            lines = ["n,concentration,ratio,sup_deviation"]
            lines += [f"{n},{c},{r},{s}" for n, c, r, s in rows]
        else:
            header = f"{'n':>8}  {'concentration':<34}{'ratio':<20}{'sup_deviation'}"
            lines = [header]
            lines += [f"{n:>8}  {c:<34}{r:<20}{s}" for n, c, r, s in rows]
        stream.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_report(args) -> int:
    config = _sweep_config(_flags(args), checks=CHECKS)
    with _outputs(args.out, (".csv", ".json")) as (csv_out, json_out):
        report = run_sweep(config)
        write_report_csv(report, csv_out)
        write_report_json(report, json_out)
    # the cells are sorted by check, and each check is summarized by the rule
    # that decides the whole report's exit code
    for check, cells in groupby(report.cells, key=lambda c: c.check):
        s = SweepSummary.of(list(cells))
        status = "ok" if s.clean else f"{s.unexpected} unexpected"
        print(f"{check:<14} cells={s.cells:<6} {status}")
    print(_summary_line(report))
    print(f"wrote {csv_out.name} and {json_out.name}")
    return EXIT_OK if report.summary.clean else EXIT_VERIFICATION


_COMMANDS = {
    "pmf": _cmd_pmf,
    "conc": _cmd_conc,
    "verify": _cmd_verify,
    "asymptotics": _cmd_asymptotics,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
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
