"""Command-line front end.

Subcommands:
  pmf          exact or numeric pmf values of the n-fold uniform sum
  conc         maximal single-point (or adjacent-pair) probability
  verify       certified grid sweep of the concentration checks
  asymptotics  local-CLT sharpness table
  report       full check suite over a grid, CSV + JSON side by side

Exit codes: 0 success / verified, 1 verification mismatch or inconclusive
result (a quadrature that does not converge is inconclusive too), 2 usage
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
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
    decimal_string,
    report_to_csv_bytes,
    report_to_json_bytes,
    run_sweep,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

# the keys a --config file may set, one per verify option
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
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance for --method fourier")

    p = sub.add_parser("conc", help="maximal probability of the n-fold uniform sum")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pair", action="store_true", help="maximal adjacent-pair probability instead")

    p = sub.add_parser("verify", help="certified sweep over a (ell, n) grid")
    _add_sweep_args(p)
    p.add_argument("--checks", default=None, help=f"comma list from {','.join(CHECKS)} (default: main)")
    p.add_argument("--format", dest="output_format", choices=("csv", "json"), default=None)
    p.add_argument("--out", default=None, help="output path, - for stdout (default)")
    p.add_argument("--config", default=None, help="key=value file; explicit flags win")

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
    p.add_argument("--ell-range", default=None, help="lattice sizes A:B")
    p.add_argument("--n-range", default=None, help="convolution powers A:B")
    p.add_argument("--precision-bits", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=None)


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


def _sweep_config(args, file_values: dict[str, str], checks: tuple[str, ...]) -> SweepConfig:
    def pick(flag_value, key: str, fallback):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return fallback

    ell_range = pick(args.ell_range, "ell_range", "2:10")
    n_range = pick(args.n_range, "n_range", "1:20")
    precision = pick(args.precision_bits, "precision_bits", 256)
    parallelism = pick(args.parallelism, "parallelism", 1)
    output_format = pick(getattr(args, "output_format", None), "format", "csv")
    return SweepConfig(
        ell_range=_parse_range(str(ell_range)),
        n_range=_parse_range(str(n_range)),
        checks=checks,
        precision_bits=_parse_int("precision_bits", precision),
        output_format=str(output_format),
        parallelism=_parse_int("parallelism", parallelism),
    )


def _cmd_pmf(args) -> int:
    params = LatticeParams(args.ell, args.n)
    denom = args.ell**args.n

    if args.method == "fourier":
        # imported here so that no other command loads numpy
        from .spectral import fourier_pmf

        ks = [args.k] if args.k is not None else range(params.top + 1)
        for k in ks:
            value = fourier_pmf(args.ell, args.n, k, args.tol).value
            prefix = f"{k} " if args.k is None else ""
            print(f"{prefix}{value:.12g}")
        return EXIT_OK

    if args.k is not None:
        value = (
            de_moivre_pmf(params, args.k)
            if args.method == "demoivre"
            else power(params).pmf(args.k)
        )
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
    value = pair_concentration(params) if args.pair else concentration(params)
    print(f"{value.numerator}/{value.denominator} = {decimal_string(value)}")
    return EXIT_OK


def _write_bytes(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.write(data.decode("utf-8"))
        return
    Path(path).write_bytes(data)


def _summary_line(report: SweepReport) -> str:
    s = report.summary
    return (
        f"cells={s.cells} holds={s.holds} fails={s.fails} "
        f"inconclusive={s.inconclusive} mismatches={s.mismatches}"
    )


def _cmd_verify(args) -> int:
    file_values = _read_config_file(args.config) if args.config else {}
    checks_text = args.checks if args.checks is not None else file_values.get("checks", "main")
    checks = tuple(c.strip() for c in checks_text.split(",") if c.strip())
    config = _sweep_config(args, file_values, checks)
    out = args.out if args.out is not None else file_values.get("out", "-")
    report = run_sweep(config)
    data = (
        report_to_json_bytes(report)
        if config.output_format == "json"
        else report_to_csv_bytes(report)
    )
    _write_bytes(out, data)
    print(_summary_line(report), file=sys.stderr)
    return EXIT_OK if report.summary.clean else EXIT_VERIFICATION


def _cmd_asymptotics(args) -> int:
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
        text = "\n".join(lines) + "\n"
    else:
        header = f"{'n':>8}  {'concentration':<34}{'ratio':<20}{'sup_deviation'}"
        lines = [header]
        lines += [f"{n:>8}  {c:<34}{r:<20}{s}" for n, c, r, s in rows]
        text = "\n".join(lines) + "\n"
    _write_bytes(args.out, text.encode("utf-8"))
    return EXIT_OK


def _cmd_report(args) -> int:
    config = _sweep_config(args, {}, CHECKS)
    report = run_sweep(config)
    base = Path(args.out)
    base.parent.mkdir(parents=True, exist_ok=True)
    base.with_suffix(".csv").write_bytes(report_to_csv_bytes(report))
    base.with_suffix(".json").write_bytes(report_to_json_bytes(report))
    # the cells are sorted by check, and each check is summarized by the rule
    # that decides the whole report's exit code
    for check, cells in groupby(report.cells, key=lambda c: c.check):
        s = SweepSummary.of(list(cells))
        status = "ok" if s.clean else f"{s.unexpected} unexpected"
        print(f"{check:<14} cells={s.cells:<6} {status}")
    print(_summary_line(report))
    print(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.json')}")
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
    # exact values may run to any number of digits; argv keeps the guard
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:
        limit = sys.get_int_max_str_digits()
        set_limit(0)
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
    finally:
        if set_limit is not None:
            set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
