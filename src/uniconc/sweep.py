"""Grid sweeps of the certified checks, with deterministic reports.

The work unit is one (ell, n) grid point, which computes the cells of every
requested check from one shared concentration and pmf.  Points are
independent and may be computed by a worker pool, which returns them in task
order, and records are always collected in (check, ell, n) order, so the
report bytes do not depend on the level of parallelism.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str
from math import comb
from operator import attrgetter
from typing import TextIO

from . import bounds
from .certify import (
    Dyadic,
    Interval,
    RootBound,
    Verdict,
    _check_precision,
    evaluate,
    verdict_between,
)
from .errors import ParameterError, check_int
from .exactdist import (
    ExactDensity,
    LatticeParams,
    argmax_set,
    concentration,
    de_moivre_pmf,
    moments,
    pair_concentration,
    power,
)

__all__ = [
    "CHECKS",
    "SweepConfig",
    "SweepCell",
    "SweepSummary",
    "SweepReport",
    "run_sweep",
    "write_report_csv",
    "write_report_json",
    "decimal_string",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "ell",
    "n",
    "check",
    "exact",
    "bound_lo",
    "bound_hi",
    "verdict",
    "margin_lo",
    "margin_hi",
    "expected",
)

@dataclass(frozen=True)
class SweepConfig:
    ell_range: tuple[int, int] = (2, 10)
    n_range: tuple[int, int] = (1, 20)
    checks: tuple[str, ...] = ("main",)
    precision_bits: int = 256
    output_format: str = "csv"
    parallelism: int = 1

    def __post_init__(self):
        for name, (lo, hi), least in (("ell", self.ell_range, 2), ("n", self.n_range, 1)):
            check_int(f"{name} range start", lo, least)
            check_int(f"{name} range end", hi, lo)
        if not self.checks:
            raise ParameterError(f"checks must name at least one check; valid: {CHECKS}")
        bad = set(self.checks) - set(CHECKS)
        if bad:
            raise ParameterError(f"unknown checks: {sorted(bad)}; valid: {CHECKS}")
        if len(set(self.checks)) < len(self.checks):
            repeated = sorted({c for c in self.checks if self.checks.count(c) > 1})
            raise ParameterError(f"repeated checks: {repeated}")
        _check_precision(self.precision_bits)
        if self.output_format not in ("csv", "json"):
            raise ParameterError(f"format must be csv or json, got {self.output_format}")
        check_int("parallelism", self.parallelism, 1)

    def serializable(self) -> dict:
        # parallelism is an execution detail and is deliberately left out so
        # reports are byte-identical across worker-pool sizes
        return {
            "ell_range": list(self.ell_range),
            "n_range": list(self.n_range),
            "checks": sorted(self.checks),
            "precision_bits": self.precision_bits,
            "output_format": self.output_format,
        }


@dataclass(frozen=True, slots=True)
class SweepCell:
    ell: int
    n: int
    check: str
    exact: str
    exact_fraction: str
    bound_lo: str
    bound_hi: str
    verdict: str
    margin_lo: str
    margin_hi: str
    expected: str

    @property
    def mismatch(self) -> bool:
        """A decided verdict on the wrong side of the expected region;
        Inconclusive cells are counted separately and never mismatch."""
        return self.verdict != "Inconclusive" and (self.expected == "holds") != (
            self.verdict == "Holds"
        )


@dataclass(frozen=True)
class SweepSummary:
    cells: int
    holds: int
    fails: int
    inconclusive: int
    mismatches: int

    @classmethod
    def of(cls, cells: list[SweepCell]) -> SweepSummary:
        v = Counter(c.verdict for c in cells)
        mismatches = sum(c.mismatch for c in cells)
        return cls(len(cells), v["Holds"], v["Fails"], v["Inconclusive"], mismatches)

    @property
    def unexpected(self) -> int:
        """Cells not decided as expected: mismatches and Inconclusive cells."""
        return self.mismatches + self.inconclusive

    @property
    def clean(self) -> bool:
        return self.unexpected == 0


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    cells: list[SweepCell]

    @cached_property
    def summary(self) -> SweepSummary:
        """Derived from the cells, once, so the two cannot disagree."""
        return SweepSummary.of(self.cells)


# ---------------------------------------------------------------------------
# decimal rendering (one correctly rounded division, deterministic)
# ---------------------------------------------------------------------------

# 30 digits, half away from zero; the exponent bounds, clamp and traps are
# named too, so neither the caller's context nor decimal.DefaultContext, which
# fills the fields a Context leaves unnamed, changes a rendered byte or raises
_CONTEXT = Context(prec=30, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN, clamp=0, traps=[])


def decimal_string(x: Fraction | int | Dyadic) -> str:
    """Decimal rendering of any rational, correctly rounded half away from
    zero to 30 significant digits, with the mantissa's trailing zeros stripped:
    positional for decimal exponents -4..15, scientific otherwise.  Correct
    rounding fixes every digit, so the text is the same on every platform."""
    q = _CONTEXT.divide(Decimal(x.numerator), Decimal(x.denominator)).normalize(_CONTEXT)
    e = q.adjusted()
    if -4 <= e < 16:
        return f"{q:f}"
    return f"{q.scaleb(-e, _CONTEXT):f}e{e:+03d}"


def _interval_strings(iv: Interval) -> tuple[str, str]:
    """Both ends rendered; ends that render alike share one string, so a
    report holds it once."""
    lo, hi = decimal_string(iv.lo), decimal_string(iv.hi)
    return (lo, lo) if lo == hi else (lo, hi)


@contextmanager
def _no_int_digit_limit():
    """Lift the int-to-str digit limit, where the interpreter has one, for
    the block: an exact value may run to any number of digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _exact_strings(fr: Fraction) -> tuple[str, str]:
    """The report's two renderings of an exact value: decimal, then p/q."""
    return decimal_string(fr), f"{fr.numerator}/{fr.denominator}"


# ---------------------------------------------------------------------------
# per-cell checks
# ---------------------------------------------------------------------------

class _Point:
    """One (ell, n) grid point.  Its concentration, the concentration's
    report strings, its full pmf, the report strings of the pmf's central
    value, the sharp bound and the variance are each computed at most once,
    on first use, and shared by every check of the point."""

    def __init__(self, ell: int, n: int):
        self.ell, self.n = ell, n
        self.params = LatticeParams(ell, n)

    @cached_property
    def conc(self) -> Fraction:
        return concentration(self.params)

    @cached_property
    def conc_strings(self) -> tuple[str, str]:
        return _exact_strings(self.conc)

    @cached_property
    def pmf(self) -> ExactDensity:
        return power(self.params)

    @cached_property
    def central_strings(self) -> tuple[str, str]:
        d = self.pmf
        return _exact_strings(Fraction(d.numerators[self.params.top // 2], d.denominator))

    @cached_property
    def main_bound(self) -> RootBound:
        return bounds.main_bound_expr(self.ell, self.n)

    @cached_property
    def variance(self) -> Fraction:
        return Fraction(self.n * (self.ell * self.ell - 1), 12)


def _cell(
    p: _Point,
    check: str,
    exact: tuple[str, str],
    verdict: str,
    bound: tuple[str, str] = ("", ""),
    margin: tuple[str, str] = ("", ""),
    expected: str = "holds",
) -> SweepCell:
    """The one report row; ``exact`` is the pair ``_exact_strings`` gives,
    and exact checks leave the bound and margin empty."""
    return SweepCell(p.ell, p.n, check, *exact, *bound, verdict, *margin, expected)


def _certified_cell(p: _Point, check: str, expr: RootBound, prec: int, expected: str) -> SweepCell:
    """c(ell, n) < expr, decided against the one enclosure of expr at ``prec``
    that the report also shows."""
    bound = evaluate(expr, prec)
    verdict = verdict_between(p.conc, bound, prec)
    return _cell(
        p, check, p.conc_strings, verdict.outcome.value,
        _interval_strings(bound), _interval_strings(verdict.margin), expected,
    )


def _cell_main(p: _Point, prec: int) -> SweepCell:
    expected = "reversed" if (p.n == 2 and p.ell >= 5) else "holds"
    return _certified_cell(p, "main", p.main_bound, prec, expected)


def _cell_corollary(p: _Point, prec: int) -> SweepCell:
    return _certified_cell(p, "corollary", bounds.corollary_bound_expr(p.ell, p.n), prec, "holds")


def _cell_wallis(p: _Point, prec: int) -> SweepCell:
    # only run on the two-point lattice (see _CHECK_TABLE), where the
    # concentration is a central binomial probability; k is matched so that
    # c_{2,n} = C(2k,k)/4**k
    return _certified_cell(p, "wallis", bounds.wallis_bound_expr((p.n + 1) // 2), prec, "holds")


def _cell_bessel_chain(p: _Point, prec: int) -> SweepCell:
    # pair < G(Var S_n) < 2 * main_bound, run on ell = 3 only (see
    # _CHECK_TABLE); twice the sharp bound is the root of 4x its radicand
    pair, main = pair_concentration(p.pmf), p.main_bound
    middle = bounds.bessel_G(p.variance, prec)
    outer = evaluate(RootBound(main.a, main.b, 4 * main.r, main.k), prec)
    left = verdict_between(pair, middle, prec).margin
    right = verdict_between(middle, outer, prec).margin
    # the chain's margin is the componentwise minimum of its links' margins:
    # its low end is positive exactly when both links hold, and its high end
    # negative exactly when one fails, so the one sign rule decides the chain
    chain = Verdict(Interval(min(left.lo, right.lo), min(left.hi, right.hi)))
    return _cell(
        p, "bessel_chain", _exact_strings(pair), chain.outcome.value,
        _interval_strings(outer), _interval_strings(chain.margin),
    )


def _cell_dsequence(p: _Point, prec: int) -> SweepCell:
    # the concentration rescaled by sqrt(pi*(ell**2-1)*n/6) stays below d_n;
    # stated equivalently as c < d_n * main_bound so the left side is rational;
    # d_n has r = 1 and k = 0, so the product takes main's radicand
    main, d = p.main_bound, bounds.d_sequence_expr(p.n)
    expr = RootBound(d.a, d.b, main.r, main.k)
    return _certified_cell(p, "dsequence", expr, prec, "holds")


def _cell_bretagnolle(p: _Point, prec: int) -> SweepCell:
    # c(2, n) is the largest binomial probability C(n, n // 2) / 2**n
    rhs = Fraction(2, p.ell) * Fraction(comb(p.n, p.n // 2), 2**p.n)
    margin = rhs - p.conc  # non-strict comparison: equality holds at ell = 2
    rhs_str, margin_str = decimal_string(rhs), decimal_string(margin)
    verdict = "Holds" if margin >= 0 else "Fails"
    return _cell(p, "bretagnolle", p.conc_strings, verdict, (rhs_str,) * 2, (margin_str,) * 2)


def _cell_argmax(p: _Point, prec: int) -> SweepCell:
    top = p.params.top
    central = {top // 2, (top + 1) // 2}
    peak = argmax_set(p.pmf)
    # for n = 1 the pmf is flat and every point is maximal; the central
    # points must still be among them
    ok = central <= peak if p.n == 1 else peak == central
    return _cell(p, "argmax", p.central_strings, "Holds" if ok else "Fails")


def _cell_moments(p: _Point, prec: int) -> SweepCell:
    mean, var = moments(p.pmf)
    ok = mean == Fraction(p.n * (p.ell - 1), 2) and var == p.variance
    return _cell(p, "moments", _exact_strings(mean), "Holds" if ok else "Fails")


def _cell_oracle_equiv(p: _Point, prec: int) -> SweepCell:
    params = p.params
    # By the definition: the numerators are the coefficients of
    # (1 + x + ... + x**(ell-1))**n, each at most ell**(n-1) < 2**(8*width),
    # so at x = 2**(8*width) the true product has no carries, packing a
    # vector with every entry in [0, 2**(8*width)) is injective, and the two
    # integers are equal exactly when every coefficient agrees.  An entry
    # outside that range (negative or too wide) cannot be packed: Fails.
    width = ((p.ell**p.n).bit_length() + 7) // 8
    try:
        packed = b"".join(v.to_bytes(width, "little") for v in p.pmf.numerators)
    except OverflowError:
        ok = False
    else:
        base = int.from_bytes((b"\x01" + bytes(width - 1)) * p.ell, "little")
        ok = int.from_bytes(packed, "little") == pow(base, p.n)
    ok = ok and de_moivre_pmf(params, -1) == 0 and de_moivre_pmf(params, params.top + 1) == 0
    return _cell(p, "oracle_equiv", p.central_strings, "Holds" if ok else "Fails")


# every check: its cell function and the one ell it is defined on, or None.
# A check defined on one lattice size keeps the grid semantics honest by
# skipping other rows instead of silently recomputing them.
_CHECK_TABLE = {
    "argmax": (_cell_argmax, None),
    "bessel_chain": (_cell_bessel_chain, 3),
    "bretagnolle": (_cell_bretagnolle, None),
    "corollary": (_cell_corollary, None),
    "dsequence": (_cell_dsequence, None),
    "main": (_cell_main, None),
    "moments": (_cell_moments, None),
    "oracle_equiv": (_cell_oracle_equiv, None),
    "wallis": (_cell_wallis, 2),
}

CHECKS = tuple(sorted(_CHECK_TABLE))


def _run_point(task: tuple[int, int, tuple[str, ...], int]) -> list[SweepCell]:
    ell, n, checks, prec = task
    point = _Point(ell, n)
    # lifted here, not by the caller, because a pool worker runs only this
    with _no_int_digit_limit():
        return [_CHECK_TABLE[check][0](point, prec) for check in checks]


def _tasks(config: SweepConfig) -> list[tuple[int, int, tuple[str, ...], int]]:
    """One task per (ell, n) point that has at least one applicable check."""
    out = []
    for ell in range(config.ell_range[0], config.ell_range[1] + 1):
        checks = tuple(c for c in sorted(config.checks) if _CHECK_TABLE[c][1] in (None, ell))
        if not checks:
            continue
        for n in range(config.n_range[0], config.n_range[1] + 1):
            out.append((ell, n, checks, config.precision_bits))
    return out


def _pool_size(requested: int, cpus: int | None, units: int) -> int:
    """Workers to start: never more than asked for, than cores, or than work
    units, and at least one."""
    return max(1, min(requested, cpus or 1, units))


def _usable_cpus() -> int | None:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the host's count, which may be None."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def run_sweep(config: SweepConfig) -> SweepReport:
    tasks = _tasks(config)
    workers = _pool_size(config.parallelism, _usable_cpus(), len(tasks))
    # tasks run in (ell, n) order and both maps return points in task order,
    # so each check's list fills in (ell, n) order, and joining the lists in
    # check order gives the report's (check, ell, n) order without a sort
    by_check = {check: [] for check in sorted(config.checks)}

    def collect(points) -> None:
        for point in points:
            for cell in point:
                by_check[cell.check].append(cell)

    if workers == 1:
        collect(map(_run_point, tasks))
    else:
        # imported here: the pool pulls in multiprocessing, which a serial
        # run never needs
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(_run_point, tasks, chunksize=chunk))
    return SweepReport(config, [cell for cells in by_check.values() for cell in cells])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_report_csv(report: SweepReport, out: TextIO) -> None:
    """Write the report as CSV to a text stream, one row at a time, as
    ``csv.writer`` writes it."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    text_columns = CSV_COLUMNS[2:]
    text_fields, separators = attrgetter(*text_columns), len(text_columns) - 1
    for c in report.cells:
        rest = text_fields(c)
        text = ",".join(rest)
        # csv quotes a field only for a comma, a quote or a line break in it
        # (for a lone CR, on some Python versions only); a row with none of
        # them is its fields joined, which skips csv's per-field scan
        if text.count(",") != separators or '"' in text or "\r" in text or "\n" in text:
            writer.writerow((c.ell, c.n, *rest))
        else:
            out.write(f"{c.ell},{c.n},{text}\n")


def write_report_json(report: SweepReport, out: TextIO) -> None:
    """Write the report to a text stream, one cell at a time, as the bytes of
    ``json.dumps(document, indent=2) + "\\n"``, where the document holds the
    config, every cell's fields in order and the summary."""
    # json escapes every newline inside a string, so each newline of the
    # config's own dump is a line break to indent one level further
    config = json.dumps(report.config.serializable(), indent=2).replace("\n", "\n  ")
    out.write(f'{{\n  "config": {config},\n  "cells": [')
    cell = _json_object(SweepCell, "    ")
    sep = "\n    "
    for c in report.cells:
        out.write(sep + cell(c))
        sep = ",\n    "
    close = "\n  ]" if report.cells else "]"
    summary = _json_object(SweepSummary, "  ")(report.summary)
    out.write(f'{close},\n  "summary": {summary}\n}}\n')


def _json_object(cls, indent: str):
    """The function that renders an instance of the dataclass ``cls``, whose
    fields are all str or int, as ``json.dumps(dataclasses.asdict(instance),
    indent=2)`` reads nested ``indent`` deep.  Fields are read by name, so no
    dict is built per instance, and a slotted class, which has no
    ``__dict__``, renders alike."""
    names = [f.name for f in fields(cls)]
    lines = ",".join(f"\n{indent}  {_json_str(name)}: {{}}" for name in names)
    template = f"{{{{{lines}\n{indent}}}}}"
    values = attrgetter(*names)
    # json writes a str by encode_basestring_ascii and an int by int.__repr__
    return lambda record: template.format(
        *[_json_str(v) if isinstance(v, str) else int.__repr__(v) for v in values(record)]
    )
