"""Output checks of one pass, against the independent references.

An operation is a sweep cell on ``verify_certified`` and ``report_all`` and
a query on ``large_n``.  An operation fails when any of its outputs
disagrees with the reference or with a property the method must have:
a verdict, the region where the inequality is expected to hold, an exact
value, a bound interval or a margin interval.  A fault of an output as a
whole (an exit code or a summary that contradicts the cells, a missing or
malformed file) is not tied to one operation and makes the run incorrect.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import reference as ref
from workloads import Query

SIG_DIGITS = 30  # significant digits of every decimal in a report
FAILING_LABELS = ("reversed", "fails")  # `expected` labels of a cell where the inequality fails
BOUND_WIDTH = Decimal(2) ** -60  # widest bound interval accepted, relative to the bound
MARGIN_WIDTH = Decimal("1e-9")  # widest margin interval accepted, relative to the bound
FLOAT_TOL = 1e-9  # relative agreement of the float64 recurrence with an exact value
PRINTED_FLOAT_TOL = 1e-13  # relative agreement of a value printed with 15 digits

CSV_COLUMNS = (
    "ell", "n", "check", "exact", "bound_lo", "bound_hi",
    "verdict", "margin_lo", "margin_hi", "expected",
)
SUMMARY_KEYS = ("cells", "holds", "fails", "inconclusive", "mismatches")


@dataclass
class PassCheck:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # one line per failed operation
    output_faults: list[str] = field(default_factory=list)

    def operation(self, label: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(reasons)}")


# ---------------------------------------------------------------------------
# decimals
# ---------------------------------------------------------------------------

# Wide enough that every value compared here is exact or off by far less
# than a unit in its 30th digit: reference bounds have REF_DIGITS digits and
# the exact values of these grids have at most about 300.
CTX = decimal.Context(prec=450)
DECIMAL_RE = re.compile(r"-?\d+(\.\d+)?(e[+-]\d+)?")


def dec(v: Fraction) -> Decimal:
    return CTX.divide(Decimal(v.numerator), Decimal(v.denominator))


def parse_decimal(text: str) -> Decimal | None:
    return Decimal(text) if DECIMAL_RE.fullmatch(text) else None


def half_ulp(v: Decimal) -> Decimal:
    """Half a unit in the last of SIG_DIGITS significant digits of v != 0."""
    return Decimal(5).scaleb(v.adjusted() - SIG_DIGITS, CTX)


def significant_digits(text: str) -> int:
    return len(text.lstrip("-").split("e")[0].replace(".", "").lstrip("0"))


def rendering_problem(text: str, v: Decimal) -> str | None:
    """None when ``text`` is ``v`` rounded to SIG_DIGITS significant digits."""
    x = parse_decimal(text)
    if x is None:
        return f"{text!r} is not a decimal"
    if v == 0:
        return None if text == "0" else f"{text} should be 0"
    if significant_digits(text) > SIG_DIGITS or CTX.abs(CTX.subtract(x, v)) > half_ulp(v):
        return f"{text} is not {v:.35g} to {SIG_DIGITS} digits"
    return None


def enclosure_problem(lo_text: str, hi_text: str, v: Decimal, width: Decimal) -> str | None:
    """None when [lo, hi], read back from SIG_DIGITS-digit decimals, contains
    v and is at most ``width`` wide; each endpoint may be off by the half
    unit its rendering rounded away."""
    lo, hi = parse_decimal(lo_text), parse_decimal(hi_text)
    if lo is None or hi is None:
        return f"[{lo_text!r}, {hi_text!r}] is not an interval of decimals"
    tol = max((half_ulp(x) for x in (v, lo, hi) if x != 0), default=Decimal(0))
    if lo > hi:
        return f"[{lo_text}, {hi_text}] has its endpoints out of order"
    if lo > CTX.add(v, tol) or hi < CTX.subtract(v, tol):
        return f"[{lo_text}, {hi_text}] misses the reference {v:.35g}"
    if CTX.subtract(hi, lo) > CTX.add(width, CTX.multiply(2, tol)):
        return f"[{lo_text}, {hi_text}] is wider than {width:.3g}"
    return None


def parse_fraction(text: str) -> Fraction | None:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def fraction_text(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# sweep cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellRef:
    """What one report row must say.  ``bound`` and ``margin`` are None for
    the checks that compare exact objects only; ``exact_bound`` marks a
    rational bound that is rendered once, not enclosed."""

    exact: Fraction
    verdict: str
    region_holds: bool
    bound: Decimal | None = None
    margin: Decimal | None = None
    exact_bound: bool = False
    margin_width: Decimal = Decimal(0)


def bretagnolle_exception(ell: int, n: int) -> bool:
    """The proven set E where c(ell,n) <= (2/ell) c(2,n) fails:
    c(ell,3) = (3ell^2+1)/(4ell^3) > 3/(4ell) for odd ell >= 3, and
    c(3,5) = 17/81 > 5/24."""
    return (n == 3 and ell % 2 == 1 and ell >= 3) or (ell, n) == (3, 5)


def main_region_holds(ell: int, n: int) -> bool:
    """The sharp bound is reversed exactly at n = 2, ell >= 5."""
    return not (n == 2 and ell >= 5)


def certified_ref(exact: Fraction, bound: Decimal, region_holds: bool = True) -> CellRef:
    margin = CTX.subtract(bound, dec(exact))
    return CellRef(
        exact, "Holds" if margin > 0 else "Fails", region_holds,
        bound, margin, margin_width=CTX.multiply(MARGIN_WIDTH, bound),
    )


def bessel_ref(n: int, pair: Fraction, bounds: ref.Bounds) -> CellRef:
    """pair(3,n) < G(2n/3) < sqrt(3/(pi n)); the margin is the smaller side's."""
    middle = bounds.bessel_G(Fraction(2 * n, 3))
    outer = bounds.bessel_outer(n)
    left, right = CTX.subtract(middle, dec(pair)), CTX.subtract(outer, middle)
    verdict = "Holds" if left > 0 and right > 0 else "Fails"
    return CellRef(
        pair, verdict, True, outer, min(left, right),
        margin_width=CTX.multiply(MARGIN_WIDTH, outer),
    )


@dataclass(frozen=True)
class RowFacts:
    central: Fraction
    argmax_ok: bool
    moments_ok: bool


def row_facts(ell: int, n: int, row) -> RowFacts:
    """The central value of a pmf row, whether its maxima sit exactly at the
    central points (n = 1: among them, the law is flat), and whether its
    mean and variance are n(ell-1)/2 and n(ell^2-1)/12."""
    nums = row.tolist()
    top = len(nums) - 1
    best = max(nums)
    peak = {k for k, v in enumerate(nums) if v == best}
    middle = {top // 2, (top + 1) // 2}
    s0 = sum(nums)
    s1 = sum(k * v for k, v in enumerate(nums))
    s2 = sum(k * k * v for k, v in enumerate(nums))
    moments_ok = (
        s0 == ell**n
        and 2 * s1 == n * (ell - 1) * s0
        and 12 * (s2 * s0 - s1 * s1) == n * (ell * ell - 1) * s0 * s0
    )
    return RowFacts(
        Fraction(nums[top // 2], ell**n),
        middle <= peak if n == 1 else peak == middle,
        moments_ok,
    )


def sweep_references(checks, ell_range, n_range) -> dict[tuple[str, int, int], CellRef]:
    """Reference of every cell of a sweep, in report order (check, ell, n)."""
    ells = range(ell_range[0], ell_range[1] + 1)
    ns = range(n_range[0], n_range[1] + 1)
    need_facts = bool({"argmax", "moments"} & set(checks))
    facts: dict[tuple[int, int], RowFacts] = {}
    for ell in ells:
        for n, row in ref.uniform_rows(ell, ns[-1]):
            if n in ns:
                facts[(ell, n)] = (
                    row_facts(ell, n, row) if need_facts
                    else RowFacts(Fraction(ref.central(row), ell**n), True, True)
                )
    bounds = ref.Bounds()
    refs = {}
    for check in sorted(checks):
        for ell in ells:
            if (check == "wallis" and ell != 2) or (check == "bessel_chain" and ell != 3):
                continue
            for n in ns:
                refs[(check, ell, n)] = _cell_ref(check, ell, n, facts[(ell, n)], bounds)
    return refs


def _cell_ref(check: str, ell: int, n: int, f: RowFacts, bounds: ref.Bounds) -> CellRef:
    c = f.central
    if check == "main":
        return certified_ref(c, bounds.main(ell, n), main_region_holds(ell, n))
    if check == "corollary":
        return certified_ref(c, bounds.corollary(ell, n))
    if check == "dsequence":
        return certified_ref(c, bounds.dsequence(ell, n))
    if check == "wallis":
        return certified_ref(ref.binomial_concentration(n), bounds.wallis((n + 1) // 2))
    if check == "bessel_chain":
        return bessel_ref(n, ref.pair3(n), bounds)
    if check == "bretagnolle":
        rhs = Fraction(2, ell) * ref.binomial_concentration(n)
        margin = rhs - c
        return CellRef(
            c, "Holds" if margin >= 0 else "Fails", not bretagnolle_exception(ell, n),
            dec(rhs), dec(margin), exact_bound=True,
        )
    if check == "argmax":
        return CellRef(c, "Holds" if f.argmax_ok else "Fails", True)
    if check == "moments":
        return CellRef(Fraction(n * (ell - 1), 2), "Holds" if f.moments_ok else "Fails", True)
    if check == "oracle_equiv":
        # de Moivre's alternating sum is an identity for the pmf
        return CellRef(c, "Holds", True)
    raise ValueError(f"no reference for check {check!r}")


def cell_problems(row: dict, r: CellRef, exact_fraction: str | None) -> list[str]:
    reasons = []
    if row["verdict"] != r.verdict:
        reasons.append(f"verdict {row['verdict']}, reference {r.verdict}")
    label_ok = row["expected"] == "holds" if r.region_holds else row["expected"] in FAILING_LABELS
    if not label_ok:
        region = "holds" if r.region_holds else "fails"
        reasons.append(f"expected={row['expected']} but the inequality {region} here")
    if (p := rendering_problem(row["exact"], dec(r.exact))) is not None:
        reasons.append(f"exact {p}")
    if exact_fraction is not None and exact_fraction != fraction_text(r.exact):
        reasons.append(f"exact_fraction {exact_fraction} is not {fraction_text(r.exact)}")
    if r.bound is None:
        filled = [col for col in ("bound_lo", "bound_hi", "margin_lo", "margin_hi") if row[col]]
        if filled:
            reasons.append(f"{', '.join(filled)} should be empty")
    elif r.exact_bound:
        for col, v in (("bound_lo", r.bound), ("bound_hi", r.bound),
                       ("margin_lo", r.margin), ("margin_hi", r.margin)):
            if (p := rendering_problem(row[col], v)) is not None:
                reasons.append(f"{col} {p}")
    else:
        bound_width = CTX.multiply(BOUND_WIDTH, r.bound)
        if (p := enclosure_problem(row["bound_lo"], row["bound_hi"], r.bound, bound_width)):
            reasons.append(f"bound {p}")
        if (p := enclosure_problem(row["margin_lo"], row["margin_hi"], r.margin, r.margin_width)):
            reasons.append(f"margin {p}")
    return reasons


def program_mismatch(row: dict) -> bool:
    """A decided verdict that contradicts the row's own `expected` label."""
    return row["verdict"] != "Inconclusive" and (row["expected"] == "holds") != (row["verdict"] == "Holds")


def summary_counts(rows: list[dict]) -> dict[str, int]:
    return {
        "cells": len(rows),
        "holds": sum(r["verdict"] == "Holds" for r in rows),
        "fails": sum(r["verdict"] == "Fails" for r in rows),
        "inconclusive": sum(r["verdict"] == "Inconclusive" for r in rows),
        "mismatches": sum(program_mismatch(r) for r in rows),
    }


def parse_summary_line(line: str) -> dict[str, int] | None:
    m = re.fullmatch(r"cells=(\d+) holds=(\d+) fails=(\d+) inconclusive=(\d+) mismatches=(\d+)", line.strip())
    return dict(zip(SUMMARY_KEYS, map(int, m.groups()))) if m else None


def read_csv_rows(data: str, faults: list[str]) -> list[dict]:
    reader = csv.reader(io.StringIO(data))
    header = next(reader, None)
    if tuple(header or ()) != CSV_COLUMNS:
        faults.append(f"CSV header is {header}, not {list(CSV_COLUMNS)}")
        return []
    rows = []
    for fields in reader:
        if len(fields) != len(CSV_COLUMNS):
            faults.append(f"CSV row {fields} has {len(fields)} fields")
            continue
        rows.append(dict(zip(CSV_COLUMNS, fields)))
    return rows


def row_key(row: dict) -> tuple[str, int, int] | None:
    try:
        return (row["check"], int(row["ell"]), int(row["n"]))
    except (KeyError, ValueError):
        return None


def check_cells(rows, refs, fractions, result: PassCheck) -> None:
    """Match rows to references one to one, in report order, and check
    every cell.  ``fractions`` maps a cell to its exact_fraction, or is None
    when the output has no such column."""
    by_key = {}
    order = []
    for row in rows:
        key = row_key(row)
        if key not in refs or key in by_key:
            result.output_faults.append(f"unexpected or repeated row {row}")
            continue
        by_key[key] = row
        order.append(key)
    if order != sorted(order):
        result.output_faults.append("rows are not in (check, ell, n) order")
    for key, r in refs.items():
        row = by_key.get(key)
        if row is None:
            reasons = ["missing from the report"]
        else:
            exact_fraction = None
            if fractions is not None:
                exact_fraction = fractions.get(key, "missing")
            reasons = cell_problems(row, r, exact_fraction)
        result.operation(f"{key[0]} ({key[1]},{key[2]})", reasons)


def check_exit(rc: int, summary: dict[str, int], label: str, result: PassCheck) -> None:
    clean = summary["mismatches"] == 0 and summary["inconclusive"] == 0
    if rc != (0 if clean else 1):
        result.output_faults.append(f"{label} exit code {rc} with summary {summary}")


# ---------------------------------------------------------------------------
# one pass of a workload
# ---------------------------------------------------------------------------

def read_text(path: Path, faults: list[str]) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        faults.append(f"cannot read {path.name}: {exc}")
        return ""


def check_pass(queries: list[Query], exit_codes: list[int], out: Path) -> PassCheck:
    result = PassCheck()
    for q, rc in zip(queries, exit_codes):
        CHECKERS[q.kind](q, rc, out, result)
    return result


def check_verify_sweep(q: Query, rc: int, out: Path, result: PassCheck) -> None:
    faults = result.output_faults
    rows = read_csv_rows(read_text(out / "verify.csv", faults), faults)
    refs = sweep_references(q.params["checks"], q.params["ell_range"], q.params["n_range"])
    check_cells(rows, refs, None, result)
    counts = summary_counts(rows)
    if read_text(out / f"{q.name}.stdout", faults):
        faults.append("verify --out FILE wrote to stdout")
    if parse_summary_line(read_text(out / f"{q.name}.stderr", faults)) != counts:
        faults.append(f"verify summary on stderr does not match the cells {counts}")
    check_exit(rc, counts, "verify", result)


def check_report_sweep(q: Query, rc: int, out: Path, result: PassCheck) -> None:
    faults = result.output_faults
    rows = read_csv_rows(read_text(out / "report.csv", faults), faults)
    try:
        doc = json.loads(read_text(out / "report.json", faults) or "null")
    except json.JSONDecodeError as exc:
        faults.append(f"report.json is not JSON: {exc}")
        doc = None
    doc = doc if isinstance(doc, dict) else {}
    cells = doc.get("cells") or []
    if [{c: str(cell.get(c, "")) for c in CSV_COLUMNS} for cell in cells] != rows:
        faults.append("report.json cells differ from report.csv")
    fractions = {row_key(cell): cell.get("exact_fraction") for cell in cells}
    refs = sweep_references(q.params["checks"], q.params["ell_range"], q.params["n_range"])
    check_cells(rows, refs, fractions, result)

    counts = summary_counts(rows)
    config = {
        "ell_range": list(q.params["ell_range"]), "n_range": list(q.params["n_range"]),
        "checks": sorted(q.params["checks"]), "precision_bits": 256, "output_format": "csv",
    }
    if doc.get("config") != config:
        faults.append(f"report.json config {doc.get('config')} is not {config}")
    if doc.get("summary") != counts:
        faults.append(f"report.json summary {doc.get('summary')} does not match the cells {counts}")
    lines = read_text(out / f"{q.name}.stdout", faults).splitlines()
    per_check = []
    for check in sorted(q.params["checks"]):
        mine = [r for r in rows if r["check"] == check]
        bad = sum(program_mismatch(r) or r["verdict"] == "Inconclusive" for r in mine)
        per_check.append(f"{check} cells={len(mine)} {'ok' if bad == 0 else f'{bad} unexpected'}")
    want = per_check + [
        " ".join(f"{k}={counts[k]}" for k in SUMMARY_KEYS),
        f"wrote {out / 'report.csv'} and {out / 'report.json'}",
    ]
    if [" ".join(line.split()) for line in lines] != want:
        faults.append("report console lines do not match the cells")
    if read_text(out / f"{q.name}.stderr", faults):
        faults.append("report wrote to stderr")
    check_exit(rc, counts, "report", result)


# ---------------------------------------------------------------------------
# large_n queries
# ---------------------------------------------------------------------------

def _query_output(q: Query, rc: int, out: Path, reasons: list[str], stderr_ok: bool = False) -> str:
    if rc != 0:
        reasons.append(f"exit code {rc}")
    faults: list[str] = []
    text = read_text(out / f"{q.name}.stdout", faults)
    err = read_text(out / f"{q.name}.stderr", faults)
    reasons.extend(faults)
    if err and not stderr_ok:
        reasons.append(f"stderr: {err.strip()[:200]}")
    return text


def conc_problems(text: str, want: Fraction) -> list[str]:
    """`conc` prints 'a/b = decimal' with a/b reduced."""
    parts = text.rstrip("\n").split(" = ")
    if len(parts) != 2 or "\n" in text.rstrip("\n"):
        return [f"unexpected output {text[:80]!r}"]
    reasons = []
    if parts[0] != fraction_text(want):
        reasons.append(f"fraction {parts[0][:40]}... is not the reference")
    if (p := rendering_problem(parts[1], dec(want))) is not None:
        reasons.append(f"decimal {p}")
    return reasons


def check_conc(q: Query, rc: int, out: Path, result: PassCheck) -> None:
    if q.params["ell"] != 3:
        raise ValueError("the concentration reference covers ell = 3 only")
    reasons: list[str] = []
    text = _query_output(q, rc, out, reasons)
    reasons += conc_problems(text, ref.trinomial_concentration(q.params["n"]))
    result.operation(q.name, reasons)


def check_conc_pair(q: Query, rc: int, out: Path, result: PassCheck) -> None:
    if q.params["ell"] != 3:
        raise ValueError("the pair reference covers ell = 3 only")
    reasons: list[str] = []
    text = _query_output(q, rc, out, reasons)
    reasons += conc_problems(text, ref.pair3(q.params["n"]))
    result.operation(q.name, reasons)


def pmf_support_problems(text: str, ell: int, n: int, want) -> list[str]:
    """`pmf` over the whole support prints 'k num/ell**n' per point.  The
    numerators must equal the reference row, and, apart from it, sum to
    ell**n, be symmetric and unimodal, and have mean n(ell-1)/2 and
    variance n(ell^2-1)/12."""
    den = ell**n
    lines = text.splitlines()
    top = n * (ell - 1)
    if len(lines) != top + 1:
        return [f"{len(lines)} lines for a support of {top + 1} points"]
    nums = []
    for k, line in enumerate(lines):
        point, _, value = line.partition(" ")
        num, _, d = value.partition("/")
        if point != str(k) or d != str(den) or not num.isdigit():
            return [f"line {k} is {line[:60]!r}"]
        nums.append(int(num))
    reasons = []
    if nums != want:
        wrong = sum(a != b for a, b in zip(nums, want))
        reasons.append(f"{wrong} numerators differ from the recurrence")
    if sum(nums) != den:
        reasons.append("numerators do not sum to ell**n")
    if nums != nums[::-1]:
        reasons.append("pmf is not symmetric")
    if any(a > b for a, b in zip(nums[: top // 2], nums[1 : top // 2 + 1])):
        reasons.append("pmf is not unimodal")
    s1 = sum(k * v for k, v in enumerate(nums))
    s2 = sum(k * k * v for k, v in enumerate(nums))
    if 2 * s1 != n * (ell - 1) * den:
        reasons.append("mean is not n(ell-1)/2")
    if 12 * (s2 * den - s1 * s1) != n * (ell * ell - 1) * den * den:
        reasons.append("variance is not n(ell^2-1)/12")
    return reasons


def check_pmf_support(q: Query, rc: int, out: Path, result: PassCheck) -> None:
    ell, n = q.params["ell"], q.params["n"]
    reasons: list[str] = []
    text = _query_output(q, rc, out, reasons)
    *_, (_, row) = ref.uniform_rows(ell, n)
    reasons += pmf_support_problems(text, ell, n, row.tolist())
    result.operation(q.name, reasons)


def pmf_point_problems(text: str, ell: int, n: int, num: int) -> list[str]:
    """`pmf --k` prints 'num/ell**n', followed by ' = a/b' when the
    fraction reduces."""
    den = ell**n
    first, sep, reduced = text.rstrip("\n").partition(" = ")
    value = Fraction(num, den)
    if first != f"{num}/{den}":
        return [f"{first[:40]}... is not the reference numerator over ell**n"]
    if (sep and reduced != fraction_text(value)) or (not sep and value.denominator != den):
        return [f"reduced form {reduced[:40]!r} is wrong"]
    return []


def check_pmf_point(q: Query, rc: int, out: Path, result: PassCheck) -> None:
    ell, n, k = q.params["ell"], q.params["n"], q.params["k"]
    if ell != 4:
        raise ValueError("the point reference covers ell = 4 only")
    reasons: list[str] = []
    text = _query_output(q, rc, out, reasons)
    reasons += pmf_point_problems(text, ell, n, ref.quaternary(n, k))
    result.operation(q.name, reasons)


def verified_concentration(text: str, ell: int, n: int) -> tuple[Fraction | None, list[str]]:
    """Accept a program's exact c(ell,n) 'a/b' when its numerator over
    ell**n agrees with the recurrence modulo every reference prime and its
    value with the float64 recurrence."""
    value = parse_fraction(text)
    den = ell**n
    if value is None or den % value.denominator:
        return None, [f"exact_fraction {text[:40]!r} is not a fraction over ell**n"]
    num = value.numerator * (den // value.denominator)
    residues, approx = ref.recurrence_residues(ell, n, n * (ell - 1) // 2)
    if tuple(num % p for p in ref.PRIMES) != residues:
        return None, ["exact_fraction disagrees with the recurrence modulo a prime"]
    if abs(float(value) - approx) > FLOAT_TOL * approx:
        return None, ["exact_fraction disagrees with the float64 recurrence"]
    return value, []


def check_verify_cell(q: Query, rc: int, out: Path, result: PassCheck) -> None:
    ell, n = q.params["ell"], q.params["n"]
    reasons: list[str] = []
    stdout = _query_output(q, rc, out, reasons, stderr_ok=True)
    if stdout:
        reasons.append("verify --out FILE wrote to stdout")
    faults: list[str] = []
    try:
        doc = json.loads(read_text(out / f"{q.name}.json", faults) or "null")
    except json.JSONDecodeError:
        doc = None
    reasons += faults
    cells = doc.get("cells") if isinstance(doc, dict) else None
    if not isinstance(cells, list) or len(cells) != len(q.params["checks"]):
        result.operation(q.name, reasons + ["report has no cells or the wrong number"])
        return
    bounds = ref.Bounds()
    for check, cell in zip(q.params["checks"], cells):
        if row_key(cell) != (check, ell, n):
            reasons.append(f"cell {row_key(cell)} where {(check, ell, n)} was asked")
            continue
        if check == "bessel_chain":
            r = bessel_ref(n, ref.pair3(n), bounds)
        else:
            exact, why = verified_concentration(str(cell.get("exact_fraction")), ell, n)
            if exact is None:
                reasons += [f"{check}: {w}" for w in why]
                continue
            bound = bounds.main(ell, n) if check == "main" else bounds.dsequence(ell, n)
            r = certified_ref(exact, bound, main_region_holds(ell, n) if check == "main" else True)
        row = {c: str(cell.get(c, "")) for c in CSV_COLUMNS}
        reasons += [f"{check}: {w}" for w in cell_problems(row, r, cell.get("exact_fraction"))]
    rows = [{c: str(cell.get(c, "")) for c in CSV_COLUMNS} for cell in cells]
    counts = summary_counts(rows)
    if doc.get("summary") != counts:
        reasons.append(f"summary {doc.get('summary')} does not match the cells")
    if parse_summary_line(read_text(out / f"{q.name}.stderr", reasons)) != counts:
        reasons.append("summary on stderr does not match the cells")
    result.operation(q.name, reasons)


def asymptotics_problems(text: str, ell: int, n_list, bounds: ref.Bounds) -> list[str]:
    """CSV rows 'n,concentration,ratio,sup_deviation'.  For ell = 2 the
    concentration is C(n, n//2)/2**n, the ratio lies in (0, 1) and rises
    with n, and both floats agree with mpmath to about 15 digits."""
    lines = text.splitlines()
    if lines[:1] != ["n,concentration,ratio,sup_deviation"] or len(lines) != len(n_list) + 1:
        return [f"unexpected table {text[:80]!r}"]
    reasons = []
    ratios = []
    for n, line in zip(n_list, lines[1:]):
        fields = line.split(",")
        if len(fields) != 4 or fields[0] != str(n):
            reasons.append(f"row {line[:60]!r} for n = {n}")
            continue
        c = ref.binomial_concentration(n)
        if (p := rendering_problem(fields[1], dec(c))) is not None:
            reasons.append(f"n={n} concentration {p}")
        try:
            ratio, dev = float(fields[2]), float(fields[3])
        except ValueError:
            reasons.append(f"n={n} ratio or deviation is not a number")
            continue
        ratios.append(ratio)
        want_ratio = bounds.clt_ratio(ell, n, c)
        want_dev = bounds.binomial_sup_deviation(n)
        if abs(ratio - want_ratio) > PRINTED_FLOAT_TOL * want_ratio:
            reasons.append(f"n={n} ratio {ratio!r}, reference {want_ratio!r}")
        if abs(dev - want_dev) > PRINTED_FLOAT_TOL * want_dev:
            reasons.append(f"n={n} sup deviation {dev!r}, reference {want_dev!r}")
    if not all(0 < r < 1 for r in ratios) or ratios != sorted(ratios):
        reasons.append(f"ratios {ratios} do not rise inside (0, 1)")
    return reasons


def check_asymptotics(q: Query, rc: int, out: Path, result: PassCheck) -> None:
    ell, n_list = q.params["ell"], q.params["n_list"]
    if ell != 2:
        raise ValueError("the asymptotics reference covers ell = 2 only")
    reasons: list[str] = []
    if _query_output(q, rc, out, reasons):
        reasons.append("asymptotics --out FILE wrote to stdout")
    text = read_text(out / "asymptotics.csv", reasons)
    reasons += asymptotics_problems(text, ell, n_list, ref.Bounds())
    result.operation(q.name, reasons)


CHECKERS = {
    "verify_sweep": check_verify_sweep,
    "report_sweep": check_report_sweep,
    "conc": check_conc,
    "conc_pair": check_conc_pair,
    "pmf_support": check_pmf_support,
    "pmf_point": check_pmf_point,
    "verify_cell": check_verify_cell,
    "asymptotics": check_asymptotics,
}
