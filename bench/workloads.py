"""The benchmark's workloads: the `uniconc` command lines of one pass.

A workload is a fixed list of queries.  One pass runs every query once, in
order, through ``uniconc.cli.main``.  Only ``large_n`` depends on the seed:
it draws each query's n from a narrow fixed range, so that every seed costs
about the same.  This module uses the standard library only, because the
worker process imports it next to the program it measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("verify_certified", "report_all", "large_n")

VERIFY_CHECKS = ("main", "corollary", "dsequence", "wallis")
VERIFY_ELL = (2, 40)
VERIFY_N = (1, 100)

REPORT_CHECKS = (
    "argmax", "bessel_chain", "bretagnolle", "corollary", "dsequence",
    "main", "moments", "oracle_equiv", "wallis",
)
REPORT_ELL = (2, 10)
REPORT_N = (1, 60)

DEFAULT_SEED = 1

# large_n: for each query, the (ell, n) it draws from.  Each n range spans
# about 2% of its centre.
LARGE_N_RANGES = {
    "conc": (3, (1485, 1515)),
    "conc_pair": (3, (1485, 1515)),
    "pmf_support": (6, (495, 505)),
    "pmf_point": (4, (990, 1010)),
    "verify_cell": (10, (2970, 3030)),
    "bessel_chain": (3, (990, 1010)),
    "asymptotics_small": (2, (99, 101)),
    "asymptotics_large": (2, (990, 1010)),
}


@dataclass(frozen=True)
class Query:
    """One CLI invocation.  ``argv`` may name files as ``{out}/...``; the
    worker substitutes its output directory.  ``kind`` and ``params`` tell
    the output check what was asked."""

    name: str
    argv: tuple[str, ...]
    kind: str
    params: dict = field(default_factory=dict)


def _range(lo_hi: tuple[int, int]) -> str:
    return f"{lo_hi[0]}:{lo_hi[1]}"


def large_n_points(seed: int) -> dict[str, tuple[int, int]]:
    """(ell, n) of each large_n query for a seed."""
    rng = random.Random(seed)
    return {name: (ell, rng.randint(lo, hi)) for name, (ell, (lo, hi)) in LARGE_N_RANGES.items()}


def queries(workload: str, seed: int) -> list[Query]:
    if workload == "verify_certified":
        argv = (
            "verify", "--checks", ",".join(VERIFY_CHECKS),
            "--ell-range", _range(VERIFY_ELL), "--n-range", _range(VERIFY_N),
            "--out", "{out}/verify.csv",
        )
        params = {"checks": VERIFY_CHECKS, "ell_range": VERIFY_ELL, "n_range": VERIFY_N}
        return [Query("verify", argv, "verify_sweep", params)]
    if workload == "report_all":
        argv = (
            "report", "--ell-range", _range(REPORT_ELL), "--n-range", _range(REPORT_N),
            "--out", "{out}/report",
        )
        params = {"checks": REPORT_CHECKS, "ell_range": REPORT_ELL, "n_range": REPORT_N}
        return [Query("report", argv, "report_sweep", params)]
    if workload == "large_n":
        return large_n_queries(large_n_points(seed))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def large_n_queries(p: dict[str, tuple[int, int]]) -> list[Query]:
    out = []

    ell, n = p["conc"]
    out.append(Query("conc", ("conc", "--ell", str(ell), "--n", str(n)), "conc", {"ell": ell, "n": n}))

    ell, n = p["conc_pair"]
    out.append(Query(
        "conc_pair", ("conc", "--ell", str(ell), "--n", str(n), "--pair"),
        "conc_pair", {"ell": ell, "n": n},
    ))

    ell, n = p["pmf_support"]
    out.append(Query(
        "pmf_support", ("pmf", "--ell", str(ell), "--n", str(n)),
        "pmf_support", {"ell": ell, "n": n},
    ))

    ell, n = p["pmf_point"]
    k = n * (ell - 1) // 2
    out.append(Query(
        "pmf_point", ("pmf", "--ell", str(ell), "--n", str(n), "--k", str(k)),
        "pmf_point", {"ell": ell, "n": n, "k": k},
    ))

    ell, n = p["verify_cell"]
    out.append(Query(
        "verify_cell",
        ("verify", "--checks", "main,dsequence", "--ell-range", f"{ell}:{ell}",
         "--n-range", f"{n}:{n}", "--format", "json", "--out", "{out}/verify_cell.json"),
        "verify_cell", {"ell": ell, "n": n, "checks": ("dsequence", "main")},
    ))

    ell, n = p["bessel_chain"]
    out.append(Query(
        "bessel_chain",
        ("verify", "--checks", "bessel_chain", "--ell-range", f"{ell}:{ell}",
         "--n-range", f"{n}:{n}", "--format", "json", "--out", "{out}/bessel_chain.json"),
        "verify_cell", {"ell": ell, "n": n, "checks": ("bessel_chain",)},
    ))

    (ell, n_small), (_, n_large) = p["asymptotics_small"], p["asymptotics_large"]
    out.append(Query(
        "asymptotics",
        ("asymptotics", "--ell", str(ell), "--n-list", f"{n_small},{n_large}",
         "--format", "csv", "--out", "{out}/asymptotics.csv"),
        "asymptotics", {"ell": ell, "n_list": (n_small, n_large)},
    ))
    return out
