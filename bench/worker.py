"""Runs one workload through ``uniconc.cli.main`` in this process, pass after
pass, and writes the timings to ``result.json`` in the output directory.

It prints ``ready`` as soon as ``uniconc.cli`` is imported, so the parent can
time set-up from process start.  With ``--probe`` it stops there.  Only the
program and the standard library are loaded before the passes, so the peak
resident memory is the program's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_PASSES = 3
EXIT_EXCEPTION = -1  # recorded for a query that raised instead of returning


def run_query(cli, query, out: Path) -> int:
    argv = [a.replace("{out}", str(out)) for a in query.argv]
    with open(out / f"{query.name}.stdout", "w", encoding="utf-8") as so, \
            open(out / f"{query.name}.stderr", "w", encoding="utf-8") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        try:
            return cli.main(argv)
        except Exception:  # a crash is a failed query, checked like any other
            traceback.print_exc()
            return EXIT_EXCEPTION


def digest(out: Path, exit_codes: list[int]) -> str:
    h = hashlib.sha256(json.dumps(exit_codes).encode())
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    import uniconc.cli as cli

    print("ready", flush=True)
    if args.probe:
        return 0

    from workloads import queries

    qs = queries(args.workload, args.seed)
    out = Path(args.out)
    passes_dir = out / "pass"
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    passes = []
    began = time.perf_counter()
    while True:
        shutil.rmtree(passes_dir, ignore_errors=True)
        passes_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.begin_pass()
        t0 = time.perf_counter()
        codes = [run_query(cli, q, passes_dir) for q in qs]
        seconds = time.perf_counter() - t0
        passes.append({"seconds": seconds, "exit_codes": codes, "digest": digest(passes_dir, codes)})
        elapsed = time.perf_counter() - began
        typical = statistics.median(p["seconds"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    result = {
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write(out / "spans.npz")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
