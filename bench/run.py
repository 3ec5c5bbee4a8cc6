"""Benchmark of the uniconc CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  It times set-up in fresh
processes, runs the workload in a worker process for about S seconds of
whole passes, checks the last pass's outputs against references computed
apart from the program (every pass must produce the same bytes), and prints
one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s, setup_s and peak_rss_mb; with
--trace 1 they are the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5  # fresh processes timed to `ready`, besides the worker
WORKER_GRACE_S = 90  # allowed beyond --seconds for the last pass and exit
PROBE_TIMEOUT_S = 30


class BenchError(Exception):
    pass


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def start_until_ready(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a process and return it with the seconds until it printed `ready`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"{' '.join(cmd[1:3])} did not start (exit code {proc.returncode})")
    return proc, seconds


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def setup_probe() -> float:
    proc, seconds = start_until_ready([sys.executable, str(BENCH / "worker.py"), "--probe"])
    finish(proc, PROBE_TIMEOUT_S)
    return seconds


def run_worker(args, out: Path) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    (out / "result.json").unlink(missing_ok=True)
    proc, setup = start_until_ready(cmd)
    finish(proc, args.seconds + WORKER_GRACE_S)
    return json.loads((out / "result.json").read_text(encoding="utf-8")), setup


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import DEFAULT_SEED, WORKLOADS, queries

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uniconc" / "cli.py").is_file():
        print(f"error: no uniconc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    try:
        setups = [] if args.trace else [setup_probe() for _ in range(SETUP_PROBES)]
        result, setup = run_worker(args, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    import checks

    passes = result["passes"]
    qs = queries(args.workload, args.seed)
    check = checks.check_pass(qs, passes[-1]["exit_codes"], out / "pass")
    faults = list(check.output_faults)
    if len({p["digest"] for p in passes}) != 1:
        faults.append("passes produced different outputs")
    for line in (faults + check.problems)[:40]:
        print(f"check: {line}", file=sys.stderr)
    seconds = [p["seconds"] for p in passes]
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, "
        f"pass seconds {' '.join(f'{s:.3f}' for s in seconds)}, "
        f"setup seconds {' '.join(f'{s:.3f}' for s in setups)}",
        file=sys.stderr,
    )

    if args.trace:
        import spans

        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, unit in spans.LAYER_METRICS
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median(seconds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": not faults,
        "attempted": check.attempted * len(passes),
        "failed": check.failed * len(passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
