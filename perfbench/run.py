"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train-separable --seed 0 --seconds 25 --trace 0

Run from the repository root. The workload runs in a worker process started
with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 and
mitk imported from ./src. Set-up is timed from process start to the first
timed call, over several fresh processes, scaled by the reference loop's
time in each, and reported as the median.

With --trace 0 the result carries the end-to-end metrics, measured without
tracing; with --trace 1 it carries the per-layer metrics of a traced pass
(see tracing.py) plus the workload's own figures from an untraced pass over
the same operations. Human-readable lines and a `record:` line (machine,
failures, determinism digests) come first; the last line of stdout is the
JSON result. Exits 2 when the checkout holds no mitk source, 1 when the
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-separable", "train-joint", "verify", "sweep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # the measuring worker plus four set-up-only processes
# setup_s is given in seconds on a machine where workloads.ReferenceLoop takes
# this long (its median on the 2-vCPU host the benchmark was tuned on), so
# that drifts in the host's speed cancel as they do in op_ref
REFERENCE_S = 0.08
DEADLINE_S = 170.0  # every run must end within 180 s
END_TO_END = ("op_ref", "setup_s", "peak_rss_mb", "success_frac")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, extra, timeout: float) -> tuple:
    """(wall seconds from process start to set-up done, the worker's JSON result)."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(HERE / ".work"), "--workers", str(workers()),
    ] + extra
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def workers() -> int:
    """The sweep's pool size: 2, or fewer on a machine with fewer cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def src_line_counts() -> dict:
    return {
        path.stem: len(path.read_text().splitlines())
        for path in sorted((ROOT / "src" / "mitk").glob("*.py"))
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mitk benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mitk" / "__init__.py").is_file():
        print(f"error: no mitk source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    begin = time.monotonic()
    try:
        setups = []  # (wall seconds, reference-loop seconds right after)
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup, probe = run_worker(args, ["--setup-only"], timeout=60)
                setups.append((setup, probe["ref"]))
        remaining = DEADLINE_S - (time.monotonic() - begin)
        setup, result = run_worker(args, [], timeout=remaining)
        setups.append((setup, result["ref"]))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if Path(result["mitk"]).resolve().parent != (ROOT / "src" / "mitk").resolve():
        print(f"error: worker imported mitk from {result['mitk']}", file=sys.stderr)
        return 1

    figures = result["figures"]
    if not args.trace:
        figures["setup_s"] = (
            statistics.median(wall / ref * REFERENCE_S for wall, ref in setups), "s")
        figures["success_frac"] = (1.0 - result["fail_frac"], "frac")
        figures["fail_frac"] = (result["fail_frac"], "frac")
    reported = figures if args.trace else END_TO_END
    for name, (value, unit) in figures.items():
        if value or name in END_TO_END:
            print(f"{name:50s} {value:14.6g} {unit}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "op_walls_s": result["op_walls"],
        "op_refs_s": result["op_refs"],
        "setup_samples_s": [wall for wall, _ in setups],
        "setup_refs_s": [ref for _, ref in setups],
        "failures": result["failures"],
        "malformed": result["malformed"],
        "violation_flags": result["flagged"],
        "trace_warnings": result.get("trace_warnings", []),
        "digests": result["digests"],
        "machine": dict(
            result["machine"],
            nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
            python=sys.version.split()[0],
            threads={var: worker_env()[var] for var in THREAD_VARS},
            sweep_workers=workers(),
            git_commit=git_commit(),
            src_lines=src_line_counts(),
        ),
    }
    for tag, count in sorted(result["flagged"].items()):
        print(f"summary.csv flagged a violation on {tag} in {count} operations")
    for warning in record["trace_warnings"]:
        print(f"trace warning: {warning}", file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in figures.items()
        if name in reported
    }
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
