"""One workload process: set up a workload, then measure it untraced or traced.

Started by run.py with the BLAS thread variables already set to 1, so numpy
starts single-threaded. With --setup-only it stops once the workload is
built and reports when that was, which is how run.py times set-up. Prints
one JSON object on stdout.

    python3 perfbench/worker.py --workload verify --seed 0 --seconds 10 \
        --trace 0 --work-dir perfbench/.work --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def untraced_figures(workload: str, results) -> dict:
    """The workload's own end-to-end figures from an untraced pass."""
    import workloads

    walls = [r.wall for r in results]
    figures = {"op_s": (_median(walls), "s")}
    for tag in workloads.SEPARABLE_ESTIMATORS:
        per_call = [r.ms_per_step[tag] for r in results if tag in r.ms_per_step]
        figures[f"ms_per_step.{tag}"] = (_median(per_call), "ms")
    figures["verify_s"] = (_median(walls) if workload == "verify" else 0.0, "s")
    figures["sweep_s"] = (_median(walls) if workload == "sweep" else 0.0, "s")
    return figures


def trace_pass(name: str, workload, results, tally, workers: int) -> tuple:
    """Repeat `results`' operations traced: (per-layer figures, trace warnings)."""
    import tracing
    import workloads

    with tracing.Tracer() as tracer:
        traced = workloads.measure(workload, 0, tally, ops=len(results),
                                   begin_op=tracer.begin_op)
    untraced_wall = sum(r.wall for r in results)
    traced_wall = sum(r.wall for r in traced)
    figures = untraced_figures(name, results)
    figures.update(tracing.summarize(tracer.spans, traced_wall, workers))
    warnings = tracer.warnings + [
        f"{label}: never fired on {name}" for label in tracing.silent_labels(tracer.spans, name)
    ]
    figures["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "frac")
    figures["trace.warnings"] = (len(warnings), "count")
    return figures, warnings


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    unpinned = [var for var in THREAD_VARS if os.environ.get(var) != "1"]
    if unpinned:
        print(f"worker: {', '.join(unpinned)} must be 1 before numpy loads", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.make(args.workload, args.seed, args.work_dir, args.workers)
    ready = time.monotonic()
    reference = workloads.ReferenceLoop()
    # the machine's speed right after set-up, to scale the set-up time by
    out = {"ready": ready, "ref": reference()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import mitk

    tally = workloads.Tally()
    out.update(mitk=mitk.__file__, machine=machine())
    if not args.trace:
        results = workloads.measure(workload, args.seconds, tally, reference=reference)
        figures = untraced_figures(args.workload, results)
        figures["op_ref"] = (statistics.median(r.wall / r.ref for r in results), "ref")
        figures["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        # the same operations twice, untraced then traced, so the difference
        # in their wall time is the tracing overhead
        results = workloads.measure(workload, args.seconds / 2, tally)
        figures, out["trace_warnings"] = trace_pass(args.workload, workload, results,
                                                    tally, args.workers)
    out.update(
        ops=len(results),
        op_walls=[r.wall for r in results],
        op_refs=[r.ref for r in results],
        attempted=tally.attempted,
        failed=tally.failed,
        correct=tally.correct,
        fail_frac=tally.fail_frac,
        failures=tally.failures[:20],
        malformed=tally.malformed[:20],
        flagged=tally.flagged,
        digests=tally.digests,
        figures=figures,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
