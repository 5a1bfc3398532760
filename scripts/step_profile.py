"""Per-step cost of `train_estimator` at the benchmark configuration.

For each estimator and critic form this prints the wall time of one
training step, the minor page faults per step and the kernel's share of
the step's CPU time, all read with `time` and `resource` on this process
alone. Time and faults per step are the difference between two calls that
differ only in their step count, taken after a warm-up call, so
initialization and the single evaluation cancel out; each column is the
median over three such short/long pairs. Configuration: d=20,
2 nats, batch 128, 64-64 towers, embed 32; BLAS pinned to one thread
unless the environment already sets it.

    PYTHONPATH=src python scripts/step_profile.py

A step that allocates nothing of its own shows about one fault per step
or less; fresh n x n tables show up as tens to hundreds.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)

from mitk.estimators import TrainSettings, train_estimator  # noqa: E402
from mitk.gaussian import task_for_target_mi  # noqa: E402

ESTIMATORS = ("ba_lower", "dv", "tuba", "nwj", "infonce")
# measured steps per estimator; a joint-critic step costs about 25 separable ones,
# and with fewer joint steps noise can flip the sign of a difference of two calls
MEASURED_STEPS = {"separable": 200, "joint": 24}
PAIRS = 3


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), ru.ru_minflt, ru.ru_utime, ru.ru_stime


def _run(tag, task, form, steps, total):
    # evaluate only before training, so the two calls differ in steps alone
    settings = TrainSettings(steps=steps, batch_size=128, seed=0, eval_every=total + 1,
                             critic_form=form)
    before = _usage()
    train_estimator(tag, task, settings)
    return [b - a for a, b in zip(before, _usage())]


def profile(tag, task, form, base, extra):
    """(ms/step, minor faults/step, system share of CPU time) over `extra`
    steps, each the median over PAIRS short/long pairs.

    The system share is taken over the whole longer call: CPU times tick
    too coarsely for a difference of two calls.
    """
    total = base + extra
    _run(tag, task, form, base, total)  # warm-up
    rows = []
    for _ in range(PAIRS):
        short = _run(tag, task, form, base, total)
        long = _run(tag, task, form, total, total)
        wall, faults = (b - a for a, b in zip(short[:2], long[:2]))
        user, system = long[2:]
        rows.append((wall / extra * 1e3, faults / extra, system / (user + system)))
    return tuple(statistics.median(column) for column in zip(*rows))


def main() -> int:
    task = task_for_target_mi(20, 2.0)
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    print(f"# numpy {np.__version__}, OPENBLAS_NUM_THREADS={threads}, pid {os.getpid()}")
    print(f"{'estimator':<10} {'form':<10} {'ms/step':>9} {'faults/step':>12} {'sys_share':>10}")
    for form, extra in MEASURED_STEPS.items():
        for tag in ESTIMATORS:
            if tag == "ba_lower" and form != "separable":
                continue  # the decoder bound has no critic
            ms, faults, sys_share = profile(tag, task, form, max(2, extra // 4), extra)
            label = "-" if tag == "ba_lower" else form
            print(f"{tag:<10} {label:<10} {ms:>9.3f} {faults:>12.2f} {sys_share:>10.3f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
