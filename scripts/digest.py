"""Bit-identity digests of training and of `mitk verify`: one sha256 per
trajectory CSV, per trained flat-parameter vector and per verify stdout, plus
overall digests.

Runs every estimator at both critic forms on three configurations (d=5 with
batch 16 for 120 steps, d=20 with batch 128 for 6 steps, d=3 with batch 9
for 120 steps; 1 nat of true information, seed 0) and prints one line per
run. Two checkouts that print the same overall digest trained the same
trajectories and parameters bit for bit; the `overall separable` and
`overall joint` digests cover one critic form's lines each. Then `mitk verify`
runs at --trials 0/20/100/1000 with --seed 0 and 7, and with --corrupt-oracle;
each run prints its exit code and stdout digest, and `overall verify` covers
those lines. Last, `overall checks` covers every check of `run_probe_suite` on
the same runs: theorem, name, worst as float hex, tolerance, passed and the
witness (its keys, and its arrays' dtypes, shapes and bytes). The last line
is `scripts/ab.py`'s `machine:` line, which names numpy's SIMD set and
OpenBLAS's kernel set: the digests hold for one machine, numpy build and CPU
dispatch. Writes no files; BLAS is pinned to one thread unless the
environment already sets it.

    PYTHONPATH=src python scripts/digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from ab import machine  # noqa: E402  (this script's directory)
from mitk.cli import main as mitk_main  # noqa: E402  (after the BLAS thread pin)
from mitk.estimators import (  # noqa: E402
    EstimatorKind,
    TrainSettings,
    train_estimator,
    trajectory_csv_text,
)
from mitk.gaussian import task_for_target_mi  # noqa: E402
from mitk.variational import run_probe_suite  # noqa: E402

FORMS = ("separable", "joint")
# (dim, batch size, steps, eval_every)
CONFIGS = ((5, 16, 120, 20), (20, 128, 6, 3), (3, 9, 120, 20))
# (trials, seed, corrupt)
VERIFY_RUNS = tuple((trials, seed, False) for trials in (0, 20, 100, 1000) for seed in (0, 7))
VERIFY_RUNS += ((20, 0, True),)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _feed(digest, value) -> None:
    """Feed a witness into `digest`: dict keys, array dtypes, shapes and bytes, floats as hex."""
    if isinstance(value, dict):
        for key, item in value.items():
            digest.update(key.encode())
            _feed(digest, item)
    elif isinstance(value, tuple):
        for item in value:
            _feed(digest, item)
    elif isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(value.tobytes())
    elif isinstance(value, float):
        digest.update(value.hex().encode())
    else:
        digest.update(repr(value).encode())  # None, an int, a function's name


def main() -> None:
    overall = hashlib.sha256()
    per_form = {form: hashlib.sha256() for form in FORMS}
    for dim, batch, steps, eval_every in CONFIGS:
        task = task_for_target_mi(dim, 1.0)
        for form in FORMS:
            settings = TrainSettings(steps=steps, batch_size=batch, seed=0,
                                     eval_every=eval_every, critic_form=form)
            for kind in EstimatorKind:
                trajectory, objective = train_estimator(kind, task, settings,
                                                        return_components=True)
                csv = _sha(trajectory_csv_text(trajectory).encode())
                params = "-" if objective.params is None else _sha(objective.params.tobytes())
                line = f"d={dim} n={batch} {form:9s} {kind.value:8s} csv={csv} params={params}"
                overall.update(line.encode())
                per_form[form].update(line.encode())
                print(line)
    print(f"overall {overall.hexdigest()}")
    for form, digest in per_form.items():
        print(f"overall {form} {digest.hexdigest()}")
    verify = hashlib.sha256()
    for trials, seed, corrupt in VERIFY_RUNS:
        args = ("--trials", str(trials), "--seed", str(seed)) + ("--corrupt-oracle",) * corrupt
        out = io.StringIO()  # the per-theorem seconds on stderr are dropped
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = mitk_main(["verify", *args])
        line = f"verify {' '.join(args)} exit={code} stdout={_sha(out.getvalue().encode())}"
        verify.update(line.encode())
        print(line)
    print(f"overall verify {verify.hexdigest()}")
    checks = hashlib.sha256()
    for run in VERIFY_RUNS:
        for report in run_probe_suite(*run):
            for check in report.checks:
                checks.update(f"{report.theorem} {check.name} {float(check.worst).hex()} "
                              f"{check.tolerance!r} {check.passed}".encode())
                _feed(checks, check.witness)
    print(f"overall checks {checks.hexdigest()}")
    print(machine())


if __name__ == "__main__":
    main()
