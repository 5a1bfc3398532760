"""Bit-identity digests of training: one sha256 per trajectory CSV and per
trained flat-parameter vector, plus one overall digest.

Runs every estimator at both critic forms on three configurations (d=5 with
batch 16 for 120 steps, d=20 with batch 128 for 6 steps, d=3 with batch 9
for 120 steps; 1 nat of true information, seed 0) and prints one line per
run. Two checkouts that print the same overall digest trained the same
trajectories and parameters bit for bit; the `overall separable` and
`overall joint` digests cover one critic form's lines each. Writes no files; BLAS is pinned
to one thread unless the environment already sets it.

    PYTHONPATH=src python scripts/digest.py
"""

from __future__ import annotations

import hashlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from mitk.estimators import (  # noqa: E402  (after the BLAS thread pin)
    EstimatorKind,
    TrainSettings,
    train_estimator,
    trajectory_csv_text,
)
from mitk.gaussian import task_for_target_mi  # noqa: E402

FORMS = ("separable", "joint")
# (dim, batch size, steps, eval_every)
CONFIGS = ((5, 16, 120, 20), (20, 128, 6, 3), (3, 9, 120, 20))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


if __name__ == "__main__":
    main()
