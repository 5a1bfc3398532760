"""The benchmark's own tests: failure accounting, trace hygiene, the layer split.

Run from the repository root with mitk on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import mitk.critic
import mitk.estimators
import mitk.gaussian
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
N = workloads.BATCH


def traced_figures(workload, name):
    tally = workloads.Tally()
    results = workloads.measure(workload, 0, tally, ops=1)
    figures, warnings = worker.trace_pass(name, workload, results, tally, workers=2)
    return {key: value for key, (value, _) in figures.items()}, warnings, tally


def calls(figures, layer):
    return sum(v for k, v in figures.items() if k.startswith(f"{layer}.") and k.endswith(".calls"))


class TestFailureAccounting:
    def test_clean_verify_passes_every_check(self):
        tally = workloads.Tally()
        workloads.measure(workloads.VerifyWorkload(trials=20), 0, tally, ops=2)
        assert tally.correct
        assert tally.failed == 0
        assert tally.attempted == 2 * 14 + 1  # 13 reports + exit code, one digest repeat

    def test_corrupt_probe_suite_raises_fail_frac(self):
        tally = workloads.Tally()
        workload = workloads.VerifyWorkload(trials=20, corrupt=True)
        workloads.measure(workload, 0, tally, ops=1)
        assert tally.fail_frac > 0
        assert "T02 passed" in tally.failures
        assert tally.correct  # mitk reported the failure in the expected form

    def test_diverging_training_raises_fail_frac(self):
        tally = workloads.Tally()
        workload = workloads.TrainWorkload("train-separable", 0, "separable", ("nwj",),
                                           steps=5, lr=1e6)
        workloads.measure(workload, 0, tally, ops=1)
        assert tally.fail_frac > 0
        assert "non-finite objective" in tally.failures[0]

    def test_changed_digest_is_a_failed_check(self):
        tally = workloads.Tally()
        tally.add(workloads.OpResult(wall=1.0, digests={"a.csv": "x"}))
        tally.add(workloads.OpResult(wall=1.0, digests={"a.csv": "y"}))
        assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)

    def test_sweep_checks_summary_and_trajectories(self, tmp_path):
        tally = workloads.Tally()
        workload = workloads.SweepWorkload(seed=0, work_dir=tmp_path, workers=2, steps=3)
        workloads.measure(workload, 0, tally, ops=1)
        assert tally.correct
        assert tally.failed == 0
        # exit code, CSV count, 14 finite CSVs, 7 rows present, 7 rows that agree
        assert tally.attempted == 1 + 1 + 14 + 1 + 7
        assert list(tmp_path.iterdir()) == []

    def test_summary_row_must_match_its_trajectories(self):
        # two seeds at 1.0 and 1.2 against 2 nats: mean 1.1, standard error 0.1
        finals, agrees = [1.0, 1.2], workloads.summary_row_agrees
        lower = ["dv", "2", "1.1", "-0.9", "0.141421356", "0"]
        assert agrees(lower, finals, 2.0)
        assert not agrees(lower[:5] + ["1"], finals, 2.0)
        assert not agrees(["dv", "2", "1.3"] + lower[3:], finals, 2.0)
        # an upper bound 0.9 below the truth is flagged, and must be
        upper = ["ba_upper", "2", "1.1", "-0.9", "0.141421356", "1"]
        assert agrees(upper, finals, 2.0)
        assert not agrees(upper[:5] + ["0"], finals, 2.0)
        assert not agrees(upper, finals[:1], 2.0)


class TestTraceHygiene:
    def test_every_binding_restored(self):
        before = {name: getattr(mitk.estimators, name)
                  for name in ("sample", "train_estimator", "cond_log_density")}
        with tracing.Tracer():
            assert mitk.estimators.sample.__wrapped__ is before["sample"]
            assert mitk.gaussian.sample is mitk.estimators.sample
        for name, value in before.items():
            assert getattr(mitk.estimators, name) is value
        assert mitk.estimators.sample is mitk.gaussian.sample

    def test_missing_name_is_a_warning(self, monkeypatch):
        monkeypatch.setattr(tracing, "TRACED",
                            tracing.TRACED + (("critic", "critic", "no_such_fn", ("verify",)),))
        with tracing.Tracer() as tracer:
            pass
        assert tracer.warnings == ["critic.no_such_fn: missing from mitk.critic"]

    def test_silent_expected_function_is_reported(self):
        assert "critic.mlp_forward" in tracing.silent_labels([], "train-joint")
        assert "critic.log_baseline" not in tracing.silent_labels([], "train-joint")

    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            (1, None, 0, 0, "cli.main", 0.0, 10.0, None),
            # two pool threads overlap between 3 and 4
            (2, 1, 1, 0, "estimators.train_estimator", 1.0, 4.0, None),
            (3, 1, 2, 0, "estimators.train_estimator", 3.0, 6.0, None),
            (4, 2, 1, 0, "critic.adam_step", 1.5, 2.0, None),
        ]
        own = tracing.self_times(spans)
        assert own == {1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5}

    def test_pool_threads_hang_under_the_sweep(self, tmp_path):
        workload = workloads.SweepWorkload(seed=0, work_dir=tmp_path, workers=2, steps=2)
        with tracing.Tracer() as tracer:
            workloads.measure(workload, 0, workloads.Tally(), ops=1, begin_op=tracer.begin_op)
        main_ids = {s[tracing.SID] for s in tracer.spans if s[tracing.LABEL] == "cli.main"}
        trains = [s for s in tracer.spans if s[tracing.LABEL] == "estimators.train_estimator"]
        assert len(trains) == 14
        assert all(s[tracing.PARENT] in main_ids for s in trains)
        assert all(s[tracing.TID] != threading.get_ident() for s in trains)
        assert {s[tracing.RUN] for s in tracer.spans} == {0}

    def test_per_layer_names_match_benchmark_json(self):
        figures, warnings, _ = traced_figures(workloads.VerifyWorkload(trials=20),
                                              "verify")
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert list(figures) == [m["name"] for m in spec["per_layer"]]
        assert warnings == []


class TestLayerSplit:
    def test_verify_bypasses_the_training_layers(self):
        figures, _, _ = traced_figures(workloads.VerifyWorkload(trials=20), "verify")
        for layer in ("critic", "gaussian", "estimators"):
            assert calls(figures, layer) == 0
        assert calls(figures, "discrete") > 0 and calls(figures, "variational") > 0

    def test_separable_nwj_pushes_2n_rows_per_step(self):
        workload = workloads.TrainWorkload("train-separable", 0, "separable", ("nwj",), steps=4)
        figures, _, tally = traced_figures(workload, "train-separable")
        assert tally.failed == 0
        assert calls(figures, "variational") == 0 and calls(figures, "discrete") == 0
        assert figures["critic.rows_per_step"] == 2 * N

    def test_joint_nwj_pushes_n_squared_rows_per_step(self):
        workload = workloads.TrainWorkload("train-joint", 0, "joint", ("nwj",), steps=2)
        figures, _, _ = traced_figures(workload, "train-joint")
        assert calls(figures, "variational") == 0
        assert figures["critic.rows_per_step"] == N * N


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
