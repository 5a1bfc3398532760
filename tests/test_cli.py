"""Command-line interface: subcommands, config precedence, reproducible artifacts."""

import contextlib
import hashlib
import io
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mitk.cli
import mitk.estimators
import mitk.variational
from mitk.cli import build_parser, main
from mitk.discrete import JointPmf2, format_joint_table

TILTED = JointPmf2(("r0", "r1"), ("c0", "c1"), [[0.4, 0.1], [0.1, 0.4]])

FAST = [
    "--steps", "40",
    "--batch-size", "16",
    "--eval-every", "20",
    "--set", "critic.widths=8",
    "--set", "critic.embed=4",
]


def run_capped(args):
    """`python -m mitk.cli *args` in a child with 768 MiB of address space, so
    a command that asks for more fails there rather than filling this process."""
    src = Path(mitk.__file__).resolve().parents[1]
    limit = 768 << 20
    return subprocess.run(
        [sys.executable, "-m", "mitk.cli", *args], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


GOLDEN_VERIFY_100_SEED0 = """\
T01 entropy-chain-rule         trials=100    worst_slack=+4.441e-16  pass
T02 mi-formula-agreement       trials=100    worst_slack=+0.000e+00  pass
T03 mi-chain-rule              trials=100    worst_slack=+8.327e-16  pass
T04 kl-convexity               trials=310    worst_slack=+0.000e+00  pass
T05 entropy-concavity          trials=310    worst_slack=+0.000e+00  pass
T06 mi-concavity-convexity     trials=310    worst_slack=+0.000e+00  pass
T07 jensen-inequality          trials=100    worst_slack=+0.000e+00  pass
T08 divergence-nonnegativity   trials=100    worst_slack=+0.000e+00  pass
T09 data-processing            trials=1100   worst_slack=+6.661e-16  pass
T10 golden-identity            trials=100    worst_slack=+1.110e-16  pass
T11 distance-to-product        trials=10     worst_slack=+0.000e+00  pass
T12 donsker-varadhan           trials=1010   worst_slack=+2.034e-10  pass
T13 gelfand-yaglom-perez       trials=5      worst_slack=+0.000e+00  pass
"""


# sha256 of `mitk verify` stdout and its exit code, for each argument list
GOLDEN_VERIFY_DIGESTS = {
    ("--trials", "20", "--seed", "0"):
        ("7f2375c669e853345e2b1b89df04539b879caf775591b9b20ebc66ff6c737e54", 0),
    ("--trials", "20", "--seed", "7"):
        ("b530b94e42e8278125a7dcd5cb5a4440a6f5391da4064e5038d9ab270a731ed1", 0),
    ("--trials", "20", "--seed", "0", "--corrupt-oracle"):
        ("c47e920757e862235285c6f4038d19fbdbc8da480d255e866ff12c247dbe1a3d", 1),
}


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--trials", "40", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.strip().splitlines() if l.startswith("T")]
        assert len(lines) == 13
        assert all(line.endswith("pass") for line in lines)
        # each theorem's wall seconds go to stderr, never into the report lines
        timings = captured.err.splitlines()
        assert [t.split()[0] for t in timings] == [f"T{i:02d}" for i in range(1, 14)]
        assert all(re.fullmatch(r"T\d\d seconds=\d+\.\d{3}", t) for t in timings)

    def test_report_lines_are_golden(self, capsys):
        assert main(["verify", "--trials", "100", "--seed", "0"]) == 0
        assert capsys.readouterr().out == GOLDEN_VERIFY_100_SEED0

    @pytest.mark.parametrize("args", GOLDEN_VERIFY_DIGESTS)
    def test_report_digest_is_golden(self, capsys, args):
        code = main(["verify", *args])
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (digest, code) == GOLDEN_VERIFY_DIGESTS[args]

    def test_negative_trials_is_bad_input(self, capsys):
        assert main(["verify", "--trials", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "trials" in captured.err

    def test_negative_seed_is_bad_input(self, capsys):
        assert main(["verify", "--trials", "5", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_corrupt_oracle_fails(self, capsys):
        assert main(["verify", "--trials", "20", "--corrupt-oracle"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_violated_property_is_a_fail_line_not_an_exception(self, capsys, monkeypatch):
        concave = (("negated-square", lambda t: -t * t),)
        monkeypatch.setattr(mitk.variational, "_CONVEX_FAMILY", concave)
        assert main(["verify", "--trials", "10"]) == 1
        captured = capsys.readouterr()
        (line,) = [l for l in captured.out.splitlines() if l.startswith("T07")]
        assert line.endswith("FAIL")
        assert "check gap-margin" in captured.err
        # every other theorem still reports
        assert sum(l.endswith("pass") for l in captured.out.splitlines()) == 12

    def test_nan_margin_is_a_fail_line(self, capsys, monkeypatch):
        # NaN compares false with any tolerance; it must fail, not pass as 0
        undefined = (("nan", lambda t: math.nan),)
        monkeypatch.setattr(mitk.variational, "_CONVEX_FAMILY", undefined)
        assert main(["verify", "--trials", "10"]) == 1
        captured = capsys.readouterr()
        (line,) = [l for l in captured.out.splitlines() if l.startswith("T07")]
        assert line.endswith("worst_slack=+nan  FAIL")
        assert "check gap-margin: worst=nan" in captured.err
        assert sum(l.endswith("pass") for l in captured.out.splitlines()) == 12

    def test_zero_trials_vacuous_with_warning(self, capsys):
        assert main(["verify", "--trials", "0"]) == 0
        captured = capsys.readouterr()
        assert "vacuous" in captured.err


class TestTrain:
    def test_writes_trajectory_csv(self, tmp_path, capsys):
        code = main(
            ["train", "--estimator", "nwj", "--dim", "2", "--target-mi", "1",
             "--seed", "0", "--out", str(tmp_path)] + FAST
        )
        assert code == 0
        path = tmp_path / "nwj_2_1_0.csv"
        assert path.exists()
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,estimate,smoothed,true_mi,estimator,seed"
        assert len(lines) == 1 + 3  # evals at steps 0, 20, 40
        assert (tmp_path / "config_resolved.txt").exists()

    def test_zero_steps_single_row(self, tmp_path, capsys):
        code = main(
            ["train", "--estimator", "ba_upper", "--dim", "1", "--rho", "0.5",
             "--steps", "0", "--batch-size", "16", "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        csvs = list(tmp_path.glob("ba_upper_*.csv"))
        assert len(csvs) == 1
        assert len(csvs[0].read_text().strip().splitlines()) == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["train", "--estimator", "infonce", "--dim", "2", "--target-mi", "1",
                "--seed", "3"] + FAST
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "infonce_2_1_3.csv").read_bytes()
        b = (tmp_path / "b" / "infonce_2_1_3.csv").read_bytes()
        assert a == b

    def test_needs_task_specification(self, tmp_path, capsys):
        code = main(["train", "--estimator", "nwj", "--dim", "2",
                     "--out", str(tmp_path)] + FAST)
        assert code == 2
        assert capsys.readouterr().err == "error: a task needs --rho or --target-mi\n"

    @pytest.mark.parametrize("estimator, bad", [
        ("nwj", "critic.form=bogus"), ("ba_lower", "critic.form=bogus"),
        ("ba_lower", "critic.widths=0"), ("ba_upper", "critic.embed=0"),
        ("ba_upper", "critic.form=bogus"), ("l1out", "critic.widths=0"),
        ("l1out", "critic.form=bogus"), ("nwj", "dim=0"), ("nwj", "dim=-1"),
        ("ba_upper", "dim=0"), ("nwj", "seed=-1"), ("ba_upper", "seed=-1")])
    def test_bad_settings_are_an_input_error_before_writing(self, tmp_path, capsys,
                                                           monkeypatch, estimator, bad):
        def never(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(mitk.cli, "train_estimator", never)
        code = main(["train", "--estimator", estimator, "--dim", "2", "--target-mi", "1",
                     "--out", str(tmp_path)] + FAST + ["--set", bad])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["train", "--estimator", "nwj"],
                                         ["bench", "--estimators", "nwj"]])
    @pytest.mark.parametrize("target", ["19", "inf", "nan"])
    def test_unreachable_target_names_target_and_dim(self, tmp_path, capsys, command, target):
        # at dim 1 these targets put rho at 1.0 or NaN; the error names what was given
        code = main(command + ["--dim", "1", "--target-mi", target,
                               "--out", str(tmp_path)] + FAST)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: target information must be >= 0 and at most about 18.7 nats per "
            f"dimension, got {float(target)!r} at dim 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_rho_and_target_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--estimator", "nwj", "--rho", "0.5", "--target-mi", "1"])

    def test_diverged_run_nonzero_exit(self, tmp_path, capsys):
        code = main(
            ["train", "--estimator", "nwj", "--dim", "2", "--rho", "0.9",
             "--seed", "0", "--out", str(tmp_path), "--steps", "200",
             "--batch-size", "16", "--set", "critic.widths=8",
             "--set", "critic.embed=4", "--set", "adam.lr=50.0"]
        )
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_held_out_estimate_is_a_divergence(self, tmp_path, capsys,
                                                          monkeypatch):
        real = mitk.estimators._CriticBound.value
        calls = []

        def overflowing(self, batch):
            # the held-out evaluations run at steps 0, 20 and 40; the one at 40 overflows
            calls.append(1)
            return -math.inf if len(calls) == 3 else real(self, batch)

        monkeypatch.setattr(mitk.estimators._CriticBound, "value", overflowing)
        code = main(["train", "--estimator", "nwj", "--dim", "2", "--target-mi", "1",
                     "--seed", "0", "--out", str(tmp_path)] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite held-out estimate -inf at step 40" in err
        assert not list(tmp_path.glob("nwj_*.csv"))

    def test_diverged_decoder_prints_only_its_error_line(self, tmp_path, capsys):
        # the decoder's log-variance overflows e^(-log var) at step 1; the
        # overflow is a non-finite estimate, not a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", "--estimator", "ba_lower", "--rho", "0.5", "--dim", "2",
                         "--steps", "2", "--batch-size", "4", "--eval-every", "1",
                         "--set", "critic.widths=4", "--set", "adam.lr=1e3",
                         "--out", str(tmp_path)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: non-finite held-out estimate -inf at step 1; ")

    def test_memory_error_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(mitk.cli, "train_estimator", exhausted)
        code = main(["train", "--estimator", "nwj", "--dim", "2", "--target-mi", "1",
                     "--out", str(tmp_path)] + FAST)
        assert code == 2
        assert capsys.readouterr().err == "error: Unable to allocate 1.00 TiB\n"

    @pytest.mark.parametrize("form", ["joint", "separable"])
    def test_linear_critic_writes_trajectory_csv(self, tmp_path, capsys, form):
        # no widths: a linear joint critic, or a bilinear separable one
        code = main(["train", "--estimator", "tuba", "--dim", "2", "--target-mi", "1",
                     "--seed", "0", "--out", str(tmp_path)] + FAST
                    + ["--set", "critic.widths=", "--set", f"critic.form={form}"])
        assert code == 0
        path = tmp_path / "tuba_2_1_0.csv"
        assert capsys.readouterr().out == f"{path}\n"
        lines = path.read_text().splitlines()
        assert lines[0] == "step,estimate,smoothed,true_mi,estimator,seed"
        assert len(lines) == 1 + 3  # evals at steps 0, 20, 40
        assert "critic.widths=\n" in (tmp_path / "config_resolved.txt").read_text()

    def test_blas_thread_count_does_not_change_artifacts(self, tmp_path):
        src = Path(mitk.__file__).resolve().parents[1]
        args = [sys.executable, "-m", "mitk.cli", "train", "--estimator", "nwj", "--dim", "8",
                "--target-mi", "1", "--seed", "0", "--steps", "20", "--batch-size", "64",
                "--eval-every", "10", "--set", "critic.form=joint", "--out", "out"]
        outputs = []
        for threads in ("1", "2"):
            run_dir = tmp_path / threads
            run_dir.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
            subprocess.run(args, cwd=run_dir, env=env, check=True, capture_output=True)
            outputs.append({p.name: p.read_bytes() for p in (run_dir / "out").iterdir()})
        assert sorted(outputs[0]) == ["config_resolved.txt", "nwj_8_1_0.csv"]
        assert outputs[0] == outputs[1]


class TestBench:
    def test_sweep_writes_runs_and_summary(self, tmp_path, capsys):
        code = main(
            ["bench", "--estimators", "nwj,ba_upper", "--seeds", "2", "--seed", "0",
             "--dim", "2", "--target-mi", "1", "--workers", "2",
             "--out", str(tmp_path)] + FAST
        )
        assert code == 0
        csvs = sorted(p.name for p in tmp_path.glob("*_2_1_*.csv"))
        assert csvs == ["ba_upper_2_1_0.csv", "ba_upper_2_1_1.csv",
                        "nwj_2_1_0.csv", "nwj_2_1_1.csv"]
        summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "estimator,true_mi,mean_estimate,bias,std,violation"
        assert len(summary) == 3
        table = capsys.readouterr().out
        assert "estimator" in table and "ba_upper" in table and "nwj" in table

    def test_single_run_degenerates(self, tmp_path, capsys):
        code = main(
            ["bench", "--estimators", "l1out", "--seeds", "1", "--seed", "5",
             "--dim", "1", "--rho", "0.5", "--steps", "0", "--batch-size", "32",
             "--out", str(tmp_path)]
        )
        assert code == 0
        summary = (tmp_path / "summary.csv").read_text()
        assert "l1out" in summary

    def test_byte_identical_reruns(self, tmp_path, capsys):
        # identical flags (including --out) must reproduce identical artifacts
        out_dir = tmp_path / "a"
        args = ["bench", "--estimators", "dv", "--seeds", "2", "--seed", "0",
                "--dim", "2", "--target-mi", "1", "--workers", "2",
                "--out", str(out_dir)] + FAST
        names = ("dv_2_1_0.csv", "dv_2_1_1.csv", "summary.csv", "config_resolved.txt")
        assert main(args) == 0
        first = {name: (out_dir / name).read_bytes() for name in names}
        assert main(args) == 0
        for name in names:
            assert (out_dir / name).read_bytes() == first[name]

    def test_failing_run_is_reported_and_the_rest_summarized(self, tmp_path, capsys,
                                                             monkeypatch):
        real = mitk.cli.train_estimator

        def flaky(tag, task, settings):
            if (tag, settings.seed) == ("nwj", 1):
                raise ValueError("boom")
            return real(tag, task, settings)

        args = ["bench", "--estimators", "nwj,ba_upper", "--seeds", "2", "--seed", "0",
                "--dim", "2", "--target-mi", "1", "--workers", "2"] + FAST
        assert main(args + ["--out", str(tmp_path / "clean")]) == 0
        clean = capsys.readouterr()
        monkeypatch.setattr(mitk.cli, "train_estimator", flaky)
        assert main(args + ["--out", str(tmp_path / "flaky")]) == 1
        captured = capsys.readouterr()
        assert "run failed: nwj seed=1: ValueError: boom" in captured.err
        assert "summary: nwj covers 1 of 2 seeds" in captured.err.splitlines()
        assert "summary: ba_upper" not in captured.err
        assert not (tmp_path / "flaky" / "nwj_2_1_1.csv").exists()
        summary = (tmp_path / "flaky" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["ba_upper", "nwj"]
        # one seed left gives no standard error, so the nwj row carries no verdict
        assert summary[2].split(",")[4:] == ["nan", ""]
        nwj_line = next(line for line in captured.out.splitlines() if line.startswith("nwj "))
        assert nwj_line.split()[-1] == "-"
        # the runs that finished are summarized exactly as in a clean sweep
        clean_rows = (tmp_path / "clean" / "summary.csv").read_text().splitlines()
        assert summary[1] == clean_rows[1]
        assert "run failed" not in clean.err and "summary:" not in clean.err

    def test_estimator_with_no_finished_run_has_no_row(self, tmp_path, capsys,
                                                        monkeypatch):
        real = mitk.cli.train_estimator

        def flaky(tag, task, settings):
            if tag == "nwj":
                raise ValueError("boom")
            return real(tag, task, settings)

        monkeypatch.setattr(mitk.cli, "train_estimator", flaky)
        with warnings.catch_warnings():
            # the mean of no runs would warn "Mean of empty slice"
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["bench", "--estimators", "nwj,ba_upper", "--seeds", "2",
                         "--seed", "0", "--dim", "2", "--target-mi", "1",
                         "--out", str(tmp_path)] + FAST)
        assert code == 1
        captured = capsys.readouterr()
        assert "summary: nwj covers 0 of 2 seeds" in captured.err.splitlines()
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["ba_upper"]
        assert not any(line.startswith("nwj") for line in captured.out.splitlines())

    def test_diverged_runs_are_reported_and_the_rest_summarized(self, tmp_path, capsys):
        # at this learning rate both nwj runs diverge, at steps 1 and 2
        code = main(["bench", "--estimators", "nwj,ba_upper", "--seeds", "2", "--rho", "0.9",
                     "--dim", "2", "--steps", "200", "--batch-size", "16",
                     "--eval-every", "50", "--set", "adam.lr=50", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(
            "run failed: nwj seed=0: non-finite objective -inf at step 1; config=")
        assert err[1].startswith("run failed: nwj seed=1: non-finite objective")
        assert "TrainingDiverged" not in "\n".join(err)
        assert err[2:] == ["summary: nwj covers 0 of 2 seeds"]
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["ba_upper"]

    def test_summary_of_finals_past_the_square_overflow(self):
        # the falsifying finals of a ba_upper run at adam.lr=1: deviations near
        # 1e210 overflow a plain square, but mean and std are finite
        finals = [-68.3126257, -5.42440033e87, -1.25456420e210]
        runs = [mitk.estimators.EstimateTrajectory("ba_upper", [(0, v, v)], 0.0, seed, {})
                for seed, v in enumerate(finals)]
        row = mitk.cli._summarize("ba_upper", mitk.cli.GaussianTask(2, 0.0), runs)
        assert row.mean_estimate == pytest.approx(statistics.fmean(finals), rel=1e-15)
        assert row.std == pytest.approx(statistics.stdev(finals), rel=1e-15)
        assert row.violation is False
        # a std past the largest float is inf, the mean still exact
        runs = [mitk.estimators.EstimateTrajectory("ba_upper", [(0, v, v)], 0.0, seed, {})
                for seed, v in enumerate([1.7e308, -1.7e308])]
        row = mitk.cli._summarize("ba_upper", mitk.cli.GaussianTask(2, 0.0), runs)
        assert (row.mean_estimate, row.std) == (0.0, math.inf)

    def test_worker_count_does_not_change_artifacts(self, tmp_path, capsys):
        args = ["bench", "--estimators", "dv,tuba,nwj,infonce,ba_lower,ba_upper,l1out",
                "--seeds", "2", "--seed", "0", "--dim", "2", "--target-mi", "1"] + FAST
        outputs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / workers
            assert main(args + ["--workers", workers, "--out", str(out_dir)]) == 0
            # config_resolved.txt echoes the worker count and the directory, so it differs
            outputs.append({p.name: p.read_bytes() for p in out_dir.glob("*.csv")})
        assert len(outputs[0]) == 7 * 2 + 1 and "summary.csv" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_unknown_estimator_rejected(self, tmp_path, capsys):
        code = main(["bench", "--estimators", "mine", "--dim", "2", "--target-mi", "1",
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("bad", [["--batch-size", "1"], ["--eval-every", "0"],
                                     ["--set", "critic.form=dense"],
                                     ["--set", "critic.embed=0"], ["--seeds", "0"],
                                     ["--workers", "0"], ["--workers", "-2"],
                                     ["--set", "workers=0"],
                                     ["--set", "adam.lr=-0.001"], ["--set", "adam.lr=0"],
                                     ["--set", "adam.lr=inf"], ["--set", "adam.lr=nan"],
                                     ["--set", "adam.beta1=1"], ["--set", "adam.beta2=-0.1"],
                                     ["--set", "adam.eps=0"], ["--set", "adam.eps=inf"],
                                     ["--set", "smoothing=1.5"], ["--set", "smoothing=-0.1"],
                                     ["--set", "critic.widths=0"],
                                     ["--set", "critic.widths=8,-1"],
                                     ["--estimators", "ba_upper,l1out", "--set",
                                      "critic.widths=0"],
                                     ["--estimators", "ba_upper,l1out", "--set",
                                      "critic.form=bogus"],
                                     ["--estimators", "ba_upper,l1out", "--set",
                                      "critic.embed=0"],
                                     ["--estimators", "ba_lower", "--set",
                                      "critic.form=bogus"],
                                     ["--dim", "0"], ["--dim", "-1"], ["--seed", "-1"],
                                     ["--set", "seed=-1"],
                                     ["--estimators", "ba_upper,ba_upper"]])
    def test_bad_settings_are_an_input_error_before_any_run(self, tmp_path, capsys,
                                                            monkeypatch, bad):
        def never(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(mitk.cli, "train_estimator", never)
        code = main(["bench", "--estimators", "nwj,ba_upper", "--seeds", "2",
                     "--dim", "2", "--target-mi", "1", "--out", str(tmp_path)] + bad)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run failed" not in err
        assert list(tmp_path.iterdir()) == []


# runs `mitk.cli.main` on its arguments, saying `ready` once mitk is imported
INTERRUPTIBLE = ("import sys, mitk.cli; print('ready', flush=True); "
                 "sys.exit(mitk.cli.main(sys.argv[1:]))")
INTERRUPT_BOUND_S = 5.0  # SIGINT to exit: the rest of one trial or step, with room


class TestInterrupt:
    """Ctrl-C ends a long command with one `interrupted` line and exit 130."""

    @staticmethod
    def interrupt(args, cwd, started):
        """Start `args` in a child, send SIGINT once `started()` holds, and
        return (exit code, stderr, seconds from the signal to the exit)."""
        src = Path(mitk.__file__).resolve().parents[1]
        # SIGINT reset to its default in the child, so Python raises
        # KeyboardInterrupt even when this process ignores the signal
        child = subprocess.Popen(
            [sys.executable, "-c", INTERRUPTIBLE, *args], cwd=cwd, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            assert child.stdout.readline() == "ready\n"
            deadline = time.monotonic() + 60.0
            while not started():
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.5)  # well into the work
            assert child.poll() is None, "the command ended before the signal"
            child.send_signal(signal.SIGINT)
            sent = time.monotonic()
            _, err = child.communicate(timeout=60.0)
            return child.returncode, err, time.monotonic() - sent
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()

    def test_verify_exits_130_without_a_traceback(self, tmp_path):
        code, err, seconds = self.interrupt(["verify", "--trials", "10000000"], tmp_path,
                                            lambda: True)
        assert (code, err) == (130, "interrupted\n")
        assert seconds < INTERRUPT_BOUND_S

    def test_train_exits_130_without_a_traceback(self, tmp_path):
        args = ["train", "--estimator", "nwj", "--dim", "2", "--target-mi", "1",
                "--out", "out"] + FAST + ["--steps", "1000000"]
        code, err, seconds = self.interrupt(
            args, tmp_path, (tmp_path / "out" / "config_resolved.txt").exists)
        assert (code, err) == (130, "interrupted\n")
        assert seconds < INTERRUPT_BOUND_S
        # interrupted mid-training: no trajectory was written
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["config_resolved.txt"]


# one wide layer per network on a small batch
WIDE =["--batch-size", "2000", "--set", "critic.widths=100000", "--set", "critic.embed=1"]


class TestBadInputWritesNothing:
    """Input that no run can take exits 2 with one error line, before any file
    is written or any run starts."""

    @staticmethod
    def never(*args):
        raise AssertionError("a run started")

    @staticmethod
    def assert_clean_input_error(code, err, out_dir, *fragments):
        assert code == 2
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        for fragment in fragments:
            assert fragment in lines[0]
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command, message", [
        (["train", "--estimator", "nwj", "--seed", str(2**64)],
         f"seed must be < 2**64, got {2**64}"),
        (["bench", "--estimators", "nwj", "--seed", str(2**64 - 1), "--seeds", "2"],
         f"seed + seeds - 1 must be < 2**64, got {2**64}"),
        (["bench", "--estimators", "nwj", "--seed", str(2**64), "--seeds", "1"],
         f"seed must be < 2**64, got {2**64}")])
    def test_seed_past_the_philox_key(self, tmp_path, capsys, monkeypatch, command, message):
        monkeypatch.setattr(mitk.cli, "train_estimator", self.never)
        code = main(command + ["--rho", "0.5", "--dim", "2", "--steps", "1",
                               "--batch-size", "4", "--out", str(tmp_path)])
        self.assert_clean_input_error(code, capsys.readouterr().err, tmp_path, message)

    @pytest.mark.parametrize("command", [["train", "--estimator", "nwj"],
                                         ["bench", "--estimators", "ba_upper,nwj"]])
    def test_batch_too_large_to_allocate(self, tmp_path, capsys, monkeypatch, command):
        # a 2e6 x 2e6 float64 workspace is 29.1 TiB, which malloc refuses at once
        monkeypatch.setattr(mitk.cli, "train_estimator", self.never)
        code = main(command + ["--rho", "0.5", "--dim", "2", "--steps", "0",
                               "--batch-size", "2000000", "--out", str(tmp_path)])
        self.assert_clean_input_error(code, capsys.readouterr().err, tmp_path,
                                      "batch_size 2000000 needs a 32000000000000-byte")

    @pytest.mark.parametrize("command, sizes, message", [
        (["train", "--estimator", "l1out"], ["--batch-size", "2000000"],
         "batch_size 2000000 needs a 64000000000000-byte n x n density table and workspace "
         "of shape (2, 2000000, 2000000)"),
        (["bench", "--estimators", "ba_upper,l1out"], ["--batch-size", "2000000"],
         "batch_size 2000000 needs a 64000000000000-byte n x n density table and workspace "
         "of shape (2, 2000000, 2000000)"),
        (["train", "--estimator", "nwj", "--set", "critic.form=joint"],
         ["--batch-size", "20000"], "batch_size 20000 needs a 204800000000-byte critic array"),
        (["bench", "--estimators", "nwj", "--set", "critic.form=joint"],
         ["--batch-size", "20000"], "batch_size 20000 needs a 204800000000-byte critic array"),
        # the first array an objective reserves is the batch's xs, n x dim words
        (["train", "--estimator", "ba_upper"], ["--batch-size", "4", "--dim", str(10**20)],
         f"batch_size 4 needs a {32 * 10**20}-byte sample array of shape (4, {10**20})"),
        (["train", "--estimator", "ba_lower"], ["--batch-size", str(10**20)],
         f"batch_size {10**20} needs a {16 * 10**20}-byte sample array")],
        ids=["l1out-train", "l1out-bench", "joint-train", "joint-bench", "dim", "batch"])
    def test_every_batch_sized_array_is_reserved(self, tmp_path, capsys, monkeypatch,
                                                 command, sizes, message):
        # each array is far past what malloc grants (the joint critic's first
        # layer is 191 GiB), so it is refused at once and nothing is paged in
        monkeypatch.setattr(mitk.cli, "train_estimator", self.never)
        code = main(command + ["--rho", "0.5", "--dim", "2", "--steps", "1",
                               "--out", str(tmp_path)] + sizes)
        self.assert_clean_input_error(code, capsys.readouterr().err, tmp_path, message)

    @pytest.mark.parametrize("command, sizes, message", [
        (["train", "--estimator", "ba_lower"],
         ["--batch-size", "1000000", "--set", "critic.widths=256"],
         "batch_size 1000000 needs a 2048000000-byte decoder array of shape (1000000, 256)"),
        (["train", "--estimator", "nwj"], WIDE,
         "batch_size 2000 needs a 1600000000-byte critic array of shape (2000, 100000)"),
        (["bench", "--estimators", "tuba"], WIDE,
         "batch_size 2000 needs a 1600000000-byte critic array of shape (2000, 100000)")],
        ids=["ba_lower-train", "nwj-train", "tuba-bench"])
    def test_every_network_cache_is_reserved(self, tmp_path, command, sizes, message):
        # a network's forward arrays (ba_lower's decoder layer is 1.9 GiB, a
        # tower layer at width 100,000 1.5 GiB) are granted untouched in an
        # uncapped process, so only a capped child shows whether they are
        # reserved before the run writes anything
        done = run_capped(command + ["--rho", "0.5", "--dim", "1", "--steps", "1",
                                     "--out", str(tmp_path)] + sizes)
        self.assert_clean_input_error(done.returncode, done.stderr, tmp_path, message)

    @pytest.mark.parametrize("command", [["train", "--estimator", "nwj"],
                                         ["bench", "--estimators", "nwj", "--seeds", "1"]])
    def test_adam_state_is_reserved(self, tmp_path, command):
        # 15,702,402 parameters, 120 MiB a vector: the parameters, the
        # gradient, Adam's m and v and its scratch pair are six vectors, more
        # than the cap holds, and all are allocated before anything is written
        done = run_capped(command + ["--rho", "0.5", "--dim", "1", "--steps", "1",
                                     "--batch-size", "4", "--set", "critic.widths=2800,2800",
                                     "--set", "critic.embed=1", "--out", str(tmp_path)])
        self.assert_clean_input_error(done.returncode, done.stderr, tmp_path)

    @pytest.mark.parametrize("command", [["train", "--estimator", "ba_upper"],
                                         ["bench", "--estimators", "ba_upper", "--seeds", "1"]])
    def test_sampling_working_set_is_reserved(self, tmp_path, command):
        # a 20000 x 1000 batch is 153 MiB: the objective owns three of those
        # (xs, ys and the uniforms) and checks three more for its value, more
        # than the cap leaves; the three it owns would fit
        done = run_capped(command + ["--rho", "0.5", "--dim", "1000", "--steps", "0",
                                     "--batch-size", "20000", "--out", str(tmp_path)])
        self.assert_clean_input_error(done.returncode, done.stderr, tmp_path,
                                      "batch_size 20000 needs a 480000000-byte value "
                                      "working set")

    def test_run_count_past_the_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mitk.cli, "train_estimator", self.never)
        code = main(["bench", "--estimators", "nwj,ba_upper", "--rho", "0.5", "--dim", "2",
                     "--seeds", str(mitk.cli.MAX_RUNS // 2 + 1), "--out", str(tmp_path)])
        self.assert_clean_input_error(
            code, capsys.readouterr().err, tmp_path,
            f"at most {mitk.cli.MAX_RUNS} runs, got 2 x 5001")

    def test_huge_seed_count_exits_at_once(self, tmp_path, capsys):
        args = ["bench", "--estimators", "nwj", "--rho", "0.5", "--steps", "1",
                "--set", f"seeds={10**23}", "--out", str(tmp_path)]
        # first in a capped child, where code that builds the seed list fails
        done = run_capped(args)
        self.assert_clean_input_error(done.returncode, done.stderr, tmp_path,
                                      f"got 1 x {10**23}")
        start = time.perf_counter()
        code = main(args)
        elapsed = time.perf_counter() - start
        self.assert_clean_input_error(code, capsys.readouterr().err, tmp_path)
        assert elapsed < 1.0


KINDS = [k.value for k in mitk.estimators.EstimatorKind]
# each key's small legal values; `out` is always the example's own directory
LEGAL = {
    "dim": st.integers(1, 3).map(str),
    "rho": st.floats(-0.9, 0.9).map(repr),
    "target_mi": st.floats(0.0, 2.0).map(repr),
    "seed": st.integers(0, 3).map(str),
    "seeds": st.integers(1, 3).map(str),
    "workers": st.integers(1, 3).map(str),
    "estimator": st.sampled_from(KINDS),
    "estimators": st.lists(st.sampled_from(KINDS), min_size=1, max_size=7,
                           unique=True).map(",".join),
    "steps": st.integers(0, 2).map(str),
    "batch_size": st.integers(2, 16).map(str),
    "eval_every": st.integers(1, 3).map(str),
    "smoothing": st.floats(0.0, 1.0).map(repr),
    "critic.form": st.sampled_from(["joint", "separable"]),
    "critic.widths": st.sampled_from(["", "4", "4,3"]),
    "critic.embed": st.integers(1, 4).map(str),
    "adam.lr": st.floats(1e-4, 1.0).map(repr),
    "adam.beta1": st.floats(0.0, 0.99).map(repr),
    "adam.beta2": st.floats(0.0, 0.99).map(repr),
    "adam.eps": st.floats(1e-8, 1e-3).map(repr),
}
HUGE = str(10**20)  # an int no allocation can meet
BAD = ["nan", "inf", "-inf", "-1", "0", "1e3", "", ",", "\u00e9\u00df", HUGE]


@st.composite
def cli_runs(draw):
    """(command, {key: value}) for one `mitk train` or `mitk bench` run: every
    key legal, except at most one from the bad pool (none in about one run in
    four); the task is given by one of rho and target_mi, and steps never
    exceeds 2, so a bad value cannot ask for a long run."""
    bad_key = draw(st.sampled_from([None] * 6 + sorted(LEGAL)))
    task_key = bad_key if bad_key in ("rho", "target_mi") else draw(
        st.sampled_from(["rho", "target_mi"]))
    values = {}
    for key, legal in LEGAL.items():
        if key == bad_key:  # HUGE steps would be a legal, endless run
            values[key] = draw(st.sampled_from([v for v in BAD if (key, v) != ("steps", HUGE)]))
        elif key == task_key or key not in ("rho", "target_mi"):
            values[key] = draw(legal)
    return draw(st.sampled_from(["train", "bench"])), values


# a small legal run for every key but the task's, each bad value put on it in turn
BASE = {"dim": "2", "seed": "0", "seeds": "1", "workers": "1", "steps": "2", "batch_size": "4",
        "eval_every": "1", "critic.widths": "4", "critic.embed": "2"}
BAD_PAIRS = [(key, value) for key in sorted(LEGAL) for value in BAD
             if (key, value) != ("steps", HUGE)]


class TestFuzzConfigKeys:
    @staticmethod
    def assert_exit_contract(command, values):
        """Runs `mitk <command>` with every key of `values` given by --set and
        checks the exit-code contract: 0, 1 or 2, no traceback, and after 2 one
        `error:` line and nothing written."""
        flag = ["--estimator", "ba_upper"] if command == "train" else ["--estimators", "ba_upper"]
        sets = [arg for key, value in values.items() for arg in ("--set", f"{key}={value}")]
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, *flag, "--out", str(out_dir), *sets])
            err = err.getvalue()
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if code == 2:
                assert err.startswith("error: ")
                assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_every_key_is_fuzzed(self):
        assert set(LEGAL) | {"out"} == set(mitk.cli._KEYS)

    @given(cli_runs())
    @settings(max_examples=500, deadline=None)
    def test_exit_code_and_no_write_on_bad_input(self, run):
        self.assert_exit_contract(*run)

    @pytest.mark.parametrize("key, value", BAD_PAIRS,
                             ids=[f"{key}={value!a}" for key, value in BAD_PAIRS])
    def test_every_bad_value_of_every_key(self, key, value):
        # drawn, a bad value on one key seldom meets every estimator (see
        # cli_runs): here each meets `train` with each kind and a seven-way bench
        task = {} if key == "target_mi" else {"rho": "0.5"}
        runs = [("train", {"estimator": kind}) for kind in KINDS]
        runs.append(("bench", {"estimators": ",".join(KINDS)}))
        for command, estimators in runs:
            self.assert_exit_contract(command, {**BASE, **task, **estimators, key: value})


class TestTableMi:
    def test_exact_value_printed(self, tmp_path, capsys):
        path = tmp_path / "joint.txt"
        path.write_text(format_joint_table(TILTED))
        assert main(["table-mi", "--table", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        # printed at nine significant digits
        assert out == "0.192744757"

    def test_bad_table_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("c0 c1\nr0 0.9 0.9\n")
        assert main(["table-mi", "--table", str(path)]) == 2


GOLDEN_CONFIG_RESOLVED = """\
adam.beta1=0.9
adam.beta2=0.999
adam.eps=1e-08
adam.lr=0.0005
batch_size=16
critic.embed=32
critic.form=separable
critic.widths=64,64
dim=20
estimator=nwj
eval_every=100
out={out}
rho=None
seed=0
seeds=3
smoothing=0.9
steps=0
target_mi=1.0
workers=1
"""


class TestConfigPrecedence:
    def test_config_resolved_is_golden(self, tmp_path, capsys):
        # every default the run did not override is echoed, training ones included
        code = main(["train", "--estimator", "nwj", "--target-mi", "1", "--seed", "0",
                     "--steps", "0", "--batch-size", "16", "--out", str(tmp_path)])
        assert code == 0
        resolved = (tmp_path / "config_resolved.txt").read_text()
        assert resolved == GOLDEN_CONFIG_RESOLVED.format(out=tmp_path)

    def test_file_overrides_defaults_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 40\nbatch_size = 16\ndim = 2\ntarget_mi = 1\n"
                       "critic.widths = 8\ncritic.embed = 4\neval_every = 20\n")
        out_dir = tmp_path / "out"
        code = main(["train", "--estimator", "dv", "--config", str(cfg),
                     "--seed", "2", "--steps", "20", "--out", str(out_dir)])
        assert code == 0
        resolved = (out_dir / "config_resolved.txt").read_text()
        assert "steps=20" in resolved          # flag beat the file
        assert "batch_size=16" in resolved     # file beat the default
        assert "critic.widths=8" in resolved

    def test_set_overrides_flags(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["train", "--estimator", "dv", "--dim", "2", "--target-mi", "1",
                     "--seed", "0", "--steps", "30", "--out", str(out_dir),
                     "--batch-size", "16", "--eval-every", "15",
                     "--set", "steps=15", "--set", "critic.widths=8",
                     "--set", "critic.embed=4"])
        assert code == 0
        assert "steps=15" in (out_dir / "config_resolved.txt").read_text()

    def test_set_overrides_the_estimator_flag(self, tmp_path, capsys):
        code = main(["train", "--estimator", "dv", "--dim", "2", "--target-mi", "1",
                     "--seed", "0", "--out", str(tmp_path), "--set", "estimator=nwj"] + FAST)
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["nwj_2_1_0.csv"]
        assert "estimator=nwj" in (tmp_path / "config_resolved.txt").read_text()

    def test_env_var_sets_default_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MITK_SEED", "9")
        code = main(["train", "--estimator", "ba_upper", "--dim", "1", "--rho", "0.5",
                     "--steps", "0", "--batch-size", "16", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "ba_upper_1_0.143841_9.csv").exists()

    def test_bad_env_seed_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MITK_SEED", "abc")
        build_parser()  # builds without reading the environment
        assert main(["verify", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MITK_SEED" in err and "Traceback" not in err
        assert main(["verify", "--trials", "1", "--seed", "0"]) == 0
        assert main(["train", "--estimator", "ba_upper", "--dim", "1", "--rho", "0.5",
                     "--steps", "0", "--batch-size", "16", "--out", str(tmp_path)]) == 2
        assert main(["train", "--estimator", "ba_upper", "--dim", "1", "--rho", "0.5",
                     "--steps", "0", "--batch-size", "16", "--seed", "3",
                     "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", [
        ["train", "--estimator", "nwj", "--target-mi", "1"],
        ["bench", "--estimators", "nwj,ba_upper", "--seeds", "2", "--target-mi", "1"]])
    def test_negative_env_seed_is_an_input_error_before_writing(self, tmp_path, capsys,
                                                                monkeypatch, command):
        monkeypatch.setenv("MITK_SEED", "-1")
        assert main(command + ["--dim", "2", "--out", str(tmp_path)] + FAST) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_env_var_sets_default_verify_seed(self, capsys, monkeypatch):
        assert main(["verify", "--trials", "5", "--seed", "4"]) == 0
        explicit = capsys.readouterr().out
        monkeypatch.setenv("MITK_SEED", "4")
        assert main(["verify", "--trials", "5"]) == 0
        assert capsys.readouterr().out == explicit

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        code = main(["train", "--estimator", "dv", "--dim", "2", "--target-mi", "1",
                     "--out", str(tmp_path), "--set", "bogus.key=1"] + FAST)
        assert code == 2
