"""Command-line interface: subcommands, config precedence, reproducible artifacts."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_negative_trials_is_bad_input(self, capsys):
        assert main(["verify", "--trials", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "trials" in captured.err

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
        assert "target-mi" in capsys.readouterr().err or True

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
        real = mitk.estimators._Nwj.value
        calls = []

        def overflowing(self, batch):
            # the held-out evaluations run at steps 0, 20 and 40; the one at 40 overflows
            calls.append(1)
            return -math.inf if len(calls) == 3 else real(self, batch)

        monkeypatch.setattr(mitk.estimators._Nwj, "value", overflowing)
        code = main(["train", "--estimator", "nwj", "--dim", "2", "--target-mi", "1",
                     "--seed", "0", "--out", str(tmp_path)] + FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite held-out estimate -inf at step 40" in err
        assert not list(tmp_path.glob("nwj_*.csv"))

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
        # the runs that finished are summarized exactly as in a clean sweep
        clean_rows = (tmp_path / "clean" / "summary.csv").read_text().splitlines()
        assert summary[1] == clean_rows[1]
        assert "run failed" not in clean.err and "summary:" not in clean.err

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
                                     ["--set", "critic.embed=0"], ["--seeds", "0"]])
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
        assert not (tmp_path / "summary.csv").exists()


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


class TestConfigPrecedence:
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
