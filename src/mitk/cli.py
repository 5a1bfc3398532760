"""Command-line front end: theorem verification, estimator training, benchmarks.

Subcommands:
  verify    run the full theorem probe suite, one report line per theorem
            (each theorem's wall seconds go to stderr)
  train     train/evaluate a single estimator, writing a trajectory CSV
  bench     estimator x seed sweep with an aligned summary table + summary.csv
  table-mi  exact mutual information of a plain-text joint probability table

Configuration precedence is defaults < config file (flat key=value lines)
< command-line flags, last wins; every train/bench output directory gets
the fully resolved configuration echoed into config_resolved.txt so any
artifact can be reproduced from the directory alone. Output files carry no
timestamps: identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .discrete import mutual_information, parse_joint_table
from .estimators import (
    EstimatorKind,
    TrainSettings,
    TrainingDiverged,
    make_objective,
    train_estimator,
    trajectory_csv_text,
    trajectory_filename,
)
from .gaussian import GaussianTask, task_for_target_mi, true_mi
from .variational import run_probe_suite

__all__ = ["main", "SummaryRow"]


def _default_seed() -> int:
    # the only knob with an environment override; read when a command runs
    # and nothing else sets the seed, so a bad value is reported like any
    # other bad input
    raw = os.environ.get("MITK_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MITK_SEED must be an integer, got {raw!r}") from None


_DEFAULTS = {
    "dim": 20,
    "rho": None,
    "target_mi": None,
    "steps": 20000,
    "batch_size": 128,
    "eval_every": 100,
    "smoothing": 0.9,
    "seeds": 3,
    "workers": os.cpu_count() or 1,
    "out": ".",
    "critic.form": "separable",
    "critic.widths": "64,64",
    "critic.embed": 32,
    "adam.lr": 5e-4,
    "adam.beta1": 0.9,
    "adam.beta2": 0.999,
    "adam.eps": 1e-8,
}

_PARSERS = {
    "dim": int,
    "rho": float,
    "target_mi": float,
    "steps": int,
    "batch_size": int,
    "eval_every": int,
    "smoothing": float,
    "seed": int,
    "seeds": int,
    "workers": int,
    "out": str,
    "estimator": str,
    "estimators": str,
    "critic.form": str,
    "critic.widths": str,
    "critic.embed": int,
    "adam.lr": float,
    "adam.beta1": float,
    "adam.beta2": float,
    "adam.eps": float,
}


def _parse_value(key: str, raw):
    if key not in _PARSERS:
        raise ValueError(f"unknown configuration key {key!r}")
    if raw is None or isinstance(raw, (int, float)):
        return raw
    return _PARSERS[key](raw)


def _load_config_file(path: str) -> dict:
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        out[key] = _parse_value(key, value)
    return out


def _resolve_config(args, flag_keys: tuple) -> dict:
    """defaults < config file < explicit flags < --set pairs, last wins."""
    config = dict(_DEFAULTS, seed=None)
    if getattr(args, "config", None):
        config.update(_load_config_file(args.config))
    for key in flag_keys:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    for pair in getattr(args, "set", None) or []:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        config[key.strip()] = _parse_value(key.strip(), value.strip())
    if config["seed"] is None:
        config["seed"] = _default_seed()
    return config


def _task_from_config(config: dict) -> GaussianTask:
    rho = config.get("rho")
    target = config.get("target_mi")
    if rho is not None and target is not None:
        raise ValueError("give either rho or target_mi, not both")
    if rho is not None:
        return GaussianTask(int(config["dim"]), float(rho))
    if target is not None:
        return task_for_target_mi(int(config["dim"]), float(target))
    raise ValueError("a task needs --rho or --target-mi")


def _settings_from_config(config: dict, seed: int) -> TrainSettings:
    widths = tuple(int(w) for w in str(config["critic.widths"]).split(",") if w.strip())
    return TrainSettings(
        steps=int(config["steps"]),
        batch_size=int(config["batch_size"]),
        seed=seed,
        eval_every=int(config["eval_every"]),
        smoothing=float(config["smoothing"]),
        critic_form=str(config["critic.form"]),
        hidden=widths,
        embed=int(config["critic.embed"]),
        lr=float(config["adam.lr"]),
        beta1=float(config["adam.beta1"]),
        beta2=float(config["adam.beta2"]),
        eps=float(config["adam.eps"]),
    )


def _echo_config(config: dict, out_dir: Path) -> None:
    lines = [f"{key}={config[key]}" for key in sorted(config)]
    (out_dir / "config_resolved.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.trials == 0:
        print("warning: --trials 0 makes every probe vacuous", file=sys.stderr)
    seed = _default_seed() if args.seed is None else args.seed
    reports = run_probe_suite(trials=args.trials, seed=seed, corrupt=args.corrupt_oracle)
    failures = 0
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        failures += 0 if report.passed else 1
        print(
            f"{report.theorem} {report.name:26s} trials={report.trials:<6d} "
            f"worst_slack={report.worst_slack:+.3e}  {status}"
        )
        print(f"{report.theorem} seconds={report.seconds:.3f}", file=sys.stderr)
        if not report.passed:
            for check in report.checks:
                if not check.passed:
                    print(
                        f"     check {check.name}: worst={check.worst:.6e} "
                        f"tolerance={check.tolerance:.1e}",
                        file=sys.stderr,
                    )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_FLAGS = ("dim", "rho", "target_mi", "steps", "batch_size", "eval_every", "out", "seed")


def _cmd_train(args) -> int:
    config = _resolve_config(args, _TRAIN_FLAGS)
    config["estimator"] = args.estimator
    task = _task_from_config(config)
    settings = _settings_from_config(config, int(config["seed"]))
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)
    try:
        trajectory = train_estimator(args.estimator, task, settings)
    except TrainingDiverged as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    path = out_dir / trajectory_filename(trajectory)
    path.write_text(trajectory_csv_text(trajectory))
    print(path)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryRow:
    """Across-seed aggregate for one estimator on one task.

    `violation` flags a bound pointing the wrong way by more than three
    standard errors; with fewer than two seeds the error is taken from the
    spread of the run's own trailing evaluations instead.
    """

    estimator: str
    true_mi: float
    mean_estimate: float
    bias: float
    std: float
    violation: bool


def _bench_one(config: dict, task: GaussianTask, out_dir: Path, tag: str, seed: int):
    settings = _settings_from_config(config, seed)
    trajectory = train_estimator(tag, task, settings)
    path = out_dir / trajectory_filename(trajectory)
    path.write_text(trajectory_csv_text(trajectory))
    return trajectory


def _summarize(tag: str, task: GaussianTask, trajectories: list) -> SummaryRow:
    target = true_mi(task)
    finals = np.array([t.final_smoothed for t in trajectories])
    mean = float(finals.mean())
    std = float(finals.std(ddof=1)) if len(finals) > 1 else float("nan")
    if len(finals) > 1:
        se = std / math.sqrt(len(finals))
    else:
        tail = np.array([r[1] for r in trajectories[0].records[-20:]])
        se = float(tail.std(ddof=1) / math.sqrt(len(tail))) if len(tail) > 1 else 0.0
    if EstimatorKind(tag).is_upper:
        violation = mean < target - 3.0 * se
    else:
        violation = mean > target + 3.0 * se
    return SummaryRow(
        estimator=tag,
        true_mi=target,
        mean_estimate=mean,
        bias=mean - target,
        std=std,
        violation=bool(violation),
    )


def _summary_csv_text(rows: list) -> str:
    lines = ["estimator,true_mi,mean_estimate,bias,std,violation"]
    for row in rows:
        lines.append(
            f"{row.estimator},{row.true_mi:.9g},{row.mean_estimate:.9g},"
            f"{row.bias:.9g},{row.std:.9g},{int(row.violation)}"
        )
    return "\n".join(lines) + "\n"


def _summary_table_text(rows: list) -> str:
    header = f"{'estimator':<10} {'true_mi':>9} {'mean':>10} {'bias':>10} {'std':>10} {'viol':>5}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.estimator:<10} {row.true_mi:>9.4f} {row.mean_estimate:>10.4f} "
            f"{row.bias:>10.4f} {row.std:>10.4f} {int(row.violation):>5d}"
        )
    return "\n".join(lines)


_BENCH_FLAGS = _TRAIN_FLAGS + ("seeds", "workers")


def _cmd_bench(args) -> int:
    config = _resolve_config(args, _BENCH_FLAGS)
    config["estimators"] = args.estimators
    task = _task_from_config(config)
    tags = tuple(t.strip() for t in str(config["estimators"]).split(",") if t.strip())
    master = int(config["seed"])
    # bad input (a typo, bad settings) raises here, not in every run of the pool
    settings = _settings_from_config(config, master)
    for tag in tags:
        make_objective(tag, task, settings)
    seeds = tuple(master + i for i in range(int(config["seeds"])))
    if not tags or not seeds:
        raise ValueError("estimator and seed lists must be nonempty")
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)

    runs = [(tag, seed) for tag in tags for seed in seeds]
    results: dict = {}
    failures = []
    with ThreadPoolExecutor(max_workers=max(1, int(config["workers"]))) as pool:
        futures = {
            pool.submit(_bench_one, config, task, out_dir, tag, seed): (tag, seed)
            for tag, seed in runs
        }
        for future, (tag, seed) in futures.items():
            try:
                results.setdefault(tag, []).append(future.result())
            except TrainingDiverged as err:
                failures.append((tag, seed, str(err)))
            except Exception as err:  # one broken run must not lose the others
                failures.append((tag, seed, f"{type(err).__name__}: {err}"))

    rows = [
        _summarize(tag, task, sorted(results[tag], key=lambda t: t.seed))
        for tag in sorted(results)
    ]
    print(_summary_table_text(rows))
    (out_dir / "summary.csv").write_text(_summary_csv_text(rows))
    for tag, seed, message in failures:
        print(f"run failed: {tag} seed={seed}: {message}", file=sys.stderr)
    for tag in dict.fromkeys(tag for tag, _, _ in failures):
        print(f"summary: {tag} covers {len(results.get(tag, ()))} of {len(seeds)} seeds",
              file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# table-mi
# ---------------------------------------------------------------------------


def _cmd_table_mi(args) -> int:
    joint = parse_joint_table(Path(args.table).read_text())
    print(f"{mutual_information(joint):.9g}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common_run_flags(sub) -> None:
    sub.add_argument("--dim", type=int, default=None, help="task dimension")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--rho", type=float, default=None, help="componentwise correlation")
    group.add_argument("--target-mi", dest="target_mi", type=float, default=None,
                       help="nats of true information; inverts the closed form for rho")
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    sub.add_argument("--eval-every", dest="eval_every", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (env MITK_SEED overrides the default)")
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--config", type=str, default=None,
                     help="flat key=value configuration file")
    sub.add_argument("--set", action="append", default=None, metavar="KEY=VALUE",
                     help="override any configuration key (critic.widths, adam.lr, ...)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mitk",
        description="mutual-information toolkit: exact discrete quantities, "
                    "theorem probes, and variational estimators",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    verify = subparsers.add_parser("verify", help="run the theorem probe suite")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=None,
                        help="probe seed (default: env MITK_SEED, else 0)")
    verify.add_argument("--corrupt-oracle", action="store_true",
                        help="negative control: perturb one oracle so the suite must fail")
    verify.set_defaults(func=_cmd_verify)

    train = subparsers.add_parser("train", help="train one estimator, write its trajectory CSV")
    train.add_argument("--estimator", required=True,
                       choices=[k.value for k in EstimatorKind])
    _add_common_run_flags(train)
    train.set_defaults(func=_cmd_train)

    bench = subparsers.add_parser("bench", help="estimator x seed sweep with summary")
    bench.add_argument("--estimators", required=True,
                       help="comma-separated estimator tags")
    bench.add_argument("--seeds", type=int, default=None, help="number of seeds")
    bench.add_argument("--workers", type=int, default=None, help="worker pool size")
    _add_common_run_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    table = subparsers.add_parser("table-mi", help="exact MI of a joint table file")
    table.add_argument("--table", required=True, help="plain-text joint probability table")
    table.set_defaults(func=_cmd_table_mi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
