"""Command-line front end: theorem verification, estimator training, benchmarks.

Subcommands:
  verify    run the full theorem probe suite, one report line per theorem
            (each theorem's wall seconds go to stderr)
  train     train/evaluate a single estimator, writing a trajectory CSV
  bench     estimator x seed sweep with an aligned summary table + summary.csv
  table-mi  exact mutual information of a plain-text joint probability table

Configuration precedence is defaults < config file (flat key=value lines)
< command-line flags < --set pairs, last wins; every train/bench output
directory gets the fully resolved configuration echoed into
config_resolved.txt so any artifact can be reproduced from the directory
alone. Output files carry no
timestamps: identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple

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
from .gaussian import SEED_LIMIT, GaussianTask, task_for_target_mi, true_mi
from .variational import run_probe_suite

__all__ = ["main", "SummaryRow"]

MAX_RUNS = 10_000  # the most estimator x seed runs one `mitk bench` takes


def _default_seed() -> int:
    # the only knob with an environment override; read when a command runs
    # and nothing else sets the seed, so a bad value is reported like any
    # other bad input
    raw = os.environ.get("MITK_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MITK_SEED must be an integer, got {raw!r}") from None


_UNSET = object()


class _Key(NamedTuple):
    """A configuration key: its parser, and the `TrainSettings` field it sets,
    whose default it takes, or else its own default."""

    parse: type
    field: str | None = None
    default: object = _UNSET  # no default: absent until something sets it


_KEYS = {
    "dim": _Key(int, default=20),
    "rho": _Key(float, default=None),
    "target_mi": _Key(float, default=None),
    "seed": _Key(int, default=None),
    "seeds": _Key(int, default=3),
    "workers": _Key(int, default=1),
    "out": _Key(str, default="."),
    "estimator": _Key(str),
    "estimators": _Key(str),
    "steps": _Key(int, "steps"),
    "batch_size": _Key(int, "batch_size"),
    "eval_every": _Key(int, "eval_every"),
    "smoothing": _Key(float, "smoothing"),
    "critic.form": _Key(str, "critic_form"),
    # kept as the comma string it was given, so the echo shows that string
    "critic.widths": _Key(str, "hidden"),
    "critic.embed": _Key(int, "embed"),
    "adam.lr": _Key(float, "lr"),
    "adam.beta1": _Key(float, "beta1"),
    "adam.beta2": _Key(float, "beta2"),
    "adam.eps": _Key(float, "eps"),
}


def _defaults() -> dict:
    fields = asdict(TrainSettings())
    fields["hidden"] = ",".join(str(w) for w in fields["hidden"])
    return {
        name: fields[key.field] if key.field else key.default
        for name, key in _KEYS.items()
        if key.field or key.default is not _UNSET
    }


def _parse_value(key: str, raw: str):
    if key not in _KEYS:
        raise ValueError(f"unknown configuration key {key!r}")
    return _KEYS[key].parse(raw)


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


def _resolve_config(args) -> dict:
    """defaults < config file < flags < --set pairs, last wins; a flag is
    any argparse dest that is a configuration key."""
    config = _defaults()
    if args.config:
        config.update(_load_config_file(args.config))
    config.update((dest, value) for dest, value in vars(args).items()
                  if dest in _KEYS and value is not None)
    for pair in args.set or []:
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
    fields = {key.field: config[name] for name, key in _KEYS.items() if key.field}
    fields["hidden"] = tuple(int(w) for w in fields["hidden"].split(",") if w.strip())
    return TrainSettings(seed=seed, **fields)


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

def _cmd_train(args) -> int:
    config = _resolve_config(args)
    kind = EstimatorKind(config["estimator"])
    task = _task_from_config(config)
    settings = _settings_from_config(config, int(config["seed"]))
    make_objective(kind, task, settings)  # a batch too large to hold fails before any write
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)
    try:
        path, _ = _run_one(kind, task, settings, out_dir)
    except TrainingDiverged as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(path)
    return 0


def _run_one(kind, task: GaussianTask, settings: TrainSettings, out_dir: Path):
    """Train one run and write its trajectory CSV; returns (CSV path, trajectory)."""
    trajectory = train_estimator(kind, task, settings)
    path = out_dir / trajectory_filename(trajectory)
    path.write_text(trajectory_csv_text(trajectory))
    return path, trajectory


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryRow:
    """Across-seed aggregate for one estimator on one task.

    `violation` flags a bound pointing the wrong way by more than three
    standard errors of the across-seed mean. A row with fewer than two
    seeds has no standard error and gives no verdict: `violation` is None,
    an empty field in summary.csv and `-` in the printed table.
    """

    estimator: str
    true_mi: float
    mean_estimate: float
    bias: float
    std: float
    violation: bool | None


def _summarize(tag: str, task: GaussianTask, trajectories: list) -> SummaryRow:
    target = true_mi(task)
    finals = np.array([t.final_smoothed for t in trajectories])
    # past 2**500 a deviation's square can overflow: the finals are scaled
    # by a power of two, which is exact, and the mean and std scaled back
    exponent = math.frexp(float(np.abs(finals).max()))[1]
    shift = exponent if exponent > 500 else 0
    scaled = np.ldexp(finals, -shift)
    with np.errstate(over="ignore"):  # a std past the largest float is inf
        mean = float(np.ldexp(scaled.mean(), shift))
        std = float(np.ldexp(scaled.std(ddof=1), shift)) if len(finals) > 1 else math.nan
    if len(finals) < 2:
        violation = None
    else:
        se = std / math.sqrt(len(finals))
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
        violation=violation,
    )


def _summary_csv_text(rows: list) -> str:
    lines = ["estimator,true_mi,mean_estimate,bias,std,violation"]
    for row in rows:
        lines.append(
            f"{row.estimator},{row.true_mi:.9g},{row.mean_estimate:.9g},"
            f"{row.bias:.9g},{row.std:.9g},"
            f"{'' if row.violation is None else int(row.violation)}"
        )
    return "\n".join(lines) + "\n"


def _summary_table_text(rows: list) -> str:
    header = f"{'estimator':<10} {'true_mi':>9} {'mean':>10} {'bias':>10} {'std':>10} {'viol':>5}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.estimator:<10} {row.true_mi:>9.4f} {row.mean_estimate:>10.4f} "
            f"{row.bias:>10.4f} {row.std:>10.4f} "
            f"{'-' if row.violation is None else int(row.violation):>5}"
        )
    return "\n".join(lines)


def _cmd_bench(args) -> int:
    config = _resolve_config(args)
    task = _task_from_config(config)
    tags = tuple(t.strip() for t in str(config["estimators"]).split(",") if t.strip())
    master, count = int(config["seed"]), int(config["seeds"])
    # bad input (a typo, a repeated tag, bad settings, a batch too large to
    # hold, too many runs) raises here, not in every run of the pool
    settings = _settings_from_config(config, master)
    for tag in tags:  # each objective is dropped before the next is built
        make_objective(tag, task, settings)
    if not tags or count < 1:
        raise ValueError("estimator and seed lists must be nonempty")
    if len(set(tags)) < len(tags):
        raise ValueError(f"each estimator may be listed once, got {','.join(tags)}")
    if len(tags) * count > MAX_RUNS:
        raise ValueError(f"a bench runs at most {MAX_RUNS} runs, got {len(tags)} x {count}")
    if master + count > SEED_LIMIT:
        raise ValueError(f"seed + seeds - 1 must be < 2**64, got {master + count - 1}")
    workers = int(config["workers"])
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seeds = tuple(range(master, master + count))
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)

    runs = [(tag, seed) for tag in tags for seed in seeds]
    results: dict = {}
    failures = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_run_one, tag, task, replace(settings, seed=seed), out_dir): (tag, seed)
            for tag, seed in runs
        }
        for future, (tag, seed) in futures.items():
            try:
                _, trajectory = future.result()
            except TrainingDiverged as err:
                failures.append((tag, seed, str(err)))
            except Exception as err:  # one broken run must not lose the others
                failures.append((tag, seed, f"{type(err).__name__}: {err}"))
            else:
                # a tag gets a summary row only once one of its runs finished
                results.setdefault(tag, []).append(trajectory)

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
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C: one line and the shell's 128 + SIGINT, never a traceback
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
