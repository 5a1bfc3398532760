"""The benchmark's four workloads, their output checks and determinism digests.

Every workload is a closed loop: one caller runs one operation at a time and
waits for it to return. The workload seed only chooses the training and
sweep seeds passed to mitk. Each operation returns its wall time, the checks
it made on mitk's outputs and sha256 digests of those outputs; `measure`
repeats operations and counts a digest that changes between repeats of the
same call as a failed check.

Import this module only after the BLAS thread variables are set: it
imports numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mitk.cli
import mitk.critic
import mitk.estimators
from mitk.gaussian import task_for_target_mi

# ROADMAP's benchmark configuration: d=20, 2 nats, batch 128, 64-64 towers, embed 32
DIM = 20
TARGET_MI = 2.0
BATCH = 128
SEPARABLE_ESTIMATORS = ("ba_lower", "dv", "tuba", "nwj", "infonce")
JOINT_ESTIMATORS = ("nwj", "infonce")
ALL_ESTIMATORS = ("ba_upper", "l1out", "ba_lower", "dv", "tuba", "nwj", "infonce")
THEOREMS = tuple(f"T{i:02d}" for i in range(1, 14))

# sizes: one operation takes about 1 s, so a 25 s run repeats it about 25 times
SEPARABLE_STEPS = 100
JOINT_STEPS = 5
VERIFY_TRIALS = 100
PROBE_SEED = 0
SWEEP_STEPS = 50
SWEEP_EVAL_EVERY = 25
SWEEP_SEEDS = 2
TRAIN_SEEDS = 2  # distinct training seeds per run; operations cycle through them


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class OpResult:
    """One closed-loop operation: a round of training calls, a verify or a sweep."""

    wall: float
    checks: list = field(default_factory=list)  # (name, passed)
    digests: dict = field(default_factory=dict)  # call key -> sha256 of its output
    ms_per_step: dict = field(default_factory=dict)  # estimator -> ms per training step
    malformed: list = field(default_factory=list)  # outputs not in the expected form
    flagged: list = field(default_factory=list)  # estimators summary.csv flags a violation on
    ref: float = 0.0  # mean wall time of the reference loops run before and after it


def _derived_seeds(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


class TrainWorkload:
    """`train_estimator` on each estimator in turn, one training seed per round."""

    def __init__(self, name: str, seed: int, form: str, estimators, steps: int, lr=None):
        self.estimators = tuple(estimators)
        self.steps = steps
        self.task = task_for_target_mi(DIM, TARGET_MI)
        self.seeds = _derived_seeds(name, seed, TRAIN_SEEDS)
        overrides = {} if lr is None else {"lr": lr}
        self.settings = [
            mitk.estimators.TrainSettings(steps=steps, batch_size=BATCH, seed=s,
                                          critic_form=form, **overrides)
            for s in self.seeds
        ]
        # the parameters every call builds, built once here so set-up pays for
        # the first-call costs
        arch = mitk.critic.CriticArch(DIM, DIM, form=form)
        mitk.critic.init_critic(arch, self.seeds[0])
        mitk.critic.init_baseline(DIM, arch.hidden, self.seeds[0])
        mitk.estimators.init_decoder(DIM, arch.hidden, self.seeds[0])

    def run_op(self, index: int) -> OpResult:
        settings = self.settings[index % len(self.settings)]
        result = OpResult(wall=0.0)
        start = time.perf_counter()
        for tag in self.estimators:
            t0 = time.perf_counter()
            try:
                # looked up on the module at call time so the tracer's wrapper is used
                trajectory = mitk.estimators.train_estimator(tag, self.task, settings)
            except (mitk.estimators.TrainingDiverged, ValueError) as err:
                result.checks.append((f"{tag}: {err}", False))
                continue
            result.ms_per_step[tag] = (time.perf_counter() - t0) / self.steps * 1e3
            text = mitk.estimators.trajectory_csv_text(trajectory)
            finite = all(math.isfinite(v) for _, est, smooth in trajectory.records
                         for v in (est, smooth))
            result.checks.append((f"{tag}: finite trajectory", finite))
            result.digests[f"{tag}_seed{settings.seed}.csv"] = sha256(text)
        result.wall = time.perf_counter() - start
        return result


def _call_main(argv) -> tuple:
    """(exit code, stdout text) of one `mitk` invocation inside this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mitk.cli.main(argv)
    return code, out.getvalue()


class VerifyWorkload:
    """`mitk verify` through `mitk.cli.main` at a fixed trial count and seed.

    The probe seed does not follow the workload seed: the probes draw their
    alphabet sizes at random (T13 enumerates partitions of 4 to 8 symbols),
    so one probe seed costs up to 40% more than another at 300 trials, and
    more at 100; a seed-derived suite would measure the seed, not the code.
    """

    def __init__(self, trials: int = VERIFY_TRIALS, corrupt: bool = False):
        self.argv = ["verify", "--trials", str(trials), "--seed", str(PROBE_SEED)]
        if corrupt:
            self.argv.append("--corrupt-oracle")
        mitk.cli.build_parser()

    def run_op(self, index: int) -> OpResult:
        start = time.perf_counter()
        code, text = _call_main(self.argv)
        result = OpResult(wall=time.perf_counter() - start)
        result.checks.append(("verify exit code 0", code == 0))
        lines = text.splitlines()
        found = tuple(line.split()[0] for line in lines if line.strip())
        if found != THEOREMS:
            result.malformed.append(f"verify printed reports for {found}, expected T01..T13")
        for line in lines:
            if line.strip():
                result.checks.append((f"{line.split()[0]} passed", line.endswith(" pass")))
        result.digests["verify report"] = sha256(text)
        return result


class SweepWorkload:
    """`mitk bench` through `mitk.cli.main`: all estimators x 2 seeds, 2 workers."""

    def __init__(self, seed: int, work_dir: Path, workers: int, steps: int = SWEEP_STEPS):
        (master,) = _derived_seeds("sweep", seed, 1)
        self.work_dir = Path(work_dir)
        self.argv = [
            "bench", "--estimators", ",".join(ALL_ESTIMATORS),
            "--seeds", str(SWEEP_SEEDS), "--dim", str(DIM), "--target-mi", str(TARGET_MI),
            "--steps", str(steps), "--eval-every", str(SWEEP_EVAL_EVERY),
            "--batch-size", str(BATCH),
            "--workers", str(workers), "--seed", str(master),
        ]
        self.expected_csvs = len(ALL_ESTIMATORS) * SWEEP_SEEDS
        mitk.cli.build_parser()
        task_for_target_mi(DIM, TARGET_MI)

    def run_op(self, index: int) -> OpResult:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir))
        try:
            start = time.perf_counter()
            code, _ = _call_main(self.argv + ["--out", str(out)])
            result = OpResult(wall=time.perf_counter() - start)
            self._check_outputs(out, code, result)
        finally:
            shutil.rmtree(out)
        return result

    def _check_outputs(self, out: Path, code: int, result: OpResult) -> None:
        result.checks.append(("bench exit code 0", code == 0))
        summary_path = out / "summary.csv"
        if not summary_path.exists():
            result.malformed.append("bench wrote no summary.csv")
            return
        summary = summary_path.read_text()
        result.digests["summary.csv"] = sha256(summary)
        csvs = sorted(p for p in out.glob("*.csv") if p.name != "summary.csv")
        result.checks.append((f"bench wrote {self.expected_csvs} trajectory CSVs",
                              len(csvs) == self.expected_csvs))
        finals, true_mis = {}, {}  # estimator -> last smoothed estimates, true MI
        for path in csvs:
            text = path.read_text()
            lines = [line.split(",") for line in text.splitlines()[1:]]
            values = [float(v) for line in lines for v in line[1:4]]
            result.checks.append((f"{path.name}: finite trajectory",
                                  all(math.isfinite(v) for v in values)))
            result.digests[path.name] = sha256(text)
            if lines:
                finals.setdefault(lines[-1][4], []).append(float(lines[-1][2]))
                true_mis[lines[-1][4]] = float(lines[-1][3])
        rows = [line.split(",") for line in summary.splitlines()[1:]]
        result.checks.append(("summary.csv has 7 rows",
                              sorted(r[0] for r in rows) == sorted(ALL_ESTIMATORS)))
        for row in rows:
            agrees = summary_row_agrees(row, finals.get(row[0], []), true_mis.get(row[0]))
            result.checks.append((f"{row[0]}: summary row agrees with its trajectories",
                                  agrees))
            if row[-1] == "1":
                result.flagged.append(row[0])


UPPER_BOUNDS = ("ba_upper", "l1out")
SUMMARY_TOL = 1e-6  # summary.csv and the trajectory CSVs print 9 significant digits


def summary_row_agrees(row, finals, true_mi) -> bool:
    """One summary.csv row matches the trajectories it summarises.

    The mean and sample standard deviation of the seeds' final smoothed
    estimates, the bias and the true MI must match, and the `violation` flag
    must be what mitk's rule gives on them: the mean more than three standard
    errors on the wrong side of the true MI. The flag itself is mitk's
    statistical verdict, not a failure: with two seeds an unbiased bound
    crosses that line about one sweep in ten. A flag within rounding of the
    line is not checked.
    """
    if len(row) != 6 or len(finals) < 2 or true_mi is None or row[5] not in ("0", "1"):
        return False
    got_mi, mean, bias, std = (float(v) for v in row[1:5])
    want_mean, want_std = statistics.fmean(finals), statistics.stdev(finals)
    pairs = ((got_mi, true_mi), (mean, want_mean), (bias, want_mean - true_mi),
             (std, want_std))
    if not all(math.isclose(a, b, rel_tol=SUMMARY_TOL, abs_tol=SUMMARY_TOL) for a, b in pairs):
        return False
    margin = 3.0 * want_std / math.sqrt(len(finals))
    # positive when the bound points the wrong way by more than the margin
    excess = (true_mi - margin - want_mean if row[0] in UPPER_BOUNDS
              else want_mean - true_mi - margin)
    return abs(excess) <= SUMMARY_TOL or (excess > 0) == (row[5] == "1")


def make(name: str, seed: int, work_dir: Path, workers: int):
    """Build one workload: the task, the parameters or the argument list."""
    if name == "train-separable":
        return TrainWorkload(name, seed, "separable", SEPARABLE_ESTIMATORS, SEPARABLE_STEPS)
    if name == "train-joint":
        return TrainWorkload(name, seed, "joint", JOINT_ESTIMATORS, JOINT_STEPS)
    if name == "verify":
        return VerifyWorkload()
    if name == "sweep":
        return SweepWorkload(seed, work_dir, workers)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Tally:
    """Checks and digests accumulated over every operation of one run."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0  # digests that changed between repeats of one call
    failures: list = field(default_factory=list)
    malformed: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    flagged: dict = field(default_factory=dict)  # estimator -> operations that flagged it

    def add(self, result: OpResult) -> None:
        checks = list(result.checks)
        for tag in result.flagged:
            self.flagged[tag] = self.flagged.get(tag, 0) + 1
        for key, digest in result.digests.items():
            if key not in self.digests:
                self.digests[key] = digest
                continue
            same = self.digests[key] == digest
            self.mismatches += not same
            checks.append((f"{key}: same digest on repeat", same))
        self.malformed.extend(result.malformed)
        for name, passed in checks:
            self.attempted += 1
            if not passed:
                self.failed += 1
                self.failures.append(name)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        """Outputs came back in the expected form and repeated calls agreed.

        A diverged run or a failed probe is a failed operation that mitk
        reported correctly; it counts in `failed`. A bound that summary.csv
        flags is neither: it counts in `flagged`.
        """
        return self.attempted > 0 and not self.malformed and not self.mismatches


class ReferenceLoop:
    """A fixed piece of work that does not touch mitk, timed between operations.

    On a shared host the speed of a core drifts by up to a factor of two over
    tens of seconds, and process CPU time drifts with it, so no wall time is
    steady from one run to the next. An operation's wall time divided by the
    wall time of this loop, run right before and after it, cancels part of
    that drift. The loop is mostly Python bytecode, plus numpy calls on
    128-row and 2048-row arrays. Never change it: `op_ref` is measured in
    its units.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = (rng.standard_normal((128, 64)), rng.standard_normal((64, 64)))
        self.large = (rng.standard_normal((2048, 40)), rng.standard_normal((40, 64)))
        self.out = np.empty((2048, 64))

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(400000):
            acc += i * i % 7
        x, w = self.small
        for _ in range(500):
            np.maximum(x @ w, 0.0).sum(axis=0)
        x, w = self.large
        for _ in range(40):
            np.matmul(x, w, out=self.out)
            np.maximum(self.out, 0.0, out=self.out)
            self.out.sum(axis=0)
        return time.perf_counter() - start


def measure(workload, seconds: float, tally: Tally, ops=None, begin_op=None,
            reference=None) -> list:
    """Run operations for `seconds` (at least one), or exactly `ops` of them.

    With a `reference` loop, it runs before the first operation and after
    each one, and each result's `ref` is the mean of the two around it.
    """
    results = []
    before = reference() if reference is not None else 0.0
    start = time.perf_counter()
    while (len(results) < ops) if ops is not None else (
            not results or time.perf_counter() - start < seconds):
        if begin_op is not None:
            begin_op(len(results))
        result = workload.run_op(len(results))
        if reference is not None:
            after = reference()
            result.ref = (before + after) / 2
            before = after
        tally.add(result)
        results.append(result)
    return results
