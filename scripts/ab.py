"""In-process A/B timing of `mitk verify`, of one training run or of one
estimator's value between two source trees.

BASE and HEAD are git revisions of this repository, exported with `git
archive` to a temporary directory; a directory that holds `src/mitk` (such
as a checkout) is copied there instead, and HEAD defaults to this script's
own checkout. Both trees are loaded into this one process, as the packages
`mitk_a` (BASE) and `mitk_b` (HEAD), so the pairs share the interpreter,
its heap and the machine's state of the moment.

The operation, named first and `verify` unless given, is one of:

- `verify`: `mitk verify --trials T --seed S` through each side's
  `cli.main`; its digest is the exit code and the sha256 of the stdout.
- `train`: `train_estimator` for one `--estimator` and `--form` at the
  benchmark configuration (d=20, 2 nats, batch 128, 64-64 towers, embed
  32) for `--steps` steps from `--seed`; its digest is the sha256 of the
  trajectory CSV and of the trained flat-parameter vector.
- `value`: `objective.value(batch)` of one `--estimator` and `--form`,
  built at the benchmark configuration (d=20, 2 nats, batch 128) from
  `--seed`, on held-out stream 1 drawn into `objective.samples`; a timed
  sample is `VALUE_CALLS` calls after one untimed one, and its digest is
  the value as a float hex.

It first prints each side's digest. Differing digests mean the change
moved bits; that is reported, not an error. Then it runs the operation on
each side in N pairs, alternating which side runs first, and prints one
line: the median head/base ratio of wall times, its quartiles, the number
of pairs in which head was faster, and each side's median seconds; then
the machine. With `--json PATH` it also writes both sides' digests, their
raw seconds in pair order and the ratios to PATH. BLAS is pinned to one
thread before numpy loads, unless the environment already sets it. It
writes nothing but the `--json` file.

    python scripts/ab.py HEAD~1                  # verify, HEAD~1 against this checkout
    python scripts/ab.py BASE HEAD --pairs 20 --trials 1000 --seed 0
    python scripts/ab.py train BASE --estimator nwj --form separable --steps 500
    python scripts/ab.py value BASE --estimator l1out --pairs 20 --json pairs.json
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)
from numpy.lib._utils_impl import _opt_info  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
VALUE_CALLS = 50  # calls in one timed sample of the `value` operation
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def export(tree: str, dest: Path) -> Path:
    """Put `tree`'s `src/mitk` under `dest`; returns `dest`."""
    if (Path(tree) / "src" / "mitk").is_dir():
        shutil.copytree(Path(tree) / "src" / "mitk", dest / "src" / "mitk",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return dest
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", tree,
                              "src/mitk"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def forget(name: str) -> None:
    """Drop the package `name` and its submodules from `sys.modules`."""
    for key in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[key]


def load_tree(root: Path, name: str):
    """Import `root/src/mitk` as the top-level package `name`, afresh."""
    forget(name)
    package = root / "src" / "mitk"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify(mitk, args) -> tuple:
    """(wall seconds, digest) of one `mitk verify` through `cli.main`."""
    cli = importlib.import_module(mitk.__name__ + ".cli")
    argv = ["--trials", str(args.trials), "--seed", str(args.seed)]
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(["verify", *argv])
        seconds = time.perf_counter() - start
    return seconds, f"exit={code} stdout={_sha(out.getvalue().encode())}"


def train(mitk, args) -> tuple:
    """(wall seconds, digest) of one `train_estimator` run at the benchmark
    configuration; an untrained estimator has no parameters ("-")."""
    estimators = mitk.estimators
    task = mitk.gaussian.task_for_target_mi(20, 2.0)
    settings = estimators.TrainSettings(steps=args.steps, batch_size=128, seed=args.seed,
                                        critic_form=args.form)
    gc.collect()
    start = time.perf_counter()
    trajectory, objective = estimators.train_estimator(args.estimator, task, settings,
                                                       return_components=True)
    seconds = time.perf_counter() - start
    csv = _sha(estimators.trajectory_csv_text(trajectory).encode())
    params = "-" if objective.params is None else _sha(objective.params.tobytes())
    return seconds, f"csv={csv} params={params}"


def value(mitk, args) -> tuple:
    """(wall seconds of VALUE_CALLS values after one untimed call, digest) of
    one objective's value on held-out stream 1 at the benchmark configuration."""
    estimators, gaussian = mitk.estimators, mitk.gaussian
    task = gaussian.task_for_target_mi(20, 2.0)
    settings = estimators.TrainSettings(batch_size=128, seed=args.seed, critic_form=args.form)
    objective = estimators.make_objective(args.estimator, task, settings)
    batch = gaussian.sample(task, 128, args.seed, stream=1, out=objective.samples)
    estimate = objective.value(batch)
    gc.collect()
    start = time.perf_counter()
    for _ in range(VALUE_CALLS):
        objective.value(batch)
    seconds = time.perf_counter() - start
    return seconds, f"value={estimate.hex()}"


# operation: (function, the options its run depends on)
OPERATIONS = {"verify": (verify, ("trials", "seed")),
              "train": (train, ("estimator", "form", "steps", "seed")),
              "value": (value, ("estimator", "form", "seed"))}


def blas_core() -> str:
    """The kernel set OpenBLAS picked for this CPU (`SkylakeX`, `Haswell`, ...),
    asked of the OpenBLAS that numpy's wheel bundles; `unknown` where there is
    none or it does not export the query."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            if hasattr(lib, name):
                query = getattr(lib, name)
                query.argtypes, query.restype = [], ctypes.c_char_p
                return query().decode()
    return "unknown"


def machine() -> str:
    """One line naming what can move a result's bits or its time: cores,
    platform, numpy and its BLAS, OpenBLAS's kernel set, numpy's SIMD set
    (`*` marks a target in use beyond the baseline, `?` one this CPU lacks or
    the environment switched off) and the BLAS thread pins."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{var}={os.environ.get(var, '')}" for var in THREAD_VARS)
    return (f"machine: nproc {os.cpu_count()}, {platform.platform()}, python "
            f"{platform.python_version()}, numpy {np.__version__} ({blas['name']} "
            f"{blas.get('version', '?')}, core {blas_core()}), simd {_opt_info()}, "
            f"{threads}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a leading operation name; a revision so named goes after one: `ab.py verify train`
    name = argv.pop(0) if argv and argv[0] in OPERATIONS else "verify"
    operation, options = OPERATIONS[name]
    parser = argparse.ArgumentParser(prog=f"ab.py {name}",
                                     description=" ".join(__doc__.splitlines()[:2]))
    parser.add_argument("base", help="git revision, or a directory holding src/mitk")
    parser.add_argument("head", nargs="?", default=str(REPO),
                        help="git revision, or a directory holding src/mitk (default: "
                             "this checkout)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trials", type=int, default=100, help="verify: probe trials")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--estimator", default="nwj", help="train, value: the estimator kind",
                        choices=("ba_upper", "ba_lower", "l1out", "dv", "tuba", "nwj", "infonce"))
    parser.add_argument("--form", default="separable", choices=("separable", "joint"),
                        help="train, value: the critic form")
    parser.add_argument("--steps", type=int, default=200, help="train: training steps")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the digests and raw pairs to PATH")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sys.dont_write_bytecode = True
    label = " ".join([name] + [f"--{key} {getattr(args, key)}" for key in options])
    with tempfile.TemporaryDirectory(prefix="mitk-ab-") as tmp:
        sides = [load_tree(export(tree, Path(tmp) / package), package)
                 for tree, package in ((args.base, "mitk_a"), (args.head, "mitk_b"))]
        digests = [operation(side, args)[1] for side in sides]
        for side, tree, digest in zip(("base", "head"), (args.base, args.head), digests):
            print(f"{side} {tree}: {label} {digest}")
        if digests[0] != digests[1]:
            print("digests differ: the change moved bits")
        times = [], []
        for pair in range(args.pairs):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                times[side].append(operation(sides[side], args)[0])
        forget("mitk_a")
        forget("mitk_b")
    ratios = [head / base for base, head in zip(*times)]
    low, _, high = statistics.quantiles(ratios, n=4, method="inclusive")
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"{label}: head/base median {statistics.median(ratios):.3f} "
          f"(quartiles {low:.3f}-{high:.3f}), head faster in {wins}/{args.pairs} pairs; "
          f"median s base {statistics.median(times[0]):.4f}, "
          f"head {statistics.median(times[1]):.4f}")
    host = machine()
    print(host)
    if args.json is not None:
        args.json.write_text(json.dumps({
            "label": label, "base": args.base, "head": args.head,
            "digests": {"base": digests[0], "head": digests[1]},
            "seconds": {"base": times[0], "head": times[1]}, "ratios": ratios,
            "machine": host}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
