"""scripts/ab.py: two trees in one process, and its report line."""

import importlib
import importlib.util
import inspect
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from mitk.estimators import TrainSettings, make_objective
from mitk.gaussian import sample, task_for_target_mi

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab():
    spec = importlib.util.spec_from_file_location("ab_script", REPO / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    module.forget("mitk_a")
    module.forget("mitk_b")


def test_a_tree_loaded_twice_shares_no_object(ab, tmp_path):
    a, b = (ab.load_tree(ab.export(str(REPO), tmp_path / name), name)
            for name in ("mitk_a", "mitk_b"))
    for name in ("mitk_a", "mitk_b"):
        importlib.import_module(name + ".cli")  # as ab.py times it
    # each side's modules, keyed by their name inside the package ("" for the package)
    modules = {side: {key.partition(".")[2]: module for key, module in sys.modules.items()
                      if key.split(".")[0] == side} for side in ("mitk_a", "mitk_b")}
    assert set(modules["mitk_a"]) == set(modules["mitk_b"]) >= {"", "discrete", "cli"}
    checked = 0
    for key, module_a in modules["mitk_a"].items():
        module_b = modules["mitk_b"][key]
        assert module_a is not module_b
        own = [name for name, value in vars(module_a).items()
               if (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__.split(".")[0] == "mitk_a"]
        for name in own:
            assert getattr(module_a, name) is not getattr(module_b, name), (key, name)
        checked += len(own)
    assert checked > 100, checked
    # each tree binds its own copies across its modules
    assert a.variational.kl_divergence is a.discrete.kl_divergence
    assert b.variational.kl_divergence is not a.discrete.kl_divergence


def test_two_pairs_print_the_report_line(ab, capsys):
    assert ab.main([str(REPO), str(REPO), "--pairs", "2", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    digests = [line.split(": ", 1)[1] for line in lines[:2]]
    assert digests[0] == digests[1] and "exit=0 stdout=" in digests[0]
    assert re.fullmatch(r"verify --trials 1 --seed 0: head/base median \d+\.\d{3} "
                        r"\(quartiles \d+\.\d{3}-\d+\.\d{3}\), head faster in [0-2]/2 pairs; "
                        r"median s base \d+\.\d{4}, head \d+\.\d{4}", lines[2])
    assert lines[3].startswith("machine: nproc ")
    assert "mitk_a" not in sys.modules and "mitk_b" not in sys.modules


def test_train_pairs_print_digests_and_the_report_line(ab, capsys):
    assert ab.main(["train", str(REPO), str(REPO), "--pairs", "2", "--steps", "2",
                    "--estimator", "tuba"]) == 0
    lines = capsys.readouterr().out.splitlines()
    label = "train --estimator tuba --form separable --steps 2 --seed 0"
    digests = [line.split(f": {label} ", 1)[1] for line in lines[:2]]
    assert digests[0] == digests[1]
    assert re.fullmatch(r"csv=[0-9a-f]{64} params=[0-9a-f]{64}", digests[0])
    assert re.fullmatch(re.escape(label) + r": head/base median \d+\.\d{3} "
                        r"\(quartiles \d+\.\d{3}-\d+\.\d{3}\), head faster in [0-2]/2 pairs; "
                        r"median s base \d+\.\d{4}, head \d+\.\d{4}", lines[2])
    assert lines[3].startswith("machine: nproc ")


def test_value_pairs_print_digests_the_report_line_and_the_raw_pairs(ab, capsys, tmp_path):
    path = tmp_path / "pairs.json"
    assert ab.main(["value", str(REPO), str(REPO), "--pairs", "2", "--estimator", "l1out",
                    "--json", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    label = "value --estimator l1out --form separable --seed 0"
    digests = [line.split(f": {label} ", 1)[1] for line in lines[:2]]
    # the benchmark configuration's held-out batch, stream 1
    task = task_for_target_mi(20, 2.0)
    objective = make_objective("l1out", task, TrainSettings(batch_size=128))
    want = objective.value(sample(task, 128, 0, stream=1, out=objective.samples))
    assert digests == [f"value={want.hex()}"] * 2
    assert re.fullmatch(re.escape(label) + r": head/base median \d+\.\d{3} "
                        r"\(quartiles \d+\.\d{3}-\d+\.\d{3}\), head faster in [0-2]/2 pairs; "
                        r"median s base \d+\.\d{4}, head \d+\.\d{4}", lines[2])
    record = json.loads(path.read_text())
    assert record["label"] == label and record["machine"] == lines[3]
    assert record["digests"] == {"base": digests[0], "head": digests[1]}
    seconds = record["seconds"]
    assert len(seconds["base"]) == len(seconds["head"]) == 2
    assert record["ratios"] == [head / base for base, head in zip(seconds["base"],
                                                                  seconds["head"])]


def test_a_moved_bit_is_reported_not_an_error(ab, capsys, tmp_path):
    # a tree whose sampling draws one more noise stream moves every trajectory bit
    changed = ab.export(str(REPO), tmp_path / "changed")
    gaussian = changed / "src" / "mitk" / "gaussian.py"
    source = gaussian.read_text()
    assert source.count("2 * stream + 1, ys)") == 1
    gaussian.write_text(source.replace("2 * stream + 1, ys)", "2 * stream + 2, ys)"))
    assert ab.main(["train", str(REPO), str(changed), "--pairs", "2", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(": ", 1)[1] != lines[1].split(": ", 1)[1]
    assert lines[2] == "digests differ: the change moved bits"


def test_machine_line_names_the_simd_set_and_the_blas_core(ab):
    line = ab.machine()
    core = ab.blas_core()
    assert f", core {core}), simd {np.lib._utils_impl._opt_info()}, " in line, line
    # a wheel's bundled OpenBLAS answers the core query
    bundled = any((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    assert (core != "unknown") == bundled, core
