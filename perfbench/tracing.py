"""Span tracing of mitk's public functions, installed from outside the package.

`Tracer` replaces each function named in `TRACED` by a timing wrapper in
every loaded `mitk` module that binds it (a `from .x import name` copies
the binding into the importing module, so each copy is replaced), and puts
the originals back on exit. A span records its thread, its parent span and
the run id of the benchmark operation it belongs to. A span that opens in a
pool thread with nothing open in that thread is parented to the operation's
outermost open span, so the sweep's worker threads hang under `cli.main`
instead of mixing with one another.

`summarize` turns the spans into the per-layer metrics: call counts, self
time (a span's duration minus the part of it its children cover), each
layer's share of the traced wall time, and the critic's row and flop counts
per training step.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

TRAIN = ("train-separable", "train-joint", "sweep")

# (layer, defining module, function, workloads on which the function must fire)
TRACED = (
    ("gaussian", "gaussian", "sample", TRAIN),
    ("gaussian", "gaussian", "cond_log_density", ("sweep",)),
    ("gaussian", "gaussian", "marginal_log_density", ("sweep",)),
    ("critic", "critic", "mlp_forward", TRAIN),
    ("critic", "critic", "mlp_backward", TRAIN),
    ("critic", "critic", "score_matrix_with_cache", TRAIN),
    ("critic", "critic", "backward_from_cache", TRAIN),
    ("critic", "critic", "log_baseline", ("train-separable", "sweep")),
    ("critic", "critic", "baseline_backward", ("train-separable", "sweep")),
    ("critic", "critic", "adam_step", TRAIN),
    ("critic", "critic", "with_param_arrays", TRAIN),
    ("estimators", "estimators", "train_estimator", TRAIN),
    ("estimators", "estimators", "tuba_from_scores", TRAIN),
    ("estimators", "estimators", "dv_from_scores", ("train-separable", "sweep")),
    ("estimators", "estimators", "infonce_from_scores", TRAIN),
    ("estimators", "estimators", "est_ba_upper", ("sweep",)),
    ("estimators", "estimators", "est_l1out", ("sweep",)),
    ("estimators", "estimators", "est_ba_lower", ("train-separable", "sweep")),
    ("discrete", "discrete", "random_pmf", ("verify",)),
    ("discrete", "discrete", "random_cond", ("verify",)),
    ("discrete", "discrete", "random_joint2", ("verify",)),
    ("discrete", "discrete", "random_joint3", ("verify",)),
    ("discrete", "discrete", "joint_from_factors", ("verify",)),
    ("discrete", "discrete", "mutual_information", ("verify",)),
    ("discrete", "discrete", "conditional_mutual_information", ("verify",)),
    ("discrete", "discrete", "kl_divergence", ("verify",)),
    ("discrete", "discrete", "entropy", ("verify",)),
    ("variational", "variational", "run_probe_suite", ("verify",)),
    ("variational", "variational", "gyp_supremum", ("verify",)),
    ("variational", "variational", "gyp_mi_supremum", ("verify",)),
    ("variational", "variational", "dv_value", ("verify",)),
    ("variational", "variational", "dv_supremum", ("verify",)),
    ("variational", "variational", "random_markov_chain", ("verify",)),
    ("variational", "variational", "markov_joint", ("verify",)),
    ("variational", "variational", "golden_decomposition", ("verify",)),
    ("variational", "variational", "product_distance_minimize", ("verify",)),
    ("cli", "cli", "main", ("verify", "sweep")),
    # defined in estimators; it is the cli's file output, so it counts there
    ("cli", "estimators", "trajectory_csv_text", TRAIN),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TRACED))
LABELS = tuple(f"{layer}.{fn}" for layer, _, fn, _ in TRACED)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _weight_cells(mlp) -> int:
    return sum(w.size for w in mlp.weights)


def _forward_extra(args, kwargs):
    mlp, x = _arg(args, kwargs, 0, "mlp"), _arg(args, kwargs, 1, "x")
    rows = x.shape[0]
    return rows, 2 * rows * _weight_cells(mlp)


def _backward_extra(args, kwargs):
    mlp, dout = _arg(args, kwargs, 0, "mlp"), _arg(args, kwargs, 2, "dout")
    rows = dout.shape[0]
    # weight gradient for every layer, input gradient for all but the first
    return 0, 2 * rows * (2 * _weight_cells(mlp) - mlp.weights[0].size)


def _sample_extra(args, kwargs):
    return _arg(args, kwargs, 3, "stream", 0)


EXTRAS = {
    "critic.mlp_forward": _forward_extra,
    "critic.mlp_backward": _backward_extra,
    "gaussian.sample": _sample_extra,
}

# span tuple fields
SID, PARENT, TID, RUN, LABEL, T0, T1, EXTRA = range(8)


class Tracer:
    """Context manager: wraps every name in `TRACED` on entry, restores on exit.

    Set `run_id` before each benchmark operation; call `begin_op` from the
    thread that runs it.
    """

    def __init__(self):
        self.spans = []
        self.warnings = []
        self.run_id = None
        self._restore = []
        self._local = threading.local()
        self._next_id = itertools.count(1).__next__
        self._op_thread = None
        self._root = None

    def begin_op(self, run_id) -> None:
        self.run_id = run_id
        self._op_thread = threading.get_ident()

    def __enter__(self):
        for layer, module_name, fn_name, _ in TRACED:
            label = f"{layer}.{fn_name}"
            module = importlib.import_module(f"mitk.{module_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.warnings.append(f"{label}: missing from mitk.{module_name}")
                continue
            wrapper = self._wrap(label, original, EXTRAS.get(label))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "mitk" or name.startswith("mitk.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)
        return False

    def _wrap(self, label, fn, extra):
        local = self._local
        spans = self.spans
        next_id = self._next_id
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next_id()
            tid = get_ident()
            if stack:
                parent = stack[-1]
            elif tid == self._op_thread:
                parent = None
                self._root = sid
            else:
                parent = self._root
            info = extra(args, kwargs) if extra is not None else None
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if self._root == sid:
                    self._root = None
                spans.append((sid, parent, tid, self.run_id, label, t0, t1, info))

        return traced


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[T0], span[T1]))
    return {
        span[SID]: span[T1] - span[T0] - _covered(children.get(span[SID], ()), span[T0], span[T1])
        for span in spans
    }


def training_rows_and_flops(spans):
    """(training steps, critic rows, critic flops) summed over training steps.

    Training batches come from even Philox streams and evaluation batches
    from odd ones (the trajectory byte-identity contract fixes that layout),
    so each critic call is charged to the latest batch its thread sampled.
    """
    by_thread = defaultdict(list)
    for span in spans:
        if span[LABEL] in EXTRAS:
            by_thread[span[TID]].append(span)
    steps = rows = flops = 0
    for thread_spans in by_thread.values():
        training = False
        for span in sorted(thread_spans, key=lambda s: s[T0]):
            if span[LABEL] == "gaussian.sample":
                training = span[EXTRA] > 0 and span[EXTRA] % 2 == 0
                steps += training
            elif training:
                rows += span[EXTRA][0]
                flops += span[EXTRA][1]
    return steps, rows, flops


def summarize(spans, traced_wall: float, workers: int) -> dict:
    """Per-layer metrics as {name: (value, unit)} from one traced pass."""
    own = self_times(spans)
    calls = dict.fromkeys(LABELS, 0)
    self_s = dict.fromkeys(LABELS, 0.0)
    span_s = dict.fromkeys(LABELS, 0.0)
    for span in spans:
        label = span[LABEL]
        calls[label] += 1
        self_s[label] += own[span[SID]]
        span_s[label] += span[T1] - span[T0]
    metrics = {}
    for label in LABELS:
        metrics[f"{label}.calls"] = (calls[label], "count")
        metrics[f"{label}.self_s"] = (self_s[label], "s")
    layer_self = defaultdict(float)
    for label in LABELS:
        layer_self[label.split(".", 1)[0]] += self_s[label]
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = (layer_self[layer] / traced_wall, "frac")

    steps, rows, flops = training_rows_and_flops(spans)
    all_flops = sum(s[EXTRA][1] for s in spans if s[LABEL].startswith("critic.mlp_"))
    metrics["critic.rows_per_step"] = (rows / steps if steps else 0.0, "rows")
    metrics["critic.flops_per_step"] = (flops / steps if steps else 0.0, "flop-computed")
    critic_s = layer_self["critic"]
    metrics["critic.gflops"] = (all_flops / critic_s / 1e9 if critic_s else 0.0, "GFLOP/s")
    main_s = span_s["cli.main"]
    busy = span_s["estimators.train_estimator"] / (main_s * workers) if main_s else 0.0
    metrics["cli.pool_busy_frac"] = (busy, "frac")
    return metrics


def silent_labels(spans, workload: str) -> list:
    """Traced functions the table expects on `workload` that never fired."""
    fired = {span[LABEL] for span in spans}
    return [
        f"{layer}.{fn}" for layer, _, fn, expected in TRACED
        if workload in expected and f"{layer}.{fn}" not in fired
    ]
