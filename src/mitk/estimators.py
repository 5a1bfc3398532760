"""Variational mutual-information estimators over paired sample batches.

Two tractable-density bounds (the auxiliary-marginal upper bound and the
leave-one-out upper bound), the decoder-based lower bound, and four
critic-based lower bounds (DV, TUBA, NWJ, InfoNCE). Each estimator comes
as a batch-level value plus the exact gradient of that value with respect
to its trainable components, so a single Adam loop trains any of them.

Log-partition terms always go through max-shifted log-sum-exp; at the
default scales the raw scores can reach +-30, where naive exponentials
would already be meaningless.

Training runs through one `Objective` per estimator kind (`make_objective`),
which owns the buffers of one run: the flat parameter and gradient
vectors, Adam's state, every network's forward arrays, and for the critic
bounds one n x n workspace, all allocated when it is built. Nothing is
kept at module level, so concurrent runs share no state. Each critic
bound is written once, as a value kernel and an upstream (score-gradient)
kernel (`_dv`, `_tangent` for TUBA and NWJ, `_infonce`); an objective
runs them in its workspace, the `*_from_scores` and `est_*` functions in
a fresh one. `_OBJECTIVES` alone binds a kind to its objective and, for
a critic bound, to its kernels and whether it learns a baseline (TUBA).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import critic as nets
from .gaussian import (
    SEED_LIMIT,
    GaussianTask,
    SampleBatch,
    cond_log_density,
    marginal_entropy,
    marginal_log_density,
    sample,
    true_mi,
)

__all__ = [
    "EstimatorKind",
    "TrainSettings",
    "EstimateTrajectory",
    "TrainingDiverged",
    "DecoderParams",
    "init_decoder",
    "est_ba_upper",
    "est_ba_lower",
    "est_l1out",
    "est_dv",
    "est_tuba",
    "est_nwj",
    "est_infonce",
    "Objective",
    "make_objective",
    "dv_from_scores",
    "tuba_from_scores",
    "nwj_from_scores",
    "infonce_from_scores",
    "train_estimator",
    "trajectory_csv_text",
    "trajectory_filename",
]


class EstimatorKind(Enum):
    """The estimator ladder; `is_upper` gives each bound's direction."""

    BA_UPPER_R = "ba_upper"
    BA_LOWER = "ba_lower"
    L1OUT = "l1out"
    DV = "dv"
    TUBA = "tuba"
    NWJ = "nwj"
    INFONCE = "infonce"

    @property
    def is_upper(self) -> bool:
        return self in (EstimatorKind.BA_UPPER_R, EstimatorKind.L1OUT)


# ---------------------------------------------------------------------------
# Score-matrix reductions
# ---------------------------------------------------------------------------


def _lse(src: np.ndarray, work: np.ndarray, axis=None):
    """Max-shifted ln sum exp of `src` along `axis`, with e^(src - max) formed
    in `work` (which may be `src`); tolerates -inf entries (masked-out cells)."""
    peak = src.max(axis=axis, keepdims=True)
    np.subtract(src, peak, out=work)
    np.exp(work, out=work)
    return np.log(work.sum(axis=axis)) + np.squeeze(peak, axis=axis)


def _offdiag_lse(src: np.ndarray, work: np.ndarray, axis=None):
    """`_lse` of `src` with its diagonal left out, the masked copy in `work`."""
    np.copyto(work, src)
    np.fill_diagonal(work, -np.inf)
    return _lse(work, work, axis)


def _dv(scores, work):
    """Diagonal mean minus ln of the global off-diagonal mean of e^(s);
    the state is the off-diagonal log-sum-exp."""
    n = scores.shape[0]
    lse = float(_offdiag_lse(scores, work))
    return float(scores.diagonal().mean() - (lse - math.log(n * (n - 1)))), lse


def _dv_upstream(scores, work, lse):
    """1/n on the diagonal, -e^(s_ij - lse) off it."""
    with np.errstate(over="ignore"):  # only the diagonal, overwritten below, can overflow
        np.subtract(scores, lse, out=work)
        np.exp(work, out=work)
    np.negative(work, out=work)
    np.fill_diagonal(work, 1.0 / scores.shape[0])
    return work


def _tangent(scores, work, log_a=1.0):
    """Diagonal mean minus the tangent-bounded log partition.

    The partition estimate for each y_j is the off-diagonal column mean of
    e^(s); the baseline enters through the inequality
    ln z <= z/a + ln a - 1, tight at z = a. TUBA learns log a(y); NWJ pins
    it at 1. The state is the ratio z_j / a_j.
    """
    n = scores.shape[0]
    col_lme = _offdiag_lse(scores, work, axis=0) - math.log(n - 1)
    with np.errstate(over="ignore"):  # overflow -> inf, caught by divergence checks
        ratio = np.exp(col_lme - log_a)
        penalty = ratio + log_a - 1.0
    return float(scores.diagonal().mean() - penalty.mean()), ratio


def _tangent_upstream(scores, work, ratio, log_a=1.0):
    """1/n on the diagonal, -e^(s_ij - log a_j) / (n (n - 1)) off it."""
    n = scores.shape[0]
    with np.errstate(over="ignore"):
        np.subtract(scores, log_a, out=work)
        np.exp(work, out=work)
    np.divide(work, -(n * (n - 1)), out=work)
    np.fill_diagonal(work, 1.0 / n)
    return work


def _infonce(scores, work):
    """Mean over rows of s_ii - ln((1/K) sum_j e^(s_ij)), capped at ln K;
    the state is the row log-sum-exps."""
    n = scores.shape[0]
    row_lse = _lse(scores, work, axis=1)
    return float((scores.diagonal() - row_lse + math.log(n)).mean()), row_lse


def _infonce_upstream(scores, work, row_lse):
    """(I - row softmax) / n."""
    n = scores.shape[0]
    np.subtract(scores, row_lse[:, None], out=work)
    np.exp(work, out=work)
    diagonal = (1.0 - work.diagonal()) / n
    np.divide(work, -n, out=work)
    np.fill_diagonal(work, diagonal)
    return work


def _workspace_for(scores: np.ndarray, log_a: np.ndarray = None) -> np.ndarray:
    """A fresh workspace for a public score table, after checking that the
    table is n x n with n >= 2 and that `log_a`, if given, has shape (n,)."""
    shape = np.shape(scores)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
        raise ValueError(f"a score table must be n x n with n >= 2, got shape {shape}")
    if log_a is not None and np.shape(log_a) != shape[:1]:
        raise ValueError(f"log_a must have shape {shape[:1]} for a score table of shape "
                         f"{shape}, got shape {np.shape(log_a)}")
    return np.empty(shape)


def tuba_from_scores(scores: np.ndarray, log_a: np.ndarray) -> float:
    """The tangent bound with a learned log-baseline log a(y_j) per column."""
    return _tangent(scores, _workspace_for(scores, log_a), log_a)[0]


def nwj_from_scores(scores: np.ndarray) -> float:
    """The tangent bound with the baseline pinned at a = e (log a = 1)."""
    return _tangent(scores, _workspace_for(scores))[0]


def dv_from_scores(scores: np.ndarray) -> float:
    """Diagonal mean minus ln of the global off-diagonal mean of e^(s)."""
    return _dv(scores, _workspace_for(scores))[0]


def infonce_from_scores(scores: np.ndarray) -> float:
    """Mean over rows of s_ii - ln((1/K) sum_j e^(s_ij)); capped at ln K."""
    return _infonce(scores, _workspace_for(scores))[0]


# ---------------------------------------------------------------------------
# Batch-level estimators
# ---------------------------------------------------------------------------


def est_ba_upper(batch: SampleBatch, cond_ld, marginal_ld) -> float:
    """Mean log ratio of the conditional to the auxiliary marginal.

    With the true marginal this is an unbiased estimate of the exact
    information; any other auxiliary inflates it by a divergence, so in
    expectation it never falls below the truth.
    """
    return float(np.mean(cond_ld(batch.ys, batch.xs) - marginal_ld(batch.ys)))


def est_ba_lower(batch: SampleBatch, decoder: "DecoderParams", entropy_hx: float) -> float:
    """Mean decoder log-likelihood of x given y, plus the known marginal entropy."""
    mean, _ = nets.mlp_forward(decoder.net, batch.ys)
    return _decoder_bound(batch, mean, decoder.log_var, entropy_hx)[0]


def est_l1out(batch: SampleBatch, cond_ld) -> float:
    """Leave-one-out upper bound: each sample's own conditional is dropped
    from the Monte-Carlo marginal in the denominator."""
    n = batch.n
    if n < 2:
        raise ValueError("leave-one-out needs at least two samples")
    table = cond_ld(batch.ys[:, None, :], batch.xs[None, :, :])
    denom = _offdiag_lse(table, np.empty_like(table), axis=1) - math.log(n - 1)
    return float((table.diagonal() - denom).mean())


def est_dv(batch: SampleBatch, critic: nets.CriticParams) -> float:
    return dv_from_scores(nets.score_matrix(critic, batch))


def est_tuba(batch: SampleBatch, critic: nets.CriticParams,
             baseline: nets.Mlp) -> float:
    scores = nets.score_matrix(critic, batch)
    return tuba_from_scores(scores, nets.log_baseline(baseline, batch.ys))


def est_nwj(batch: SampleBatch, critic: nets.CriticParams) -> float:
    return nwj_from_scores(nets.score_matrix(critic, batch))


def est_infonce(batch: SampleBatch, critic: nets.CriticParams) -> float:
    return infonce_from_scores(nets.score_matrix(critic, batch))


# ---------------------------------------------------------------------------
# Gaussian decoder for the normalized lower bound
# ---------------------------------------------------------------------------


@dataclass
class DecoderParams:
    """Network predicting the mean of a diagonal Gaussian over the decoded
    variable, with a free per-coordinate log-variance."""

    net: nets.Mlp
    log_var: np.ndarray


def init_decoder(dim: int, hidden, seed: int) -> DecoderParams:
    rng = np.random.default_rng([seed, 2])
    return DecoderParams(nets.init_mlp((dim, *tuple(hidden), dim), rng), np.zeros(dim))


def _decoder_bound(batch, mean, log_var, entropy_hx):
    """The decoder bound of a batch, given the decoder's means for it:
    (bound, residuals x - mean, inverse variances)."""
    resid = batch.xs - mean
    with np.errstate(over="ignore"):  # overflow -> inf, caught by divergence checks
        inv_var = np.exp(-log_var)
    ll = -0.5 * ((resid * resid) * inv_var + log_var + math.log(2.0 * math.pi)).sum(axis=1)
    return float(ll.mean() + entropy_hx), resid, inv_var


# ---------------------------------------------------------------------------
# Objectives: one per estimator kind, owning the buffers of one run
# ---------------------------------------------------------------------------


def _reserve(n: int, shape: tuple, what: str) -> np.ndarray:
    """np.empty(shape), left untouched, for a run at batch size n; an array
    too large to allocate is a MemoryError that names n."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError):  # ValueError: more bytes than an index counts
        raise MemoryError(f"batch_size {n} needs a {8 * math.prod(shape)}-byte {what} "
                          f"of shape {shape}") from None


class Objective:
    """One estimator's batch value and, for the trained kinds, its gradient.

    An objective is built once per training run and owns that run's
    buffers; nothing is shared between runs or kept at module level. The
    trained parameters live in one flat float64 vector `params`, and the
    components (`critic`, `baseline`, `decoder`) are built once over views
    of it, so an in-place update of `params` is seen by them without any
    rebuild. `value_and_grad` returns the batch value and, when it is
    finite, writes the gradient of the value (the ascent direction) into
    the flat vector `grad`, which has the layout of `params`; `adam` is
    the Adam state (`critic.AdamState`) that updates `params`. The
    untrained kinds have `params = grad = adam = None` and only a `value`,
    which binds the task's densities through this module's names when it
    runs, so a wrapper put on those names sees every call.

    Building an objective allocates, untouched, every array whose size
    grows with the batch size n or the parameter count, so a run too large
    to hold fails before it writes anything. The (n, dim) batch and l1out's
    (n, n, dim) density table are only checked. A critic bound keeps its n x n
    workspace, where the value's reductions and then the gradient with
    respect to the scores are formed. Every network keeps its forward
    arrays (`critic._empty_cache`: the score table, or the joint critic's
    n^2-row layers, and each network's layers), written over by each step.
    """

    params = grad = adam = None
    critic = baseline = decoder = None

    def __init__(self, task: GaussianTask, settings: "TrainSettings"):
        self.task = task
        n = settings.batch_size
        _reserve(n, (n, task.dim), "batch")

    def value(self, batch: SampleBatch) -> float:
        raise NotImplementedError

    def value_and_grad(self, batch: SampleBatch) -> float:
        raise NotImplementedError(f"{type(self).__name__} has nothing to train")

    def _own(self, arrays: list, settings: "TrainSettings"):
        """Copy `arrays` into `params`, with `grad` and `adam` to match;
        returns (parameter views, gradient views)."""
        self.params, views = nets.flat_buffer(arrays)
        self.grad = np.zeros_like(self.params)
        self.adam = nets.init_adam(self.params, lr=settings.lr, beta1=settings.beta1,
                                   beta2=settings.beta2, eps=settings.eps)
        return views, nets.buffer_views(self.grad, arrays)


class _BaUpper(Objective):
    def value(self, batch):
        return est_ba_upper(batch, partial(cond_log_density, self.task),
                            partial(marginal_log_density, self.task))


class _L1Out(Objective):
    def __init__(self, task: GaussianTask, settings: "TrainSettings"):
        super().__init__(task, settings)
        n = settings.batch_size
        _reserve(n, (n, n, task.dim), "(n, n, dim) density table")

    def value(self, batch):
        return est_l1out(batch, partial(cond_log_density, self.task))


class _BaLower(Objective):
    """Decoder bound; the network and the log-variance share one buffer."""

    def __init__(self, task: GaussianTask, settings: "TrainSettings"):
        super().__init__(task, settings)
        decoder = init_decoder(task.dim, settings.hidden, settings.seed)
        self.h_x = marginal_entropy(task)
        views, self.grads = self._own(nets.param_arrays(decoder.net) + [decoder.log_var], settings)
        self.decoder = DecoderParams(nets.with_param_arrays(decoder.net, views[:-1]), views[-1])
        n = settings.batch_size
        self.cache = nets._empty_cache(decoder.net, n, partial(_reserve, n, what="decoder array"))

    def value(self, batch):
        return est_ba_lower(batch, self.decoder, self.h_x)

    def value_and_grad(self, batch):
        decoder, n = self.decoder, batch.n
        mean, self.cache = nets.mlp_forward(decoder.net, batch.ys, out=self.cache)
        value, resid, inv_var = _decoder_bound(batch, mean, decoder.log_var, self.h_x)
        if math.isfinite(value):
            nets.mlp_backward(decoder.net, self.cache, resid * inv_var / n, out=self.grads[:-1])
            np.divide(0.5 * ((resid * resid) * inv_var - 1.0).sum(axis=0), n,
                      out=self.grads[-1])
        return value


class _CriticBound(Objective):
    """A bound on a critic's n x n score table.

    `kernels = (value, upstream)` is the bound's pair of kernels, bound by
    its row of `_OBJECTIVES`. `from_scores` runs the value kernel in the
    workspace and keeps its state; the upstream kernel turns that state
    into the value's gradient with respect to the scores, written into the
    workspace. With `baseline`, a log-baseline network shares the flat
    buffer, after the critic, and its log a(y_j) is the kernels' one
    argument beyond the table (TUBA).
    """

    def __init__(self, task: GaussianTask, settings: "TrainSettings", kernels: tuple,
                 baseline: bool = False):
        super().__init__(task, settings)
        self.kernels = kernels
        arch = nets.CriticArch(task.dim, task.dim, form=settings.critic_form,
                               hidden=settings.hidden, embed=settings.embed)
        critic = nets.init_critic(arch, settings.seed)
        arrays = nets.param_arrays(critic)
        k = len(arrays)
        if baseline:
            net_a = nets.init_baseline(task.dim, settings.hidden, settings.seed)
            arrays = arrays + nets.param_arrays(net_a)
        views, grads = self._own(arrays, settings)
        self.critic = nets.with_param_arrays(critic, views[:k])
        self.critic_grads = grads[:k]
        n = settings.batch_size
        empty = partial(_reserve, n, what="critic array")
        self.work = _reserve(n, (n, n), "n x n workspace")
        self.cache = nets._empty_cache(critic, n, empty)
        if baseline:
            self.baseline = nets.with_param_arrays(net_a, views[k:])
            self.baseline_grads = grads[k:]
            self.baseline_cache = nets._empty_cache(net_a, n, empty)

    def _forward(self, batch):
        """(value, score table, the kernels' arguments beyond the table)."""
        scores, self.cache = nets.score_matrix_with_cache(self.critic, batch, cache=self.cache)
        args = ()
        if self.baseline is not None:
            log_a, self.baseline_cache = nets.mlp_forward(self.baseline, batch.ys,
                                                          out=self.baseline_cache)
            args = (log_a[:, 0],)
        return self.from_scores(scores, *args), scores, args

    def from_scores(self, scores: np.ndarray, *args) -> float:
        value, self.state = self.kernels[0](scores, self.work, *args)
        return value

    def value(self, batch):
        return self._forward(batch)[0]

    def value_and_grad(self, batch):
        value, scores, args = self._forward(batch)
        if math.isfinite(value):
            upstream = self.kernels[1](scores, self.work, self.state, *args)
            nets.backward_from_cache(self.critic, self.cache, upstream, out=self.critic_grads)
            if self.baseline is not None:
                # the state is the ratio z_j / a_j, and d value / d log a_j = (ratio_j - 1) / n
                nets.mlp_backward(self.baseline, self.baseline_cache,
                                  ((self.state - 1.0) / batch.n)[:, None],
                                  out=self.baseline_grads)
        return value


_OBJECTIVES = {
    EstimatorKind.BA_UPPER_R: _BaUpper,
    EstimatorKind.L1OUT: _L1Out,
    EstimatorKind.BA_LOWER: _BaLower,
    EstimatorKind.DV: partial(_CriticBound, kernels=(_dv, _dv_upstream)),
    EstimatorKind.TUBA: partial(_CriticBound, kernels=(_tangent, _tangent_upstream),
                                baseline=True),
    EstimatorKind.NWJ: partial(_CriticBound, kernels=(_tangent, _tangent_upstream)),
    EstimatorKind.INFONCE: partial(_CriticBound, kernels=(_infonce, _infonce_upstream)),
}


def make_objective(kind, task: GaussianTask, settings: "TrainSettings") -> Objective:
    """The objective of one estimator kind, with fresh parameters (initialized
    from `settings.seed`) and buffers sized for batches of `settings.batch_size`."""
    return _OBJECTIVES[EstimatorKind(kind)](task, settings)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSettings:
    """Optimizer and architecture knobs shared by every estimator; the one home
    of the training defaults, the critic's shape defaults being `CriticArch`'s."""

    steps: int = 20000
    batch_size: int = 128
    seed: int = 0
    eval_every: int = 100
    smoothing: float = 0.9
    critic_form: str = nets.CriticArch.form
    hidden: tuple = nets.CriticArch.hidden
    embed: int = nets.CriticArch.embed
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        # comparisons with NaN are false, so a NaN fails every rule
        for name, ok, rule in (
            ("steps", self.steps >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("seed", self.seed < SEED_LIMIT, "< 2**64"),
            ("batch_size", self.batch_size >= 2, ">= 2"),
            ("eval_every", self.eval_every >= 1, ">= 1"),
            ("smoothing", 0.0 <= self.smoothing <= 1.0, "in [0, 1]"),
            ("lr", 0.0 < self.lr < math.inf, "finite and > 0"),
            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
            ("eps", 0.0 < self.eps < math.inf, "finite and > 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        # the critic's shape is checked here for every estimator, trained or not
        arch = nets.CriticArch(1, 1, form=self.critic_form, hidden=self.hidden, embed=self.embed)
        object.__setattr__(self, "hidden", arch.hidden)


@dataclass
class EstimateTrajectory:
    """Per-evaluation estimates of one run, with full provenance."""

    estimator: str
    records: list  # (step, estimate, smoothed)
    true_mi: float
    seed: int
    config: dict

    def __post_init__(self):
        if not self.records:
            raise ValueError("a trajectory needs at least one record")
        steps = [r[0] for r in self.records]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("record steps must be strictly increasing")
        if not all(math.isfinite(r[1]) and math.isfinite(r[2]) for r in self.records):
            raise ValueError("trajectory estimates must be finite")

    @property
    def untrained_estimate(self) -> float:
        return self.records[0][1]

    @property
    def final_smoothed(self) -> float:
        return self.records[-1][2]


class TrainingDiverged(RuntimeError):
    """Raised when a training objective or a held-out estimate goes non-finite;
    the message names which of the two (`what`) and the value it read."""

    def __init__(self, step: int, config: dict, what: str, value: float):
        super().__init__(f"non-finite {what} {value} at step {step}; config={config}")
        self.step = step
        self.config = config


def _run_config(kind: EstimatorKind, task: GaussianTask, settings: TrainSettings) -> dict:
    config = {"estimator": kind.value, "dim": task.dim, "rho": task.rho,
              "true_mi": true_mi(task)}
    config.update(asdict(settings))
    return config


def train_estimator(kind, task: GaussianTask, settings: TrainSettings,
                    return_components: bool = False):
    """Optimize one estimator on a task; returns the evaluation trajectory.

    Lower bounds are ascended, the tractable upper bounds have nothing to
    train and are simply evaluated on the same schedule. Training and
    evaluation use disjoint Philox streams, so a trajectory is
    bit-reproducible from (config, seed) alone. Nothing trained is
    persisted: pass `return_components=True` to get `(trajectory,
    objective)`, whose `value(batch)` evaluates the trained estimator and
    whose `critic`, `baseline` and `decoder` are its trained components,
    or simply retrain from the seed. A non-finite training objective or
    held-out estimate raises `TrainingDiverged` at the step it occurs.

    This is only the schedule: the run's `Objective` owns its state, Adam's
    included, allocated when it is built. After t steps the k-th held-out
    batch (stream 2k + 1) is evaluated if t is a multiple of `eval_every`,
    then training step t (stream 2t + 2) writes the gradient into the
    objective's flat buffer and updates its parameters and Adam moments in
    place; no step allocates an array larger than a batch of hidden
    activations.
    """
    kind = EstimatorKind(kind)
    config = _run_config(kind, task, settings)
    bs = settings.batch_size
    seed = settings.seed
    objective = make_objective(kind, task, settings)

    records = []
    smoothed = None
    for t in range(settings.steps + 1):
        if t % settings.eval_every == 0:
            # not bound to a name: a held-out batch kept until the next one pins freed memory
            value = objective.value(sample(task, bs, seed, stream=2 * len(records) + 1))
            if not math.isfinite(value):
                raise TrainingDiverged(t, config, "held-out estimate", value)
            smoothed = value if smoothed is None else (
                settings.smoothing * smoothed + (1.0 - settings.smoothing) * value
            )
            records.append((t, value, smoothed))
        if t < settings.steps and objective.adam is not None:
            batch = sample(task, bs, seed, stream=2 * t + 2)
            value = objective.value_and_grad(batch)
            if not math.isfinite(value):
                raise TrainingDiverged(t, config, "objective", value)
            # Adam descends, the bounds are maximized
            np.negative(objective.grad, out=objective.grad)
            nets.adam_update(objective.adam, objective.params, objective.grad)

    trajectory = EstimateTrajectory(
        estimator=kind.value,
        records=records,
        true_mi=true_mi(task),
        seed=seed,
        config=config,
    )
    if return_components:
        return trajectory, objective
    return trajectory


# ---------------------------------------------------------------------------
# Trajectory CSV format: step,estimate,smoothed,true_mi,estimator,seed with
# nine significant digits
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(value, ".9g")


def trajectory_csv_text(traj: EstimateTrajectory) -> str:
    lines = ["step,estimate,smoothed,true_mi,estimator,seed"]
    for step, estimate, smoothed in traj.records:
        lines.append(
            f"{step},{_fmt(estimate)},{_fmt(smoothed)},{_fmt(traj.true_mi)},"
            f"{traj.estimator},{traj.seed}"
        )
    return "\n".join(lines) + "\n"


def trajectory_filename(traj: EstimateTrajectory) -> str:
    dim = traj.config["dim"]
    return f"{traj.estimator}_{dim}_{traj.true_mi:g}_{traj.seed}.csv"
