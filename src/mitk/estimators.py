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
vectors, and for the critic bounds one n x n workspace that each bound's
value and gradient share (plus the separable critic's score table; the
joint critic's is a view of its network's output). Nothing is kept at
module level, so concurrent runs share no state. The `*_from_scores` and
`est_*` functions are the plain, allocating forms of the same values for
use outside a run; the objectives' values equal them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from . import critic as nets
from .gaussian import (
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

    @property
    def needs_training(self) -> bool:
        return self not in (EstimatorKind.BA_UPPER_R, EstimatorKind.L1OUT)


# ---------------------------------------------------------------------------
# Score-matrix reductions
# ---------------------------------------------------------------------------


def _logsumexp(a: np.ndarray, axis=None):
    """Max-shifted ln sum exp; tolerates -inf entries (masked-out cells)."""
    peak = np.max(a, axis=axis, keepdims=True)
    total = np.sum(np.exp(a - peak), axis=axis)
    if axis is None:
        return float(np.log(total) + peak.ravel()[0])
    return np.log(total) + np.squeeze(peak, axis=axis)


def _offdiag_col_logmeanexp(scores: np.ndarray) -> np.ndarray:
    """Per column j: ln of the mean of e^(s_ij) over i != j."""
    n = scores.shape[0]
    masked = scores.copy()
    np.fill_diagonal(masked, -np.inf)
    return _logsumexp(masked, axis=0) - math.log(n - 1)


def tuba_from_scores(scores: np.ndarray, log_a: np.ndarray) -> float:
    """Diagonal mean minus the tangent-bounded log partition.

    The partition estimate for each y_j is the off-diagonal column mean of
    e^(s); the baseline enters through the inequality
    ln z <= z/a + ln a - 1, tight at z = a.
    """
    col_lme = _offdiag_col_logmeanexp(scores)
    with np.errstate(over="ignore"):  # overflow -> inf, caught by divergence checks
        penalty = np.exp(col_lme - log_a) + log_a - 1.0
    return float(scores.diagonal().mean() - penalty.mean())


def nwj_from_scores(scores: np.ndarray) -> float:
    """Tangent bound with the baseline pinned at a = e (log a = 1)."""
    return tuba_from_scores(scores, np.ones(scores.shape[0]))


def dv_from_scores(scores: np.ndarray) -> float:
    """Diagonal mean minus ln of the global off-diagonal mean of e^(s)."""
    n = scores.shape[0]
    masked = scores.copy()
    np.fill_diagonal(masked, -np.inf)
    return float(scores.diagonal().mean() - (_logsumexp(masked) - math.log(n * (n - 1))))


def infonce_from_scores(scores: np.ndarray) -> float:
    """Mean over rows of s_ii - ln((1/K) sum_j e^(s_ij)); capped at ln K."""
    n = scores.shape[0]
    row_lse = _logsumexp(scores, axis=1)
    return float((scores.diagonal() - row_lse + math.log(n)).mean())


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
    ll = _gaussian_ll(batch.xs - mean, np.exp(-decoder.log_var), decoder.log_var)
    return float(ll.mean() + entropy_hx)


def est_l1out(batch: SampleBatch, cond_ld) -> float:
    """Leave-one-out upper bound: each sample's own conditional is dropped
    from the Monte-Carlo marginal in the denominator."""
    n = batch.n
    if n < 2:
        raise ValueError("leave-one-out needs at least two samples")
    table = cond_ld(batch.ys[:, None, :], batch.xs[None, :, :])
    diag = table.diagonal().copy()
    np.fill_diagonal(table, -np.inf)
    denom = _logsumexp(table, axis=1) - math.log(n - 1)
    return float((diag - denom).mean())


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


def _gaussian_ll(resid: np.ndarray, inv_var: np.ndarray, log_var: np.ndarray) -> np.ndarray:
    """Per-row log density of a diagonal Gaussian, given the residuals from
    its mean and its inverse variances."""
    return -0.5 * ((resid * resid) * inv_var + log_var + math.log(2.0 * math.pi)).sum(axis=1)


# ---------------------------------------------------------------------------
# Objectives: one per estimator kind, owning the buffers of one run
# ---------------------------------------------------------------------------


class Objective:
    """One estimator's batch value and, for the trained kinds, its gradient.

    An objective is built once per training run and owns that run's
    buffers; nothing is shared between runs or kept at module level. The
    trained parameters live in one flat float64 vector `params`, and the
    components (`critic`, `baseline`, `decoder`) are built once over views
    of it, so an in-place update of `params` is seen by them without any
    rebuild. `value_and_grad` returns the batch value and, when it is
    finite, writes the gradient of the value (the ascent direction) into
    the flat vector `grad`, which has the layout of `params`. The untrained
    kinds have `params = grad = None` and only a `value`.

    The critic bounds also own one n x n workspace, where n is the batch
    size, and the separable ones an n x n score table: the value's
    reductions run in the workspace, and the gradient with respect to the
    scores is formed there afterwards, so a step allocates no n x n array.
    Each network's forward arrays are kept from the first step and written
    over by later ones.
    """

    params = grad = None
    critic = baseline = decoder = None
    cache = None  # forward-pass arrays of the first step, written over by later steps

    def value(self, batch: SampleBatch) -> float:
        raise NotImplementedError

    def value_and_grad(self, batch: SampleBatch) -> float:
        raise NotImplementedError(f"{type(self).__name__} has nothing to train")

    def _own(self, arrays: list):
        """Copy `arrays` into `params`; returns (parameter views, gradient views)."""
        self.params, views = nets.flat_buffer(arrays)
        self.grad = np.zeros_like(self.params)
        return views, nets.buffer_views(self.grad, arrays)


class _Tractable(Objective):
    """An upper bound on the task's closed-form densities: nothing to train."""

    def __init__(self, task: GaussianTask, settings: "TrainSettings"):
        self.task = task


class _BaUpper(_Tractable):
    def value(self, batch):
        task = self.task
        return est_ba_upper(
            batch,
            lambda y, x: cond_log_density(task, y, x),
            lambda y: marginal_log_density(task, y),
        )


class _L1Out(_Tractable):
    def value(self, batch):
        task = self.task
        return est_l1out(batch, lambda y, x: cond_log_density(task, y, x))


class _BaLower(Objective):
    """Decoder bound; the network and the log-variance share one buffer."""

    def __init__(self, task: GaussianTask, settings: "TrainSettings"):
        decoder = init_decoder(task.dim, settings.hidden, settings.seed)
        self.h_x = marginal_entropy(task)
        views, self.grads = self._own(nets.param_arrays(decoder.net) + [decoder.log_var])
        self.decoder = DecoderParams(nets.with_param_arrays(decoder.net, views[:-1]), views[-1])

    def value(self, batch):
        return est_ba_lower(batch, self.decoder, self.h_x)

    def value_and_grad(self, batch):
        decoder, n = self.decoder, batch.n
        mean, self.cache = nets.mlp_forward(decoder.net, batch.ys, out=self.cache)
        resid = batch.xs - mean
        inv_var = np.exp(-decoder.log_var)
        value = float(_gaussian_ll(resid, inv_var, decoder.log_var).mean() + self.h_x)
        if math.isfinite(value):
            nets.mlp_backward(decoder.net, self.cache, resid * inv_var / n, out=self.grads[:-1])
            np.divide(0.5 * ((resid * resid) * inv_var - 1.0).sum(axis=0), n,
                      out=self.grads[-1])
        return value


class _CriticBound(Objective):
    """A bound on a critic's n x n score table.

    Subclasses give `from_scores`, the bound's value on a table computed in
    the workspace (bitwise equal to the matching `*_from_scores`), and
    `upstream`, the value's gradient with respect to the scores, which
    reuses what `from_scores` left behind and is written into the
    workspace.
    """

    with_baseline = False

    def __init__(self, task: GaussianTask, settings: "TrainSettings"):
        arch = nets.CriticArch(task.dim, task.dim, form=settings.critic_form,
                               hidden=settings.hidden, embed=settings.embed)
        critic = nets.init_critic(arch, settings.seed)
        arrays = nets.param_arrays(critic)
        k = len(arrays)
        if self.with_baseline:
            baseline = nets.init_baseline(task.dim, settings.hidden, settings.seed)
            arrays = arrays + nets.param_arrays(baseline)
        views, grads = self._own(arrays)
        self.critic = nets.with_param_arrays(critic, views[:k])
        self.critic_grads = grads[:k]
        if self.with_baseline:
            self.baseline = nets.with_param_arrays(baseline, views[k:])
            self.baseline_grads = grads[k:]
        n = settings.batch_size
        # the joint table is a view of the critic's forward cache
        self.scores = np.empty((n, n)) if arch.form == "separable" else None
        self.work = np.empty((n, n))

    def _scores(self, batch):
        scores, self.cache = nets.score_matrix_with_cache(self.critic, batch, out=self.scores,
                                                          cache=self.cache)
        return scores, self.cache

    def value(self, batch):
        scores, _ = self._scores(batch)
        return self.from_scores(scores)

    def value_and_grad(self, batch):
        scores, cache = self._scores(batch)
        value = self.from_scores(scores)
        if math.isfinite(value):
            nets.backward_from_cache(self.critic, cache, self.upstream(scores),
                                     out=self.critic_grads)
        return value


class _Dv(_CriticBound):
    def from_scores(self, scores: np.ndarray) -> float:
        n = scores.shape[0]
        work = self.work
        np.copyto(work, scores)
        np.fill_diagonal(work, -np.inf)
        peak = work.max()
        np.subtract(work, peak, out=work)
        np.exp(work, out=work)
        self.lse = float(np.log(work.sum()) + peak)
        return float(scores.diagonal().mean() - (self.lse - math.log(n * (n - 1))))

    def upstream(self, scores: np.ndarray) -> np.ndarray:
        """1/n on the diagonal, -e^(s_ij - lse) off it."""
        work = self.work
        with np.errstate(over="ignore"):  # only the diagonal, overwritten below, can overflow
            np.subtract(scores, self.lse, out=work)
            np.exp(work, out=work)
        np.negative(work, out=work)
        np.fill_diagonal(work, 1.0 / scores.shape[0])
        return work


class _InfoNce(_CriticBound):
    def from_scores(self, scores: np.ndarray) -> float:
        n = scores.shape[0]
        work = self.work
        peak = scores.max(axis=1, keepdims=True)
        np.subtract(scores, peak, out=work)
        np.exp(work, out=work)
        self.row_lse = np.log(work.sum(axis=1)) + peak[:, 0]
        return float((scores.diagonal() - self.row_lse + math.log(n)).mean())

    def upstream(self, scores: np.ndarray) -> np.ndarray:
        """(I - row softmax) / n."""
        n = scores.shape[0]
        work = self.work
        np.subtract(scores, self.row_lse[:, None], out=work)
        np.exp(work, out=work)
        diagonal = (1.0 - work.diagonal()) / n
        np.divide(work, -n, out=work)
        np.fill_diagonal(work, diagonal)
        return work


class _Nwj(_CriticBound):
    """The tangent bound with log a(y) = 1; TUBA below learns log a(y)."""

    def __init__(self, task: GaussianTask, settings: "TrainSettings"):
        super().__init__(task, settings)
        self.unit = np.ones(settings.batch_size)

    def from_scores(self, scores: np.ndarray, log_a: np.ndarray = None) -> float:
        log_a = self.unit if log_a is None else log_a
        n = scores.shape[0]
        work = self.work
        np.copyto(work, scores)
        np.fill_diagonal(work, -np.inf)
        peak = work.max(axis=0, keepdims=True)
        np.subtract(work, peak, out=work)
        np.exp(work, out=work)
        col_lme = np.log(work.sum(axis=0)) + peak[0] - math.log(n - 1)
        with np.errstate(over="ignore"):  # overflow -> inf, caught by divergence checks
            self.ratio = np.exp(col_lme - log_a)
            penalty = self.ratio + log_a - 1.0
        return float(scores.diagonal().mean() - penalty.mean())

    def upstream(self, scores: np.ndarray, log_a: np.ndarray = None) -> np.ndarray:
        """1/n on the diagonal, -e^(s_ij - log a_j) / (n (n - 1)) off it."""
        log_a = self.unit if log_a is None else log_a
        n = scores.shape[0]
        work = self.work
        with np.errstate(over="ignore"):
            np.subtract(scores, log_a, out=work)
            np.exp(work, out=work)
        np.divide(work, -(n * (n - 1)), out=work)
        np.fill_diagonal(work, 1.0 / n)
        return work


class _Tuba(_Nwj):
    with_baseline = True
    cache_a = None  # the baseline network's, reused like `cache`

    def _forward(self, batch):
        scores, cache = self._scores(batch)
        log_a, self.cache_a = nets.mlp_forward(self.baseline, batch.ys, out=self.cache_a)
        return scores, cache, log_a[:, 0], self.cache_a

    def value(self, batch):
        scores, _, log_a, _ = self._forward(batch)
        return self.from_scores(scores, log_a)

    def value_and_grad(self, batch):
        scores, cache, log_a, cache_a = self._forward(batch)
        value = self.from_scores(scores, log_a)
        if math.isfinite(value):
            nets.backward_from_cache(self.critic, cache, self.upstream(scores, log_a),
                                     out=self.critic_grads)
            dlog_a = (self.ratio - 1.0) / batch.n
            nets.mlp_backward(self.baseline, cache_a, dlog_a[:, None],
                              out=self.baseline_grads)
        return value


_OBJECTIVES = {
    EstimatorKind.BA_UPPER_R: _BaUpper,
    EstimatorKind.L1OUT: _L1Out,
    EstimatorKind.BA_LOWER: _BaLower,
    EstimatorKind.DV: _Dv,
    EstimatorKind.TUBA: _Tuba,
    EstimatorKind.NWJ: _Nwj,
    EstimatorKind.INFONCE: _InfoNce,
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
    """Optimizer and architecture knobs shared by every estimator."""

    steps: int = 20000
    batch_size: int = 128
    seed: int = 0
    eval_every: int = 100
    smoothing: float = 0.9
    critic_form: str = "separable"
    hidden: tuple = (64, 64)
    embed: int = 32
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 2 or self.eval_every < 1:
            raise ValueError("invalid training settings")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


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
    train and are simply evaluated on the same schedule. Held-out batches
    are drawn every `eval_every` steps (plus once before any training);
    training and evaluation use disjoint Philox streams, so a trajectory is
    bit-reproducible from (config, seed) alone. Nothing trained is
    persisted: pass `return_components=True` to get `(trajectory,
    objective)`, whose `value(batch)` evaluates the trained estimator and
    whose `critic`, `baseline` and `decoder` are its trained components,
    or simply retrain from the seed. A non-finite training objective or
    held-out estimate raises `TrainingDiverged` at the step it occurs.

    A step draws a batch, has the run's `Objective` write the gradient into
    its flat buffer, and updates the flat parameters and Adam moments in
    place; after the first step it allocates no array larger than a batch
    of hidden activations.
    """
    kind = EstimatorKind(kind)
    config = _run_config(kind, task, settings)
    bs = settings.batch_size
    seed = settings.seed
    objective = make_objective(kind, task, settings)

    records = []
    smoothed = None

    def record(step: int):
        nonlocal smoothed
        eval_index = len(records)
        batch = sample(task, bs, seed, stream=2 * eval_index + 1)
        value = objective.value(batch)
        if not math.isfinite(value):
            raise TrainingDiverged(step, config, "held-out estimate", value)
        smoothed = value if smoothed is None else (
            settings.smoothing * smoothed + (1.0 - settings.smoothing) * value
        )
        records.append((step, value, smoothed))

    record(0)
    if kind.needs_training:
        adam = nets.init_adam([objective.params], lr=settings.lr, beta1=settings.beta1,
                              beta2=settings.beta2, eps=settings.eps)
    for t in range(settings.steps):
        if kind.needs_training:
            batch = sample(task, bs, seed, stream=2 * t + 2)
            value = objective.value_and_grad(batch)
            if not math.isfinite(value):
                raise TrainingDiverged(t, config, "objective", value)
            # Adam descends, the bounds are maximized
            np.negative(objective.grad, out=objective.grad)
            nets.adam_update(adam, [objective.params], [objective.grad])
        if (t + 1) % settings.eval_every == 0:
            record(t + 1)

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
