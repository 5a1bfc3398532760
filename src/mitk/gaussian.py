"""Correlated-Gaussian benchmark tasks with closed-form information quantities.

X and Y are each d-dimensional standard normal vectors with componentwise
correlation rho, so the exact mutual information, the conditional density
of Y given X, and both marginals are available in closed form. Sampling is
counter-based (Philox keyed by seed and stream index, normals via
Box-Muller), so batches are bit-reproducible regardless of thread
scheduling or call order. A batch is written into `SampleBuffers`, which a
training run owns and draws every batch into (its objective's `samples`),
or which `sample` builds afresh; a batch drawn into buffers is valid until
the next draw into the same buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN_2PI = math.log(2.0 * math.pi)
SEED_LIMIT = 2**64  # a seed is one of the two uint64 words of a Philox key

__all__ = [
    "GaussianTask",
    "SampleBatch",
    "SampleBuffers",
    "true_mi",
    "rho_for_target_mi",
    "task_for_target_mi",
    "sample",
    "cond_log_density",
    "marginal_log_density",
    "marginal_entropy",
]


@dataclass(frozen=True)
class GaussianTask:
    """Componentwise-correlated standard-normal pair of dimension `dim`."""

    dim: int
    rho: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly inside (-1, 1)")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Paired draws from a task, tagged with their generating seed and stream."""

    xs: np.ndarray
    ys: np.ndarray
    seed: int
    stream: int
    task: GaussianTask

    def __post_init__(self):
        if self.xs.shape != self.ys.shape:
            raise ValueError("xs and ys must have identical shape")
        if self.xs.ndim != 2 or self.xs.shape[0] < 2:
            raise ValueError("batch must be (n, dim) with n >= 2")

    @property
    def n(self) -> int:
        return self.xs.shape[0]


def true_mi(task: GaussianTask) -> float:
    """Exact mutual information -(d/2) ln(1 - rho^2) in nats."""
    return -0.5 * task.dim * math.log1p(-task.rho * task.rho)


def rho_for_target_mi(target_mi: float, dim: int) -> float:
    """Correlation producing the requested information at the given dimension."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    # NaN fails both tests; past 27 ln 2 (about 18.7) nats per dimension rho rounds to 1
    if not target_mi >= 0 or not (rho := math.sqrt(-math.expm1(-2.0 * target_mi / dim))) < 1.0:
        raise ValueError(f"target information must be >= 0 and at most about 18.7 nats per "
                         f"dimension, got {target_mi!r} at dim {dim}")
    return rho


def task_for_target_mi(dim: int, target_mi: float) -> GaussianTask:
    return GaussianTask(dim, rho_for_target_mi(target_mi, dim))


class SampleBuffers:
    """What a batch of n draws at dimension `dim` is written into: `xs`, `ys`,
    one (2, (n dim + 1) // 2) block of Box-Muller uniforms, which is also the
    scratch for rho x, and one Philox generator, re-keyed for each draw.
    `empty(shape)` allocates each array."""

    def __init__(self, n: int, dim: int, empty=np.empty):
        self.xs = empty((n, dim))
        self.ys = empty((n, dim))
        self.uniforms = empty((2, (n * dim + 1) // 2))
        self.philox = np.random.Philox(key=0)
        self.gen = np.random.Generator(self.philox)

    def _normals(self, seed: int, stream: int, out: np.ndarray) -> None:
        """Box-Muller normals keyed (seed, stream) into `out`: the radius times
        the cosines of the angles, then times their sines, cut to out's size.
        The generator starts in the state of Philox(key=(seed, stream)), so
        nothing carries over from an earlier draw."""
        self.philox.state = {"bit_generator": "Philox",
                             "state": {"counter": (0, 0, 0, 0), "key": (seed, stream)},
                             "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                             "has_uint32": 0, "uinteger": 0}
        self.gen.random(out=self.uniforms)
        radius, angle = self.uniforms
        np.negative(radius, out=radius)
        np.log1p(radius, out=radius)  # 1 - u in (0, 1], so the log is finite
        np.multiply(radius, -2.0, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(angle, 2.0 * math.pi, out=angle)
        z = out.reshape(-1)
        head, tail = z[:angle.size], z[angle.size:]
        np.cos(angle, out=head)
        np.multiply(head, radius, out=head)
        np.sin(angle[:tail.size], out=tail)
        np.multiply(tail, radius[:tail.size], out=tail)


def sample(task: GaussianTask, n: int, seed: int, stream: int = 0,
           out: SampleBuffers = None) -> SampleBatch:
    """Draw n paired samples: x standard normal, y = rho x + sqrt(1-rho^2) noise.

    Deterministic in (seed, stream); distinct streams never share generator
    state, so concurrent sampling is safe. x is keyed (seed, 2 stream) and
    the noise (seed, 2 stream + 1), so the stream lies in [0, 2**63).

    With `out`, `SampleBuffers` for n rows at the task's dimension, the
    batch is written into them and its arrays are theirs, so it is valid
    until the next draw into the same buffers; without, it is drawn into
    fresh ones. Either way the bits are the same.
    """
    if n < 2:
        raise ValueError("need n >= 2 (contrastive estimators require negatives)")
    if not (0 <= seed < SEED_LIMIT and 0 <= stream < SEED_LIMIT // 2):
        raise ValueError(f"seed must lie in [0, 2**64) and stream in [0, 2**63), "
                         f"got seed {seed} and stream {stream}")
    out = SampleBuffers(n, task.dim) if out is None else out
    xs, ys = out.xs, out.ys
    if xs.shape != (n, task.dim):
        raise ValueError(f"buffers of shape {xs.shape} for a batch of shape {(n, task.dim)}")
    out._normals(seed, 2 * stream, xs)
    out._normals(seed, 2 * stream + 1, ys)
    rho_x = out.uniforms.reshape(-1)[:xs.size].reshape(xs.shape)
    np.multiply(xs, task.rho, out=rho_x)
    np.multiply(ys, math.sqrt(1.0 - task.rho * task.rho), out=ys)
    np.add(rho_x, ys, out=ys)
    return SampleBatch(xs=xs, ys=ys, seed=seed, stream=stream, task=task)


def cond_log_density(task: GaussianTask, y, x):
    """log N(y; rho x, (1 - rho^2) I), elementwise over leading axes.

    Accepts any broadcastable (..., dim) pair and reduces over the last
    axis; everything stays in log space.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape[-1] != task.dim or x.shape[-1] != task.dim:
        raise ValueError(f"trailing dimension must be {task.dim}")
    var = 1.0 - task.rho * task.rho
    resid = y - task.rho * x
    ll = -0.5 * ((resid * resid) / var + math.log(var) + LN_2PI)
    out = ll.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def marginal_log_density(task: GaussianTask, y):
    """log N(y; 0, I) over the last axis."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != task.dim:
        raise ValueError(f"trailing dimension must be {task.dim}")
    out = (-0.5 * (y * y + LN_2PI)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def marginal_entropy(task: GaussianTask) -> float:
    """Differential entropy of the standard-normal marginal, (d/2) ln(2 pi e)."""
    return 0.5 * task.dim * (LN_2PI + 1.0)
