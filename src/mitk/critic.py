"""Small feed-forward score networks with exact reverse-mode gradients and Adam.

The architecture family is deliberately closed: affine layers, ReLU hidden
activations, linear outputs, plus an inner-product head for the separable
two-tower form. Gradients are hand-derived for this family and checked
against central finite differences in the test suite, which keeps the
implementation honest without dragging in a general autodiff system.

Buffers: the functions here allocate their results unless given `out=`
arrays to write into; a forward pass can also write into the cache of an
earlier one. A training run owns its buffers: `flat_buffer` packs the
components' arrays into one flat float64 vector and hands back a view of
it per array, containers are built once over those views, backward
writes each gradient into its view of a flat gradient buffer, and
`adam_update` updates parameters and moments in place. Nothing is kept at
module level. `adam_step` stays as the functional form: it copies its
inputs and runs the same in-place kernel on the copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mlp",
    "CriticArch",
    "CriticParams",
    "AdamState",
    "init_mlp",
    "mlp_forward",
    "mlp_backward",
    "glorot_bound",
    "init_critic",
    "score_matrix",
    "score_matrix_with_cache",
    "backward_from_cache",
    "param_arrays",
    "with_param_arrays",
    "flat_buffer",
    "buffer_views",
    "init_baseline",
    "log_baseline",
    "baseline_backward",
    "init_adam",
    "adam_step",
    "adam_update",
]


@dataclass
class Mlp:
    """Affine/ReLU stack; the final layer is linear."""

    weights: list
    biases: list


def glorot_bound(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_mlp(widths, rng) -> Mlp:
    """Scaled-uniform weight init (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w <= 0 for w in widths):
        raise ValueError(f"invalid layer widths {widths}")
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = glorot_bound(fan_in, fan_out)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases)


def mlp_forward(mlp: Mlp, x: np.ndarray, out=None):
    """Returns (output, cache); cache holds the per-layer inputs and preactivations.

    With `out`, a cache returned by an earlier call on as many rows, every
    preactivation and hidden activation is written into that cache's arrays
    and the cache returned refers to them.
    """
    inputs = [x]
    preacts = []
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = np.matmul(inputs[i], w, out=None if out is None else out[1][i])
        z += b
        preacts.append(z)
        if i < last:
            inputs.append(np.maximum(z, 0.0, out=None if out is None else out[0][i + 1]))
    return preacts[-1], (inputs, preacts)


def mlp_backward(mlp: Mlp, cache, dout: np.ndarray, out=None):
    """Gradients of sum(dout * output) with respect to every weight and bias.

    With `out`, arrays in param_arrays order, each gradient is written into
    its array instead of a new one, and the signal passed down between
    layers is formed in the cache's hidden-layer arrays, which are used up:
    after such a call only the cache's output may be read again.
    """
    inputs, preacts = cache
    grads_w = [None] * len(mlp.weights)
    grads_b = [None] * len(mlp.biases)
    dz = dout
    for i in range(len(mlp.weights) - 1, -1, -1):
        out_w, out_b = (None, None) if out is None else (out[2 * i], out[2 * i + 1])
        grads_w[i] = np.matmul(inputs[i].T, dz, out=out_w)
        grads_b[i] = np.sum(dz, axis=0, out=out_b)
        if i > 0:
            dh = np.matmul(dz, mlp.weights[i].T, out=None if out is None else inputs[i])
            dz = np.multiply(dh, preacts[i - 1] > 0.0,
                             out=None if out is None else preacts[i - 1])
    return grads_w, grads_b


# ---------------------------------------------------------------------------
# Critic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticArch:
    """Architecture descriptor for the score function g(x, y).

    `joint` concatenates (x, y) into one scalar-output network; `separable`
    runs two towers to an embedding of width `embed` and scores by inner
    product, so an n x n score table costs 2n forward passes instead of n^2.
    """

    x_dim: int
    y_dim: int
    form: str = "separable"
    hidden: tuple = (64, 64)
    embed: int = 32

    def __post_init__(self):
        if self.form not in ("joint", "separable"):
            raise ValueError(f"unknown critic form {self.form!r}")
        if self.x_dim < 1 or self.y_dim < 1 or self.embed < 1:
            raise ValueError("dimensions must be positive")
        if any(h <= 0 for h in self.hidden):
            raise ValueError("hidden widths must be positive")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


@dataclass
class CriticParams:
    form: str
    nets: tuple  # (net,) for joint, (x_tower, y_tower) for separable


def init_critic(arch: CriticArch, seed: int) -> CriticParams:
    rng = np.random.default_rng([seed, 0])
    if arch.form == "joint":
        net = init_mlp((arch.x_dim + arch.y_dim, *arch.hidden, 1), rng)
        return CriticParams("joint", (net,))
    x_tower = init_mlp((arch.x_dim, *arch.hidden, arch.embed), rng)
    y_tower = init_mlp((arch.y_dim, *arch.hidden, arch.embed), rng)
    return CriticParams("separable", (x_tower, y_tower))


def score_matrix(params: CriticParams, batch) -> np.ndarray:
    """(i, j) table of critic scores g(x_i, y_j).

    Diagonal entries score the paired samples; off-diagonal entries pair
    each x with another sample's y and so act as draws from the product of
    marginals.
    """
    scores, _ = score_matrix_with_cache(params, batch)
    return scores


def score_matrix_with_cache(params: CriticParams, batch, out=None, cache=None):
    """score_matrix plus the forward cache needed to backpropagate through it.

    With `out`, an n x n array, the separable table is written there; the
    joint table is always a view of the forward cache's output, so `out`
    is not used. With `cache`, one returned by an earlier call at the same
    batch size, the forward pass writes into its arrays (see mlp_forward).
    """
    xs, ys = batch.xs, batch.ys
    n = xs.shape[0]
    if params.form == "separable":
        x_tower, y_tower = params.nets
        cache_x, cache_y = (None, None) if cache is None else (cache[1], cache[3])
        hx, cache_x = mlp_forward(x_tower, xs, out=cache_x)
        hy, cache_y = mlp_forward(y_tower, ys, out=cache_y)
        return np.matmul(hx, hy.T, out=out), (hx, cache_x, hy, cache_y)
    (net,) = params.nets
    paired = np.concatenate([np.repeat(xs, n, axis=0), np.tile(ys, (n, 1))], axis=1)
    scores, cache = mlp_forward(net, paired, out=cache)
    return scores.reshape(n, n), cache


def backward_from_cache(params: CriticParams, cache, upstream: np.ndarray, out=None):
    """Gradients of sum(upstream * scores) given a forward cache, in param_arrays order.

    With `out`, arrays in param_arrays order, the gradients are written
    there and the cache is used up (see mlp_backward).
    """
    if params.form == "separable":
        x_tower, y_tower = params.nets
        hx, cache_x, hy, cache_y = cache
        k = 2 * len(x_tower.weights)
        out_x, out_y = (None, None) if out is None else (out[:k], out[k:])
        dw_x, db_x = mlp_backward(x_tower, cache_x, upstream @ hy, out=out_x)
        dw_y, db_y = mlp_backward(y_tower, cache_y, upstream.T @ hx, out=out_y)
        return _interleave(dw_x, db_x) + _interleave(dw_y, db_y)
    (net,) = params.nets
    n = upstream.shape[0]
    dw, db = mlp_backward(net, cache, upstream.reshape(n * n, 1), out=out)
    return _interleave(dw, db)


def _interleave(ws, bs):
    out = []
    for w, b in zip(ws, bs):
        out.append(w)
        out.append(b)
    return out


def param_arrays(params) -> list:
    """Flat list of a parameter container's arrays, in a stable order."""
    if isinstance(params, CriticParams):
        out = []
        for net in params.nets:
            out.extend(_interleave(net.weights, net.biases))
        return out
    if isinstance(params, Mlp):
        return _interleave(params.weights, params.biases)
    raise TypeError(f"no parameter layout for {type(params)!r}")


def with_param_arrays(params, arrays: list):
    """Rebuild a parameter container from a flat array list (inverse of param_arrays)."""
    arrays = list(arrays)

    def take_mlp(template: Mlp) -> Mlp:
        n = len(template.weights)
        ws, bs = [], []
        for _ in range(n):
            ws.append(arrays.pop(0))
            bs.append(arrays.pop(0))
        return Mlp(ws, bs)

    if isinstance(params, CriticParams):
        nets = tuple(take_mlp(net) for net in params.nets)
        rebuilt = CriticParams(params.form, nets)
    elif isinstance(params, Mlp):
        rebuilt = take_mlp(params)
    else:
        raise TypeError(f"no parameter layout for {type(params)!r}")
    if arrays:
        raise ValueError("array list longer than the parameter layout")
    return rebuilt


def flat_buffer(arrays: list):
    """(flat, views): the arrays copied back to back into one vector, and a
    view of that vector shaped like each array."""
    flat = np.concatenate([np.ravel(a) for a in arrays])
    return flat, buffer_views(flat, arrays)


def buffer_views(flat: np.ndarray, arrays: list) -> list:
    """Views of consecutive slices of `flat`, shaped like `arrays` in order."""
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    if start != flat.size:
        raise ValueError(f"layout holds {start} values, buffer {flat.size}")
    return views


# ---------------------------------------------------------------------------
# Baseline network: emits log a(y), so a(y) > 0 is structural
# ---------------------------------------------------------------------------


def init_baseline(y_dim: int, hidden, seed: int) -> Mlp:
    rng = np.random.default_rng([seed, 1])
    return init_mlp((y_dim, *tuple(hidden), 1), rng)


def log_baseline(net: Mlp, ys: np.ndarray) -> np.ndarray:
    out, _ = mlp_forward(net, ys)
    return out[:, 0]


def baseline_backward(net: Mlp, ys: np.ndarray, dlog_a: np.ndarray):
    """Gradients of sum(dlog_a * log a(ys)) in param_arrays order.

    Training does not call this (the TUBA objective backpropagates the
    forward cache it keeps); it stays because perfbench/tracing.py traces
    it by name and its tests require every traced name to exist.
    """
    out, cache = mlp_forward(net, ys)
    dw, db = mlp_backward(net, cache, dlog_a[:, None])
    return _interleave(dw, db)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected first/second moment accumulators plus hyperparameters.

    `scratch` holds two work arrays per parameter for `adam_update`; they
    are allocated on its first call and reused after that.
    """

    m: list
    v: list
    step: int = 0
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: list = field(default_factory=list, repr=False, compare=False)


def init_adam(params: list, lr: float = 5e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        step=0,
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_update(state: AdamState, params: list, grads: list) -> None:
    """One descent update, in place: params, state.m, state.v and state.step."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("params/grads must match the optimizer state layout")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match param {p.shape}")
    if len(state.scratch) != len(params):
        state.scratch = [np.empty((2, *p.shape)) for p in params]
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v, (num, den) in zip(params, grads, state.m, state.v, state.scratch):
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=num)
        np.add(m, num, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, g, out=den)
        np.multiply(den, 1.0 - b2, out=den)
        np.add(v, den, out=v)
        # p -= lr m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - b1**t, out=num)
        np.multiply(num, state.lr, out=num)
        np.divide(v, 1.0 - b2**t, out=den)
        np.sqrt(den, out=den)
        np.add(den, state.eps, out=den)
        np.divide(num, den, out=num)
        np.subtract(p, num, out=p)
    state.step = t


def adam_step(state: AdamState, params: list, grads: list):
    """One descent update; returns (new state, new params), inputs untouched."""
    new_state = AdamState(
        m=[np.array(m, dtype=np.float64) for m in state.m],
        v=[np.array(v, dtype=np.float64) for v in state.v],
        step=state.step,
        lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps,
    )
    new_params = [np.array(p, dtype=np.float64) for p in params]
    adam_update(new_state, new_params, grads)
    return new_state, new_params
