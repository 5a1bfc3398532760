"""Small feed-forward score networks with exact reverse-mode gradients and Adam.

The architecture family is deliberately closed: affine layers, ReLU hidden
activations, linear outputs, plus an inner-product head for the separable
two-tower form. Gradients are hand-derived for this family and checked
against central finite differences in the test suite, which keeps the
implementation honest without dragging in a general autodiff system.

Buffers: the functions here allocate their results unless given `out=`
arrays to write into; a forward pass can also write into the cache of an
earlier one. A forward cache holds one array per layer, the hidden layers'
activations and not their preactivations, and a backward pass forms the
signal it passes down in those arrays, using the cache up; `_empty_cache`
alone shapes one, whether a pass or a training run makes it. The joint
critic's passes run over blocks of about _TILE_ROWS pair rows, so one
block's elementwise work and ReLU masks stay in cache. A training run
owns its buffers: `flat_buffer` packs the components' arrays into one
flat float64 vector and hands back a view of it per array, containers
are built once over those views, backward writes each gradient into its
view of a flat gradient buffer, and `adam_update` updates that flat
parameter vector and its moments in place. Nothing is kept at module
level. `adam_step` stays as the functional form: it copies its inputs and
runs the same in-place kernel on the copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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

# pair rows per block of the joint passes: a block's 1024 x 64 float64 layer
# is 512 KB, so the elementwise passes over it stay in a 2 MB L2 cache
_TILE_ROWS = 1024


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
    """Returns (output, cache); cache = [x, h_1, ..., h_L-1, output] holds one
    array per layer, each hidden layer's ReLU applied in place to its
    preactivation.

    With `out`, a cache returned by an earlier call on as many rows or by
    `_empty_cache`, every layer is written into that cache's arrays and the
    cache returned refers to them.
    """
    rows = (_empty_cache(mlp, x.shape[0]) if out is None else out)[1:]
    cache = [x, *rows]
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = np.matmul(cache[i], w, out=cache[i + 1])
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
    return cache[-1], cache


def mlp_backward(mlp: Mlp, cache, dout: np.ndarray, out=None, dinput=None):
    """Gradients of sum(dout * output) with respect to every weight and bias,
    in param_arrays order.

    The signal passed down between layers is formed in the cache's hidden
    arrays, which are used up: afterwards only the cache's input and output
    may be read again. A hidden layer's ReLU mask is h > 0, taken before h
    is written over; it equals the preactivation's z > 0 bit for bit. With
    `out`, arrays in param_arrays order, each gradient is written into its
    array instead of a new one. `dinput`, an array shaped like the input,
    receives the input's gradient if given.
    """
    grads = [np.empty_like(a) for a in param_arrays(mlp)] if out is None else out
    dz = dout
    for i in range(len(mlp.weights) - 1, -1, -1):
        np.matmul(cache[i].T, dz, out=grads[2 * i])
        np.sum(dz, axis=0, out=grads[2 * i + 1])
        # below a width-1 layer dz @ w.T is an outer product: a broadcast multiply
        # forms each cell's one rounded product, as the K=1 matmul does, in less time
        down = np.multiply if mlp.weights[i].shape[1] == 1 else np.matmul
        if i > 0:
            h = cache[i]
            mask = h > 0.0
            dz = np.multiply(down(dz, mlp.weights[i].T, out=h), mask, out=h)
        elif dinput is not None:
            down(dz, mlp.weights[0].T, out=dinput)
    return grads


# ---------------------------------------------------------------------------
# Critic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticArch:
    """Architecture descriptor for the score function g(x, y).

    `joint` scores the concatenation [x, y] with one scalar-output network,
    n^2 rows per n x n table (that input is never built, see
    score_matrix_with_cache); `separable` runs two towers to an embedding of
    width `embed` and scores by inner product, so the table costs 2n passes.
    """

    x_dim: int
    y_dim: int
    form: str = "separable"
    hidden: tuple = (64, 64)
    embed: int = 32

    def __post_init__(self):
        if self.form not in ("joint", "separable"):
            raise ValueError(f"unknown critic form {self.form!r}")
        if self.x_dim < 1 or self.y_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.embed < 1:
            raise ValueError(f"critic embed must be >= 1, got {self.embed!r}")
        if any(h <= 0 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden!r}")
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


def score_matrix_with_cache(params: CriticParams, batch, cache=None):
    """score_matrix plus the forward cache needed to backpropagate through it.

    The joint network's layer 0 splits, [x, y] W + b = x W_x + (y W_y + b),
    so its n^2 x h preactivation is a broadcast add of two n-row products
    and the concatenated rows are never built; the layers run one block of
    x rows (_blocks) at a time. The joint cache is
    [(xs, ys), h_1, ..., output]: mlp_forward's layout with the pair in
    place of the input, so the layers above layer 0 run on cache[1:]. The
    separable cache is (x tower cache, y tower cache, table).

    Either form's table is the last entry of its forward cache. With
    `cache`, one returned by an earlier call at the same batch size or by
    `_empty_cache`, the forward pass writes into its arrays (see
    mlp_forward), the table included.
    """
    xs, ys = batch.xs, batch.ys
    n = xs.shape[0]
    cache = _empty_cache(params, n) if cache is None else cache
    if params.form == "separable":
        x_tower, y_tower = params.nets
        cache_x, cache_y, table = cache
        hx, cache_x = mlp_forward(x_tower, xs, out=cache_x)
        hy, cache_y = mlp_forward(y_tower, ys, out=cache_y)
        table = np.matmul(hx, hy.T, out=table)
        return table, (cache_x, cache_y, table)
    (net,) = params.nets
    w, dx, rows = net.weights[0], xs.shape[1], cache[1:]
    ax, ay, upper = xs @ w[:dx], ys @ w[dx:] + net.biases[0], _upper(net)
    for i0, i1 in _blocks(n):
        tile = [a[i0 * n:i1 * n] for a in rows]
        h = tile[0]
        np.add(ax[i0:i1, None], ay, out=h.reshape(i1 - i0, n, -1))
        if len(rows) > 1:
            np.maximum(h, 0.0, out=h)
        mlp_forward(upper, h, out=tile)
    return rows[-1].reshape(n, n), [(xs, ys), *rows]


def _empty_cache(params, n: int, empty=np.empty):
    """A forward cache at batch size n, each array `empty(shape)` and its
    input left as None: for an `Mlp`, mlp_forward's, its layers on n rows;
    for a critic, score_matrix_with_cache's, the separable towers' caches
    and the n x n table, or the joint network's layers on n^2 rows."""
    if isinstance(params, Mlp):
        return [None, *(empty((n, w.shape[1])) for w in params.weights)]
    if params.form == "separable":
        return (*(_empty_cache(tower, n, empty) for tower in params.nets), empty((n, n)))
    return _empty_cache(params.nets[0], n * n, empty)


def backward_from_cache(params: CriticParams, cache, upstream: np.ndarray, out=None):
    """Gradients of sum(upstream * scores) given a forward cache, in param_arrays order.

    For the joint network, mlp_backward runs the layers above layer 0 and
    carries the signal down to layer 0's n x n x h preactivation gradient dz;
    layer 0's weight gradient is then [xs.T @ dz.sum(1); ys.T @ dz.sum(0)].
    This runs over the forward's blocks: the first writes the gradients and
    its part of dz.sum(0), later ones add theirs (so one block keeps the bits
    of a single pass), and layer 0's products run once after the last.

    With `out`, arrays in param_arrays order, the gradients are written
    there. Either way the cache is used up (see mlp_backward); its table
    may still be read.
    """
    grads = [np.empty_like(a) for a in param_arrays(params)] if out is None else out
    if params.form == "separable":
        x_tower, y_tower = params.nets
        cache_x, cache_y, _ = cache
        k = 2 * len(x_tower.weights)
        mlp_backward(x_tower, cache_x, upstream @ cache_y[-1], out=grads[:k])
        mlp_backward(y_tower, cache_y, upstream.T @ cache_x[-1], out=grads[k:])
        return grads
    (net,) = params.nets
    (xs, ys), (n, dx) = cache[0], cache[0][0].shape
    upper, dz_x = _upper(net), np.empty((n, grads[1].size))
    acc = part = [*grads[2:], np.empty_like(dz_x)]  # the layers above, then dz summed over x
    for i0, i1 in _blocks(n):
        tile = [a[i0 * n:i1 * n] for a in cache[1:]]
        dz = upstream[i0:i1].reshape(-1, 1)
        if len(tile) > 1:
            h = tile[0]
            mask = h > 0.0
            mlp_backward(upper, tile, dz, out=part[:-1], dinput=h)
            dz = np.multiply(h, mask, out=h)
        dz = dz.reshape(i1 - i0, n, -1)
        np.sum(dz, axis=1, out=dz_x[i0:i1])
        np.sum(dz, axis=0, out=part[-1])
        if part is acc:
            part = [np.empty_like(a) for a in acc]
        else:
            for a, b in zip(acc, part):
                a += b
    np.matmul(xs.T, dz_x, out=grads[0][:dx])
    np.matmul(ys.T, acc[-1], out=grads[0][dx:])
    np.sum(dz_x, axis=0, out=grads[1])
    return grads


def _blocks(n: int):
    """(i0, i1) bounds of the blocks of x rows the joint passes run over, each
    about _TILE_ROWS pair rows; the last may be shorter."""
    step = max(1, _TILE_ROWS // n)
    return [(i0, min(i0 + step, n)) for i0 in range(0, n, step)]


def _upper(net: Mlp) -> Mlp:
    """The layers of `net` above layer 0."""
    return Mlp(net.weights[1:], net.biases[1:])


def _nets(params) -> tuple:
    if isinstance(params, CriticParams):
        return params.nets
    if isinstance(params, Mlp):
        return (params,)
    raise TypeError(f"no parameter layout for {type(params)!r}")


def param_arrays(params) -> list:
    """Flat list of a parameter container's arrays, in a stable order: each
    network's layers in turn, a layer's weight before its bias."""
    return [a for net in _nets(params) for layer in zip(net.weights, net.biases) for a in layer]


def with_param_arrays(params, arrays: list):
    """Rebuild a parameter container from a flat array list (inverse of param_arrays)."""
    nets, arrays = _nets(params), list(arrays)
    size = sum(2 * len(net.weights) for net in nets)
    if len(arrays) != size:
        raise ValueError(f"{len(arrays)} arrays for a parameter layout of {size}")
    taken = iter(arrays)
    rebuilt = []
    for net in nets:
        layers = [(next(taken), next(taken)) for _ in net.weights]
        rebuilt.append(Mlp([w for w, _ in layers], [b for _, b in layers]))
    if isinstance(params, CriticParams):
        return CriticParams(params.form, tuple(rebuilt))
    return rebuilt[0]


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
    _, cache = mlp_forward(net, ys)
    return mlp_backward(net, cache, dlog_a[:, None])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Bias-corrected first/second moment accumulators plus hyperparameters.

    `m` and `v` are float64 arrays shaped like the parameters, and `scratch`
    is one pair of work arrays for `adam_update`; `init_adam` allocates all
    three, for a training run when its objective is built (`Objective.adam`).
    The hyperparameters' defaults are `estimators.TrainSettings`'s.
    """

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(repr=False, compare=False)
    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int = 0


def init_adam(params: np.ndarray, lr: float, beta1: float, beta2: float, eps: float) -> AdamState:
    shape = params.shape
    return AdamState(m=np.zeros(shape), v=np.zeros(shape), scratch=np.empty((2, *shape)),
                     lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_update(state: AdamState, params: np.ndarray, grads: np.ndarray) -> None:
    """One descent update, in place: params, state.m, state.v and state.step."""
    if not params.shape == grads.shape == state.m.shape:
        raise ValueError(f"params {params.shape} and grads {grads.shape} must match "
                         f"the optimizer state {state.m.shape}")
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    m, v, (num, den) = state.m, state.v, state.scratch
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
    np.multiply(m, b1, out=m)
    np.multiply(grads, 1.0 - b1, out=num)
    np.add(m, num, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(grads, grads, out=den)
    np.multiply(den, 1.0 - b2, out=den)
    np.add(v, den, out=v)
    # p -= lr m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - b1**t, out=num)
    np.multiply(num, state.lr, out=num)
    np.divide(v, 1.0 - b2**t, out=den)
    np.sqrt(den, out=den)
    np.add(den, state.eps, out=den)
    np.divide(num, den, out=num)
    np.subtract(params, num, out=params)
    state.step = t


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray):
    """One descent update; returns (new state, new params), inputs untouched."""
    new_state = replace(state, m=state.m.copy(), v=state.v.copy(),
                        scratch=np.empty_like(state.scratch))
    new_params = np.array(params, dtype=np.float64)
    adam_update(new_state, new_params, grads)
    return new_state, new_params
