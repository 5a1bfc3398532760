"""Score networks: initialization, forward passes, exact gradients, Adam."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import mitk.critic
from mitk.critic import (
    CriticArch,
    CriticParams,
    Mlp,
    adam_step,
    adam_update,
    backward_from_cache,
    buffer_views,
    glorot_bound,
    init_adam,
    init_critic,
    flat_buffer,
    init_mlp,
    mlp_backward,
    mlp_forward,
    param_arrays,
    score_matrix,
    score_matrix_with_cache,
    with_param_arrays,
)
from mitk.estimators import TrainSettings, make_objective
from mitk.gaussian import GaussianTask, sample, task_for_target_mi


def small_batch(n=8, dim=3, seed=0):
    return sample(GaussianTask(dim, 0.5), n, seed=seed)


def ragged_blocks(monkeypatch, n: int) -> None:
    """Makes the joint passes at batch size n (>= 3) run over blocks of s x
    rows, s the smallest from 2 up that does not divide n: several blocks,
    the last one shorter."""
    s = next(s for s in range(2, n) if n % s)
    monkeypatch.setattr(mitk.critic, "_TILE_ROWS", n * s)
    blocks = mitk.critic._blocks(n)
    assert len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] < s


class TestInit:
    def test_deterministic(self):
        arch = CriticArch(3, 3, form="separable", hidden=(8,), embed=4)
        a = init_critic(arch, seed=5)
        b = init_critic(arch, seed=5)
        for pa, pb in zip(param_arrays(a), param_arrays(b)):
            assert np.array_equal(pa, pb)

    def test_biases_zero(self):
        arch = CriticArch(3, 3, form="joint", hidden=(16, 16))
        params = init_critic(arch, seed=1)
        for net in params.nets:
            for b in net.biases:
                assert np.all(b == 0.0)

    def test_weight_moments(self):
        # 10^4 draws from uniform(-b, b): sample mean within 3 standard errors of 0
        rng = np.random.default_rng(3)
        net = init_mlp((100, 100), rng)
        draws = net.weights[0].ravel()
        bound = glorot_bound(100, 100)
        se = bound / math.sqrt(3 * draws.size)
        assert abs(draws.mean()) <= 3 * se
        assert np.all(np.abs(draws) <= bound)

    def test_invalid_widths_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init_mlp((4, 0, 1), rng)
        with pytest.raises(ValueError):
            CriticArch(3, 3, hidden=(0,))
        with pytest.raises(ValueError):
            CriticArch(3, 3, form="bilinear")


class TestScoreMatrix:
    def test_zero_final_layer_gives_zero_scores(self):
        arch = CriticArch(3, 3, form="joint", hidden=(8,))
        params = init_critic(arch, seed=2)
        params.nets[0].weights[-1] = np.zeros_like(params.nets[0].weights[-1])
        batch = small_batch()
        assert np.all(score_matrix(params, batch) == 0.0)

    def test_orthogonal_embeddings_give_zero_scores(self):
        # linear towers mapping into disjoint coordinates of the embedding
        wx = np.zeros((3, 4))
        wx[:, 0] = 1.0
        wy = np.zeros((3, 4))
        wy[:, 1] = 1.0
        params = CriticParams(
            "separable",
            (Mlp([wx], [np.zeros(4)]), Mlp([wy], [np.zeros(4)])),
        )
        batch = small_batch()
        assert np.all(score_matrix(params, batch) == 0.0)

    def test_joint_matches_independent_forward(self):
        arch = CriticArch(3, 3, form="joint", hidden=(5, 7))
        params = init_critic(arch, seed=9)
        batch = small_batch(n=4)
        scores = score_matrix(params, batch)
        (net,) = params.nets
        for i in range(4):
            for j in range(4):
                h = np.concatenate([batch.xs[i], batch.ys[j]])
                for k, (w, b) in enumerate(zip(net.weights, net.biases)):
                    h = h @ w + b
                    if k < len(net.weights) - 1:
                        h = np.maximum(h, 0.0)
                assert scores[i, j] == pytest.approx(h[0], abs=1e-12)

    def test_separable_matches_independent_forward(self):
        arch = CriticArch(3, 3, form="separable", hidden=(6,), embed=4)
        params = init_critic(arch, seed=10)
        batch = small_batch(n=5)
        scores = score_matrix(params, batch)

        def tower(net, v):
            h = v
            for k, (w, b) in enumerate(zip(net.weights, net.biases)):
                h = h @ w + b
                if k < len(net.weights) - 1:
                    h = np.maximum(h, 0.0)
            return h

        for i in range(5):
            for j in range(5):
                expected = tower(params.nets[0], batch.xs[i]) @ tower(
                    params.nets[1], batch.ys[j]
                )
                assert scores[i, j] == pytest.approx(expected, abs=1e-12)

    def test_joint_and_separable_differ(self):
        batch = small_batch()
        joint = init_critic(CriticArch(3, 3, form="joint", hidden=(8,)), seed=4)
        sep = init_critic(CriticArch(3, 3, form="separable", hidden=(8,), embed=4), seed=4)
        assert not np.allclose(score_matrix(joint, batch), score_matrix(sep, batch))

    def test_operation_count_separable_is_linear(self):
        n = 32
        batch = small_batch(n=n)
        # rows pushed through the networks, read off the inputs in the forward cache
        sep = init_critic(CriticArch(3, 3, form="separable", hidden=(8,), embed=4), seed=0)
        _, (cache_x, cache_y, _) = score_matrix_with_cache(sep, batch)
        assert cache_x[0].shape[0] + cache_y[0].shape[0] == 2 * n
        joint = init_critic(CriticArch(3, 3, form="joint", hidden=(8,)), seed=0)
        _, cache = score_matrix_with_cache(joint, batch)
        # the first joint input is the (xs, ys) pair; the hidden layers take n^2 rows
        assert cache[0][0] is batch.xs and cache[0][1] is batch.ys
        assert cache[1].shape[0] == n * n


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        params = init_critic(CriticArch(3, 3, form="separable", hidden=(8,), embed=4), seed=1)
        batch = small_batch()
        grads = backward_from_cache(params, score_matrix_with_cache(params, batch)[1],
                                    np.zeros((batch.n, batch.n)))
        for g in grads:
            assert np.all(g == 0.0)

    def test_linearity_in_upstream(self):
        params = init_critic(CriticArch(3, 3, form="joint", hidden=(8,)), seed=2)
        batch = small_batch()
        rng = np.random.default_rng(0)
        upstream = rng.normal(size=(batch.n, batch.n))
        g1 = backward_from_cache(params, score_matrix_with_cache(params, batch)[1], upstream)
        g2 = backward_from_cache(params, score_matrix_with_cache(params, batch)[1],
                                 2.0 * upstream)
        for a, b in zip(g1, g2):
            assert np.allclose(2.0 * a, b, atol=1e-12)

    @pytest.mark.parametrize("form", ["joint", "separable"])
    def test_gradients_match_finite_differences(self, form, monkeypatch):
        ragged_blocks(monkeypatch, 6)
        rng = np.random.default_rng(11)
        arch = CriticArch(2, 2, form=form, hidden=(6, 5), embed=3)
        params = init_critic(arch, seed=8)
        # move off the zero-bias init so no preactivation sits on a ReLU kink
        params = with_param_arrays(
            params,
            [a + rng.normal(scale=0.05, size=a.shape) for a in param_arrays(params)],
        )
        batch = small_batch(n=6, dim=2, seed=3)
        upstream = rng.normal(size=(6, 6))
        grads = backward_from_cache(params, score_matrix_with_cache(params, batch)[1], upstream)
        arrays = param_arrays(params)

        def objective(arrs):
            rebuilt = with_param_arrays(params, arrs)
            return float(np.sum(upstream * score_matrix(rebuilt, batch)))

        h = 1e-5
        worst = 0.0
        for k, arr in enumerate(arrays):
            flat = arr.ravel()
            for idx in range(flat.size):
                bumped = [a.copy() for a in arrays]
                bumped[k].ravel()[idx] = flat[idx] + h
                up = objective(bumped)
                bumped[k].ravel()[idx] = flat[idx] - h
                down = objective(bumped)
                numeric = (up - down) / (2 * h)
                analytic = grads[k].ravel()[idx]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, abs(numeric - analytic) / scale)
        assert worst < 1e-5


def concat_scores_and_grads(net: Mlp, xs, ys, upstream):
    """The joint critic on its concatenated input: every pair's [x_i, y_j] row
    built and pushed through the whole network, then backpropagated."""
    n = xs.shape[0]
    paired = np.concatenate([np.repeat(xs, n, axis=0), np.tile(ys, (n, 1))], axis=1)
    scores, cache = mlp_forward(net, paired)
    return scores.reshape(n, n), mlp_backward(net, cache, upstream.reshape(n * n, 1))


def untiled_scores_and_grads(net: Mlp, xs, ys, upstream):
    """The joint critic's factored passes in one block: layer 0's n^2 x h
    preactivation built whole, the layers above run on all n^2 rows at once."""
    n, dx, w = xs.shape[0], xs.shape[1], net.weights[0]
    upper = Mlp(net.weights[1:], net.biases[1:])
    rows = [np.empty((n * n, v.shape[1])) for v in net.weights]
    h = rows[0]
    np.add((xs @ w[:dx])[:, None], ys @ w[dx:] + net.biases[0], out=h.reshape(n, n, -1))
    if len(rows) > 1:
        np.maximum(h, 0.0, out=h)
    scores, cache = mlp_forward(upper, h, out=rows)
    grads = [np.empty_like(a) for a in param_arrays(net)]
    dz = upstream.reshape(n * n, 1)
    if len(cache) > 1:
        mask = h > 0.0
        mlp_backward(upper, cache, dz, out=grads[2:], dinput=h)
        dz = np.multiply(h, mask, out=h)
    dz = dz.reshape(n, n, -1)
    dz_x = dz.sum(axis=1)
    np.matmul(xs.T, dz_x, out=grads[0][:dx])
    np.matmul(ys.T, dz.sum(axis=0), out=grads[0][dx:])
    np.sum(dz_x, axis=0, out=grads[1])
    return scores.reshape(n, n), grads


def nudged(params, seed):
    """`params` moved off the zero-bias init by a small random step."""
    rng = np.random.default_rng(seed)
    return with_param_arrays(
        params, [a + rng.normal(scale=0.1, size=a.shape) for a in param_arrays(params)])


def relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


class TestJointFactoredLayer:
    """The joint forward and backward never build the n^2 concatenated rows;
    they must agree with the network run on them."""

    CASES = {
        "benchmark": (CriticArch(20, 20, form="joint", hidden=(64, 64)), 128),
        "x_dim_differs": (CriticArch(3, 5, form="joint", hidden=(5, 7)), 9),
        "one_layer": (CriticArch(4, 2, form="joint", hidden=()), 6),
        "n_2": (CriticArch(3, 3, form="joint", hidden=(6, 5)), 2),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_concatenated_network(self, case):
        arch, n = self.CASES[case]
        params = nudged(init_critic(arch, seed=5), seed=6)
        rng = np.random.default_rng(7)
        xs, ys = rng.normal(size=(n, arch.x_dim)), rng.normal(size=(n, arch.y_dim))
        upstream = rng.normal(size=(n, n))
        want_scores, want_grads = concat_scores_and_grads(params.nets[0], xs, ys, upstream)
        scores, cache = score_matrix_with_cache(params, SimpleNamespace(xs=xs, ys=ys))
        assert relative_gap(scores, want_scores) < 1e-12
        grads = backward_from_cache(params, cache, upstream)
        assert [g.shape for g in grads] == [g.shape for g in want_grads]
        for got, want in zip(grads, want_grads):
            assert relative_gap(got, want) < 1e-12

    @pytest.mark.parametrize("widths", [(3, 3), (9, 3), (3, 9)])
    def test_widths_that_miss_the_input_are_rejected(self, widths):
        params = init_critic(CriticArch(3, 5, form="joint", hidden=(4,)), seed=1)
        rng = np.random.default_rng(2)
        batch = SimpleNamespace(xs=rng.normal(size=(4, widths[0])),
                                ys=rng.normal(size=(4, widths[1])))
        with pytest.raises(ValueError):
            score_matrix_with_cache(params, batch)


def two_list_forward(mlp: Mlp, x):
    """The forward pass on a two-list cache, (inputs, preacts), which kept every
    hidden layer's preactivation beside its activation."""
    inputs, preacts = [x], []
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = np.matmul(inputs[i], w)
        z += b
        preacts.append(z)
        if i < last:
            inputs.append(np.maximum(z, 0.0))
    return preacts[-1], (inputs, preacts)


def two_list_backward(mlp: Mlp, cache, dout, dinput=None):
    """The backward pass on a two-list cache, masking on the preactivations;
    returns (weight gradients, bias gradients)."""
    inputs, preacts = cache
    grads_w, grads_b = [None] * len(mlp.weights), [None] * len(mlp.biases)
    dz = dout
    for i in range(len(mlp.weights) - 1, -1, -1):
        grads_w[i] = np.matmul(inputs[i].T, dz)
        grads_b[i] = np.sum(dz, axis=0)
        if i > 0:
            dz = np.multiply(np.matmul(dz, mlp.weights[i].T), preacts[i - 1] > 0.0)
        elif dinput is not None:
            np.matmul(dz, mlp.weights[0].T, out=dinput)
    return [a for layer in zip(grads_w, grads_b) for a in layer]


def two_list_scores_and_grads(params: CriticParams, batch, upstream):
    """Scores and gradients of sum(upstream * scores) from the two-list passes,
    with the joint layer 0 factored the same way."""
    xs, ys = batch.xs, batch.ys
    n = xs.shape[0]
    if params.form == "separable":
        x_tower, y_tower = params.nets
        hx, cache_x = two_list_forward(x_tower, xs)
        hy, cache_y = two_list_forward(y_tower, ys)
        return hx @ hy.T, (two_list_backward(x_tower, cache_x, upstream @ hy)
                           + two_list_backward(y_tower, cache_y, upstream.T @ hx))
    (net,) = params.nets
    w, dx = net.weights[0], xs.shape[1]
    z = np.empty((n * n, w.shape[1]))
    np.add((xs @ w[:dx])[:, None], ys @ w[dx:] + net.biases[0], out=z.reshape(n, n, -1))
    upper = Mlp(net.weights[1:], net.biases[1:])
    scores, dz, grads = z, upstream.reshape(n * n, 1), []
    if upper.weights:
        scores, cache = two_list_forward(upper, np.maximum(z, 0.0))
        dh = np.empty_like(z)
        grads = two_list_backward(upper, cache, dz, dinput=dh)
        dz = np.multiply(dh, z > 0.0)
    dz = dz.reshape(n, n, -1)
    dz_x = dz.sum(axis=1)
    dw0 = np.empty(w.shape)
    np.matmul(xs.T, dz_x, out=dw0[:dx])
    np.matmul(ys.T, dz.sum(axis=0), out=dw0[dx:])
    return scores.reshape(n, n), [dw0, np.sum(dz_x, axis=0)] + grads


def same_bits(got, want) -> bool:
    return np.array_equal(got, want) and got.tobytes() == want.tobytes()


def with_dead_units(params):
    """`params` with the first unit of every hidden layer given zero weights in
    and a zero bias, so its preactivation is exactly 0 on every row."""
    for net in params.nets:
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            w[:, 0] = 0.0
            b[0] = 0.0
    return params


class TestOneArrayCache:
    """The forward cache keeps one array per layer and the backward masks on
    the activation; scores and gradients keep the bits of the two-list passes."""

    CASES = {
        "two_hidden": ((2, 3), (6, 5), 7),
        "one_layer": ((3, 2), (), 5),
        "dead_units": ((3, 3), (4, 6), 6),
    }

    @pytest.mark.parametrize("form", ["joint", "separable"])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_two_list_passes_bitwise(self, case, form):
        (dx, dy), hidden, n = self.CASES[case]
        params = nudged(init_critic(CriticArch(dx, dy, form=form, hidden=hidden, embed=4),
                                    seed=3), seed=4)
        if case == "dead_units":
            params = with_dead_units(params)
        rng = np.random.default_rng(5)
        batch = SimpleNamespace(xs=rng.normal(size=(n, dx)), ys=rng.normal(size=(n, dy)))
        upstream = rng.normal(size=(n, n))
        want_scores, want_grads = two_list_scores_and_grads(params, batch, upstream)
        scores, cache = score_matrix_with_cache(params, batch)
        assert same_bits(scores, want_scores)
        grads = backward_from_cache(params, cache, upstream)
        assert len(grads) == len(want_grads)
        assert all(same_bits(g, w) for g, w in zip(grads, want_grads))
        if case == "dead_units":
            # the ReLU kink at 0 is masked: a dead unit's bias gets no gradient
            start = 0
            for net in params.nets:
                end = start + 2 * len(net.weights)
                assert all(b[0] == 0.0 for b in grads[start + 1:end - 2:2])
                start = end

    def test_mlp_passes_match_the_two_list_passes_bitwise(self):
        net = with_dead_units(nudged(init_critic(
            CriticArch(4, 4, form="separable", hidden=(5, 6), embed=3), seed=1), seed=2)).nets[0]
        x = np.random.default_rng(3).normal(size=(9, 4))
        dout = np.random.default_rng(4).normal(size=(9, 3))
        want, want_cache = two_list_forward(net, x)
        got, cache = mlp_forward(net, x)
        assert same_bits(got, want)
        assert [a.shape for a in cache] == [x.shape, (9, 5), (9, 6), (9, 3)]
        want_dinput, dinput = np.empty_like(x), np.empty_like(x)
        want_grads = two_list_backward(net, want_cache, dout, dinput=want_dinput)
        grads = mlp_backward(net, cache, dout, dinput=dinput)
        assert all(same_bits(g, w) for g, w in zip(grads, want_grads))
        assert same_bits(dinput, want_dinput)

    def test_joint_cache_holds_one_array_per_hidden_layer(self):
        d, n = 20, 128
        params = init_critic(CriticArch(d, d, form="joint", hidden=(64, 64)), seed=0)
        rng = np.random.default_rng(0)
        batch = SimpleNamespace(xs=rng.normal(size=(n, d)), ys=rng.normal(size=(n, d)))
        _, cache = score_matrix_with_cache(params, batch)

        def arrays(node):
            if isinstance(node, np.ndarray):
                return [node]
            return [a for child in node for a in arrays(child)]

        assert sum(a.shape == (n * n, 64) for a in arrays(cache)) == 2

    @pytest.mark.parametrize("case", CASES)
    def test_ragged_blocks_match_the_two_list_passes(self, case, monkeypatch):
        (dx, dy), hidden, n = self.CASES[case]
        ragged_blocks(monkeypatch, n)
        params = with_dead_units(nudged(init_critic(
            CriticArch(dx, dy, form="joint", hidden=hidden), seed=3), seed=4))
        rng = np.random.default_rng(5)
        batch = SimpleNamespace(xs=rng.normal(size=(n, dx)), ys=rng.normal(size=(n, dy)))
        upstream = rng.normal(size=(n, n))
        want_scores, want_grads = two_list_scores_and_grads(params, batch, upstream)
        scores, cache = score_matrix_with_cache(params, batch)
        assert same_bits(scores, want_scores)
        grads = backward_from_cache(params, cache, upstream)
        for got, want in zip(grads, want_grads, strict=True):
            assert relative_gap(got, want) < 1e-12
        assert all(b[0] == 0.0 for b in grads[1:-2:2])


class TestJointTiles:
    """The joint passes run over blocks of x rows; summing the gradients block
    by block reorders their float adds, so they agree with the untiled passes
    to relative 1e-12, and bit for bit in one block."""

    @staticmethod
    def tiled_and_untiled(arch, n, seed=5):
        params = with_dead_units(nudged(init_critic(arch, seed=seed), seed=seed + 1))
        rng = np.random.default_rng(seed + 2)
        xs, ys = rng.normal(size=(n, arch.x_dim)), rng.normal(size=(n, arch.y_dim))
        upstream = rng.normal(size=(n, n))
        want = untiled_scores_and_grads(params.nets[0], xs, ys, upstream)
        scores, cache = score_matrix_with_cache(params, SimpleNamespace(xs=xs, ys=ys))
        return (scores, backward_from_cache(params, cache, upstream)), want

    def test_benchmark_shape_runs_in_blocks_close_to_the_untiled_passes(self):
        arch, n = CriticArch(20, 20, form="joint", hidden=(64, 64)), 128
        assert len(mitk.critic._blocks(n)) > 1
        (scores, grads), (want_scores, want_grads) = self.tiled_and_untiled(arch, n)
        assert same_bits(scores, want_scores)
        for got, want in zip(grads, want_grads, strict=True):
            assert relative_gap(got, want) < 1e-12

    @pytest.mark.parametrize("arch, n", [
        (CriticArch(20, 20, form="joint", hidden=(64, 64)), 16),
        (CriticArch(3, 5, form="joint", hidden=(5, 7)), 9),
        (CriticArch(4, 2, form="joint", hidden=()), 6)])
    def test_one_block_keeps_the_untiled_bits(self, arch, n):
        assert mitk.critic._blocks(n) == [(0, n)]
        (scores, grads), (want_scores, want_grads) = self.tiled_and_untiled(arch, n)
        assert same_bits(scores, want_scores)
        assert all(same_bits(g, w) for g, w in zip(grads, want_grads, strict=True))


class TestAdam:
    def test_zero_grads_leave_params_alone(self):
        params = np.array([1.0, -2.0, 0.5])
        state = init_adam(params, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        _, new_params = adam_step(state, params, np.zeros(3))
        assert np.array_equal(params, new_params)

    def test_first_step_magnitude(self):
        # p=0, g=1, lr=0.1: bias correction makes the first step -lr * sign(g)
        params = np.array([0.0])
        state = init_adam(params, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        _, new_params = adam_step(state, params, np.array([1.0]))
        assert new_params[0] == pytest.approx(-0.1, abs=1e-8)

    def test_constant_gradient_descends_monotonically(self):
        params = np.array([0.0])
        state = init_adam(params, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
        history = [params[0]]
        for _ in range(20):
            state, params = adam_step(state, params, np.array([2.0]))
            history.append(params[0])
        assert all(a > b for a, b in zip(history, history[1:]))

    def test_shape_mismatch_rejected(self):
        params = np.zeros(3)
        state = init_adam(params, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8)
        with pytest.raises(ValueError):
            adam_step(state, params, np.zeros(4))

    def test_state_not_mutated(self):
        params = np.array([1.0])
        grads = np.array([1.0])
        state = init_adam(params, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        scratch = state.scratch.copy()
        adam_step(state, params, grads)
        assert state.step == 0
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)
        assert state.scratch.tobytes() == scratch.tobytes()
        assert params[0] == 1.0 and grads[0] == 1.0

    def test_state_is_one_array_per_moment(self):
        params = np.zeros(7)
        state = init_adam(params, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        assert state.m.shape == state.v.shape == (7,)
        assert state.m.dtype == state.v.dtype == np.float64
        assert state.scratch.shape == (2, 7)
        scratch = state.scratch
        adam_update(state, params, np.ones(7))
        assert state.scratch is scratch  # allocated by init_adam, never again

    def test_in_place_kernel_matches_functional_form_bitwise(self):
        rng = np.random.default_rng(21)
        params = rng.normal(size=17)
        state = init_adam(params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        flat = params.copy()
        in_place = init_adam(flat, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        for _ in range(5):
            grads = rng.normal(scale=10.0, size=params.shape)
            kept = grads.copy()
            state, params = adam_step(state, params, grads)
            adam_update(in_place, flat, grads)
            assert same_bits(grads, kept)
            assert in_place.step == state.step
            for a, b in ((params, flat), (state.m, in_place.m), (state.v, in_place.v)):
                assert same_bits(a, b)

    def test_in_place_kernel_rejects_mismatch_before_writing(self):
        state = init_adam(np.zeros(3), lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8)
        adam_update(state, np.zeros(3), np.ones(3))  # moments away from zero
        m, v = state.m.copy(), state.v.copy()
        # grads, params, and both against the state
        for params_size, grads_size in ((3, 4), (4, 3), (4, 4)):
            params = np.full(params_size, 0.5)
            with pytest.raises(ValueError, match="optimizer state"):
                adam_update(state, params, np.ones(grads_size))
            assert state.step == 1 and np.all(params == 0.5)
            assert same_bits(state.m, m) and same_bits(state.v, v)


class TestParamArrays:
    def test_round_trip(self):
        params = init_critic(CriticArch(3, 2, form="separable", hidden=(4,), embed=3), seed=6)
        arrays = param_arrays(params)
        rebuilt = with_param_arrays(params, [a + 1.0 for a in arrays])
        for old, new in zip(arrays, param_arrays(rebuilt)):
            assert np.allclose(new, old + 1.0, atol=0)

    def test_length_checked(self):
        params = init_critic(CriticArch(2, 2, form="joint", hidden=(4,)), seed=6)
        with pytest.raises(ValueError):
            with_param_arrays(params, param_arrays(params) + [np.zeros(1)])


class TestBuffers:
    def test_flat_buffer_views_alias_one_vector(self):
        params = init_critic(CriticArch(3, 2, form="separable", hidden=(4,), embed=3), seed=6)
        arrays = param_arrays(params)
        flat, views = flat_buffer(arrays)
        assert flat.size == sum(a.size for a in arrays)
        for a, v in zip(arrays, views):
            assert np.array_equal(a, v) and np.shares_memory(v, flat)
        flat += 1.0
        assert all(np.array_equal(v, a + 1.0) for a, v in zip(arrays, views))
        with pytest.raises(ValueError):
            buffer_views(np.zeros(flat.size + 1), arrays)

    @pytest.mark.parametrize("form", ["joint", "separable"])
    def test_out_buffers_give_the_same_bits(self, form, monkeypatch):
        ragged_blocks(monkeypatch, 7)
        rng = np.random.default_rng(4)
        params = init_critic(CriticArch(3, 3, form=form, hidden=(6, 5), embed=4), seed=3)
        params = with_param_arrays(
            params, [a + rng.normal(scale=0.1, size=a.shape) for a in param_arrays(params)])
        n = 7
        upstream = rng.normal(size=(n, n))

        cache = None
        for seed in range(3):
            batch = small_batch(n=n, seed=seed)
            want, want_cache = score_matrix_with_cache(params, batch)
            want_grads = backward_from_cache(params, want_cache, upstream)
            earlier = None if cache is None else cache[-1]
            got, cache = score_matrix_with_cache(params, batch, cache=cache)
            assert np.array_equal(got, want)
            # the table lives in the cache, written over by each forward pass
            assert np.shares_memory(got, cache[-1])
            assert earlier is None or np.shares_memory(got, earlier)
            grads = [np.full(a.shape, np.nan) for a in param_arrays(params)]
            backward_from_cache(params, cache, upstream, out=grads)
            assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
            assert np.array_equal(got, want)  # backward leaves the table readable

    @pytest.mark.parametrize("kind, form", [
        *(pytest.param(kind, "joint", id=kind) for kind in ("dv", "tuba", "nwj", "infonce")),
        *(pytest.param(kind, "separable", id=f"{kind}-separable")
          for kind in ("ba_lower", "dv", "tuba", "nwj", "infonce"))])
    def test_joint_step_allocates_less_than_the_paired_input(self, kind, form):
        # building the objective reserves every array a step writes into, so
        # the first step allocates no more than the second; on the joint
        # critic the concatenated [x_i, y_j] rows alone would take n^2 * 2d
        # float64s, and one n^2 x 64 ReLU mask n^2 * 64 bytes: the passes run
        # in blocks
        d, n = 20, 128
        task = task_for_target_mi(d, 2.0)
        objective = make_objective(kind, task, TrainSettings(batch_size=n, critic_form=form))
        batch = sample(task, n, seed=0, stream=2)
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                objective.value_and_grad(batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        first, second = peaks
        assert abs(first - second) < 4096
        if form == "joint":
            assert second < n * n * 64

    def test_forward_reuses_the_cache_it_is_given(self):
        net = init_mlp((3, 5, 4, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 3))
        _, first = mlp_forward(net, x)
        out, second = mlp_forward(net, 2.0 * x, out=first)
        assert len(second) == 4 and second[0] is not first[0]
        assert all(a is b for a, b in zip(second[1:], first[1:]))
        want, _ = mlp_forward(net, 2.0 * x)
        assert np.array_equal(out, want)
        want_grads = mlp_backward(net, mlp_forward(net, x)[1], np.ones((6, 2)))
        grads = [np.empty_like(a) for a in param_arrays(net)]
        got = mlp_backward(net, mlp_forward(net, x, out=second)[1], np.ones((6, 2)), out=grads)
        assert got is grads
        assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
