"""Score networks: initialization, forward passes, exact gradients, Adam."""

import math

import numpy as np
import pytest

from mitk.critic import (
    AdamState,
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
from mitk.gaussian import GaussianTask, sample


def small_batch(n=8, dim=3, seed=0):
    return sample(GaussianTask(dim, 0.5), n, seed=seed)


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
        _, (_, cache_x, _, cache_y) = score_matrix_with_cache(sep, batch)
        assert cache_x[0][0].shape[0] + cache_y[0][0].shape[0] == 2 * n
        joint = init_critic(CriticArch(3, 3, form="joint", hidden=(8,)), seed=0)
        _, (inputs, _) = score_matrix_with_cache(joint, batch)
        assert inputs[0].shape[0] == n * n


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
    def test_gradients_match_finite_differences(self, form):
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


class TestAdam:
    def test_zero_grads_leave_params_alone(self):
        params = [np.array([1.0, -2.0]), np.array([[0.5]])]
        state = init_adam(params, lr=0.1)
        _, new_params = adam_step(state, params, [np.zeros(2), np.zeros((1, 1))])
        for p, q in zip(params, new_params):
            assert np.array_equal(p, q)

    def test_first_step_magnitude(self):
        # p=0, g=1, lr=0.1: bias correction makes the first step -lr * sign(g)
        params = [np.array([0.0])]
        state = init_adam(params, lr=0.1)
        _, new_params = adam_step(state, params, [np.array([1.0])])
        assert new_params[0][0] == pytest.approx(-0.1, abs=1e-8)

    def test_constant_gradient_descends_monotonically(self):
        params = [np.array([0.0])]
        state = init_adam(params, lr=0.05)
        history = [params[0][0]]
        for _ in range(20):
            state, params = adam_step(state, params, [np.array([2.0])])
            history.append(params[0][0])
        assert all(a > b for a, b in zip(history, history[1:]))

    def test_shape_mismatch_rejected(self):
        params = [np.zeros(3)]
        state = init_adam(params)
        with pytest.raises(ValueError):
            adam_step(state, params, [np.zeros(4)])

    def test_state_not_mutated(self):
        params = [np.array([1.0])]
        grads = [np.array([1.0])]
        state = init_adam(params, lr=0.1)
        adam_step(state, params, grads)
        assert state.step == 0
        assert np.all(state.m[0] == 0.0) and np.all(state.v[0] == 0.0)
        assert params[0][0] == 1.0 and grads[0][0] == 1.0

    def test_in_place_kernel_matches_functional_form_bitwise(self):
        rng = np.random.default_rng(21)
        params = [rng.normal(size=(3, 4)), rng.normal(size=5)]
        state = init_adam(params, lr=0.01)
        flat = [p.copy() for p in params]
        in_place = init_adam(flat, lr=0.01)
        for _ in range(5):
            grads = [rng.normal(scale=10.0, size=p.shape) for p in params]
            kept = [g.copy() for g in grads]
            state, params = adam_step(state, params, grads)
            adam_update(in_place, flat, grads)
            assert all(np.array_equal(g, k) for g, k in zip(grads, kept))
            assert in_place.step == state.step
            for a, b in zip(params + state.m + state.v, flat + in_place.m + in_place.v):
                assert np.array_equal(a, b)

    def test_in_place_kernel_rejects_mismatch_before_writing(self):
        params = [np.zeros(3), np.zeros(2)]
        state = init_adam(params)
        with pytest.raises(ValueError):
            adam_update(state, params, [np.ones(3), np.ones(4)])
        assert state.step == 0 and np.all(params[0] == 0.0) and np.all(state.m[0] == 0.0)


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
    def test_out_buffers_give_the_same_bits(self, form):
        rng = np.random.default_rng(4)
        params = init_critic(CriticArch(3, 3, form=form, hidden=(6, 5), embed=4), seed=3)
        params = with_param_arrays(
            params, [a + rng.normal(scale=0.1, size=a.shape) for a in param_arrays(params)])
        n = 7
        upstream = rng.normal(size=(n, n))
        table = np.empty((n, n)) if form == "separable" else None
        cache = None
        for seed in range(3):
            batch = small_batch(n=n, seed=seed)
            want, want_cache = score_matrix_with_cache(params, batch)
            want_grads = backward_from_cache(params, want_cache, upstream)
            got, cache = score_matrix_with_cache(params, batch, out=table, cache=cache)
            assert np.array_equal(got, want)
            if form == "separable":
                assert got is table
            else:  # a view of the cache's output, written over by each forward pass
                assert np.shares_memory(got, cache[1][-1])
            grads = [np.full(a.shape, np.nan) for a in param_arrays(params)]
            backward_from_cache(params, cache, upstream, out=grads)
            assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
            assert np.array_equal(got, want)  # backward leaves the table readable

    def test_forward_reuses_the_cache_it_is_given(self):
        net = init_mlp((3, 5, 4, 2), np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 3))
        _, first = mlp_forward(net, x)
        out, second = mlp_forward(net, 2.0 * x, out=first)
        held = first[0][1:] + first[1]
        assert all(a is b for a, b in zip(second[0][1:] + second[1], held))
        want, _ = mlp_forward(net, 2.0 * x)
        assert np.array_equal(out, want)
        dw, db = mlp_backward(net, mlp_forward(net, x)[1], np.ones((6, 2)))
        grads = [np.empty_like(a) for a in param_arrays(net)]
        mlp_backward(net, mlp_forward(net, x, out=second)[1], np.ones((6, 2)), out=grads)
        assert all(np.array_equal(g, w) for g, w in zip(grads, [dw[0], db[0], dw[1], db[1],
                                                               dw[2], db[2]]))
