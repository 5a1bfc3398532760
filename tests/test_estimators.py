"""Estimator values, gradients, reductions, and the training loop."""

import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mitk.critic as nets
from mitk.critic import (
    CriticArch,
    CriticParams,
    Mlp,
    init_critic,
    param_arrays,
)
from mitk.estimators import (
    DecoderParams,
    EstimateTrajectory,
    EstimatorKind,
    TrainSettings,
    TrainingDiverged,
    _offdiag_lse,
    dv_from_scores,
    est_ba_lower,
    est_ba_upper,
    est_dv,
    est_infonce,
    est_l1out,
    est_nwj,
    est_tuba,
    infonce_from_scores,
    init_decoder,
    make_objective,
    nwj_from_scores,
    train_estimator,
    trajectory_csv_text,
    trajectory_filename,
    tuba_from_scores,
)
from mitk.gaussian import (
    GaussianTask,
    cond_log_density,
    marginal_entropy,
    marginal_log_density,
    sample,
    task_for_target_mi,
    true_mi,
)

MI_D1_RHO05 = 0.14384103622589045


def constant_critic(c: float, dim: int) -> CriticParams:
    """Joint-form critic computing exactly c for every pair."""
    w = np.zeros((2 * dim, 1))
    b = np.array([c])
    return CriticParams("joint", (Mlp([w], [b]),))


def constant_baseline(log_a: float, dim: int) -> Mlp:
    return Mlp([np.zeros((dim, 1))], [np.array([log_a])])


def log_ratio_scores(task: GaussianTask, batch) -> np.ndarray:
    """The optimal unnormalized critic: pointwise log density ratio."""
    return cond_log_density(task, batch.ys[:, None, :], batch.xs[None, :, :]) - (
        marginal_log_density(task, batch.ys)[:, None])


class TestScoreReductions:
    def test_constant_scores_give_zero(self):
        s = np.full((16, 16), 1.7)
        assert abs(dv_from_scores(s)) <= 1e-12
        assert abs(infonce_from_scores(s)) <= 1e-12

    def test_nwj_constant_family(self):
        # value of a constant critic c is c - e^(c-1), maximal (zero) at c=1
        for c in (-1.0, 0.0, 1.0, 2.5):
            s = np.full((8, 8), c)
            assert nwj_from_scores(s) == pytest.approx(c - math.exp(c - 1.0), abs=1e-12)
        assert abs(nwj_from_scores(np.ones((8, 8)))) <= 1e-12

    def test_tuba_tight_baseline_zeroes_constant_critic(self):
        for c in (-0.5, 0.0, 2.0):
            s = np.full((8, 8), c)
            assert tuba_from_scores(s, np.full(8, c)) == pytest.approx(0.0, abs=1e-12)

    def test_tuba_mismatched_baseline_is_strictly_worse(self):
        s = np.full((8, 8), 1.3)
        tight = tuba_from_scores(s, np.full(8, 1.3))
        for delta in (-0.7, 0.4, 1.5):
            assert tuba_from_scores(s, np.full(8, 1.3 + delta)) < tight - 1e-4

    def test_tangent_bounds_past_the_exp_overflow_are_minus_inf(self):
        # each column's penalty is finite, the sum in their mean is not
        assert nwj_from_scores(np.full((2, 2), 710.5)) == -math.inf
        assert tuba_from_scores(np.full((2, 2), 709.5), np.zeros(2)) == -math.inf

    def test_infonce_capped_at_log_batch(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            s = rng.normal(scale=rng.uniform(0.5, 10.0), size=(n, n))
            assert infonce_from_scores(s) <= math.log(n) + 1e-12

    def test_tangent_inequality_scalar_family(self):
        # ln z <= z/a + ln a - 1 with equality iff z = a
        rng = np.random.default_rng(1)
        z = rng.uniform(0.05, 20.0, size=10_000)
        a = rng.uniform(0.05, 20.0, size=10_000)
        lhs = np.log(z)
        rhs = z / a + np.log(a) - 1.0
        assert np.all(lhs <= rhs + 1e-12)
        # equality case z = a, up to rounding of the (1 + ln a - 1) dance
        at_tangent = a / a + np.log(a) - 1.0
        assert np.allclose(np.log(a), at_tangent, atol=1e-12)
        # strictness away from the tangent point
        off = np.abs(z / a - 1.0) > 0.1
        assert np.all(lhs[off] < rhs[off] - 1e-4)

    def test_dv_dominates_uba_per_batch_on_log_ratio(self):
        # plug-in log partition averages logs; dv logs the average, so dv >= uba
        task = GaussianTask(1, 0.5)
        for seed in range(5):
            batch = sample(task, 64, seed=seed)
            s = log_ratio_scores(task, batch)
            assert dv_from_scores(s) >= dv_from_scores(s) * 0  # finite
            assert dv_from_scores(s) >= (
                s.diagonal().mean()
                - np.log(np.exp(s[~np.eye(64, dtype=bool)]).mean())
            ) - 1e-9


class TestScoreTableChecks:
    """The public reductions reject a table that is not n x n with n >= 2,
    and a log-baseline that is not one entry per column, naming the shape."""

    @pytest.mark.parametrize("shape", [(3, 4), (1, 1), (0, 0), (4,), (2, 2, 2)])
    def test_table_shape_is_checked(self, shape):
        scores = np.zeros(shape)
        for reduce in (dv_from_scores, nwj_from_scores, infonce_from_scores,
                       lambda s: tuba_from_scores(s, np.zeros(shape[:1]))):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                reduce(scores)

    @pytest.mark.parametrize("log_a", [np.zeros(1), np.zeros(3), np.zeros((4, 1)), 1.0])
    def test_baseline_shape_is_checked(self, log_a):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(log_a)}")):
            tuba_from_scores(np.zeros((4, 4)), log_a)


@st.composite
def scores_and_baseline(draw, bound=1e3):
    """(n x n score matrix with |s| <= bound, log-baseline vector in [-5, 5])."""
    n = draw(st.integers(2, 10))
    scores = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-bound, bound)))
    log_a = draw(hnp.arrays(np.float64, (n,), elements=st.floats(-5.0, 5.0)))
    return scores, log_a


def close(a: float, b: float, scale: float) -> bool:
    """Equal up to rounding: 1e-12 of the largest magnitude involved (thousands of ulps)."""
    return a == b or abs(a - b) <= 1e-12 * max(1.0, scale, abs(a), abs(b))


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


class TestScoreProperties:
    @given(scores_and_baseline())
    @PROPERTY_SETTINGS
    def test_infonce_capped_at_log_batch(self, case):
        s, _ = case
        n = s.shape[0]
        assert infonce_from_scores(s) <= math.log(n) + 1e-12 * max(1.0, np.abs(s).max())

    @given(scores_and_baseline())
    @PROPERTY_SETTINGS
    def test_tuba_at_unit_log_baseline_is_nwj_bitwise(self, case):
        s, _ = case
        np.testing.assert_array_equal(tuba_from_scores(s, np.ones(s.shape[0])),
                                      nwj_from_scores(s))

    @given(scores_and_baseline(), st.floats(-100.0, 100.0))
    @PROPERTY_SETTINGS
    def test_dv_invariant_to_global_shift(self, case, shift):
        s, _ = case
        scale = np.abs(s).max() + abs(shift)
        assert close(dv_from_scores(s + shift), dv_from_scores(s), scale)

    @given(st.data())
    @PROPERTY_SETTINGS
    def test_infonce_invariant_to_row_shifts(self, data):
        s, _ = data.draw(scores_and_baseline())
        shifts = data.draw(hnp.arrays(np.float64, (s.shape[0],),
                                      elements=st.floats(-100.0, 100.0)))
        scale = np.abs(s).max() + np.abs(shifts).max()
        assert close(infonce_from_scores(s + shifts[:, None]), infonce_from_scores(s), scale)

    @given(st.data())
    @PROPERTY_SETTINGS
    def test_values_invariant_to_permuting_pairs(self, data):
        s, log_a = data.draw(scores_and_baseline())
        perm = np.array(data.draw(st.permutations(range(s.shape[0]))))
        # pair i moves to slot perm^-1(i): rows (x) and columns (y) move together
        t = s[perm][:, perm]
        scale = np.abs(s).max()
        assert close(dv_from_scores(t), dv_from_scores(s), scale)
        assert close(infonce_from_scores(t), infonce_from_scores(s), scale)
        assert close(nwj_from_scores(t), nwj_from_scores(s), scale)
        assert close(tuba_from_scores(t, log_a[perm]), tuba_from_scores(s, log_a), scale)

    @given(scores_and_baseline())
    @PROPERTY_SETTINGS
    def test_log_domain_values_finite_at_extreme_scores(self, case):
        s, log_a = case
        assert math.isfinite(dv_from_scores(s))
        assert math.isfinite(infonce_from_scores(s))
        # the tangent bounds pay e^(score): past the exp overflow they are -inf, never NaN
        assert not math.isnan(nwj_from_scores(s))
        assert not math.isnan(tuba_from_scores(s, log_a))

    @given(scores_and_baseline(bound=700.0))
    @PROPERTY_SETTINGS
    def test_tangent_values_finite_below_exp_overflow(self, case):
        s, log_a = case
        assert math.isfinite(nwj_from_scores(s))
        assert math.isfinite(tuba_from_scores(s, log_a))


class TestCriticEstimators:
    def test_constant_critic_values(self):
        task = GaussianTask(2, 0.5)
        batch = sample(task, 32, seed=0)
        critic = constant_critic(0.8, 2)
        assert est_dv(batch, critic) == pytest.approx(0.0, abs=1e-12)
        assert est_infonce(batch, critic) == pytest.approx(0.0, abs=1e-12)
        assert est_nwj(batch, critic) == pytest.approx(0.8 - math.exp(-0.2), abs=1e-12)

    def test_tuba_matches_nwj_bitwise_with_unit_log_baseline(self):
        task = GaussianTask(3, 0.4)
        critic = init_critic(CriticArch(3, 3, hidden=(16,), embed=4), seed=2)
        baseline = constant_baseline(1.0, 3)
        for seed in range(10):
            batch = sample(task, 32, seed=seed)
            assert est_tuba(batch, critic, baseline) == est_nwj(batch, critic)

    def test_dv_with_optimal_critic_near_truth(self):
        task = GaussianTask(1, 0.5)
        batch = sample(task, 8192, seed=4)
        value = dv_from_scores(log_ratio_scores(task, batch))
        assert value == pytest.approx(MI_D1_RHO05, abs=0.02)

    def test_nwj_with_shifted_optimal_critic_near_truth(self):
        # the optimal unnormalized critic for this bound is 1 + log ratio
        task = GaussianTask(1, 0.5)
        batch = sample(task, 8192, seed=5)
        value = nwj_from_scores(1.0 + log_ratio_scores(task, batch))
        assert value == pytest.approx(MI_D1_RHO05, abs=0.02)


class TestTractableEstimators:
    def test_ba_upper_with_true_marginal_unbiased(self):
        task = GaussianTask(1, 0.5)
        batch = sample(task, 200_000, seed=6)
        est = est_ba_upper(
            batch,
            lambda y, x: cond_log_density(task, y, x),
            lambda y: marginal_log_density(task, y),
        )
        assert est == pytest.approx(MI_D1_RHO05, abs=0.01)

    def test_ba_upper_wrong_marginal_inflates(self):
        # auxiliary marginal with variance 2: the excess equals
        # KL(N(0,1) || N(0,2)) = (ln 2 - 1/2) / 2 per coordinate
        task = GaussianTask(1, 0.5)
        batch = sample(task, 200_000, seed=7)
        wide = lambda y: (-0.5 * (y * y / 2.0 + math.log(2.0 * math.pi * 2.0))).sum(axis=-1)
        est = est_ba_upper(batch, lambda y, x: cond_log_density(task, y, x), wide)
        excess = 0.5 * (math.log(2.0) - 0.5)
        assert est == pytest.approx(MI_D1_RHO05 + excess, abs=0.01)
        assert est > true_mi(task)

    def test_ba_lower_with_exact_decoder_is_tight(self):
        task = GaussianTask(3, 0.6)
        batch = sample(task, 100_000, seed=8)
        w = np.eye(3) * task.rho
        decoder = DecoderParams(
            Mlp([w], [np.zeros(3)]), np.full(3, math.log(1.0 - task.rho**2))
        )
        est = est_ba_lower(batch, decoder, marginal_entropy(task))
        assert est == pytest.approx(true_mi(task), abs=0.01)

    def test_ba_lower_marginal_decoder_is_zero(self):
        task = GaussianTask(3, 0.6)
        batch = sample(task, 100_000, seed=9)
        decoder = DecoderParams(Mlp([np.zeros((3, 3))], [np.zeros(3)]), np.zeros(3))
        est = est_ba_lower(batch, decoder, marginal_entropy(task))
        assert est == pytest.approx(0.0, abs=0.01)

    def test_l1out_two_samples_single_contrast(self):
        task = GaussianTask(1, 0.5)
        batch = sample(task, 2, seed=10)
        table = cond_log_density(task, batch.ys[:, None, :], batch.xs[None, :, :])
        expected = 0.5 * ((table[0, 0] - table[0, 1]) + (table[1, 1] - table[1, 0]))
        assert est_l1out(batch, lambda y, x: cond_log_density(task, y, x)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_l1out_zero_correlation_centers_on_zero(self):
        task = GaussianTask(1, 0.0)
        values = [
            est_l1out(sample(task, 128, seed=s), lambda y, x: cond_log_density(task, y, x))
            for s in range(60)
        ]
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        assert abs(mean) <= 3 * se + 1e-9

    def test_l1out_upper_bounds_truth_on_average(self):
        task = GaussianTask(1, 0.5)
        values = [
            est_l1out(sample(task, 128, seed=s), lambda y, x: cond_log_density(task, y, x))
            for s in range(200)
        ]
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        assert mean >= true_mi(task) - 3 * se


class TestDecoder:
    def test_init_deterministic_and_zero_logvar(self):
        a = init_decoder(4, (8,), seed=3)
        b = init_decoder(4, (8,), seed=3)
        assert np.array_equal(a.net.weights[0], b.net.weights[0])
        assert np.all(a.log_var == 0.0)

    def test_decoder_gradients_match_finite_differences(self):
        task = GaussianTask(2, 0.5)
        batch = sample(task, 16, seed=11)
        decoder = init_decoder(2, (6,), seed=12)
        rng = np.random.default_rng(13)
        # generic parameter point: zero biases can park preactivations on the kink
        decoder = DecoderParams(
            nets.with_param_arrays(decoder.net, [a + rng.normal(scale=0.05, size=a.shape)
                                                 for a in param_arrays(decoder.net)]),
            decoder.log_var + rng.normal(scale=0.05, size=2),
        )
        h_x = marginal_entropy(task)

        def objective(net_arrays, log_var):
            d = DecoderParams(nets.with_param_arrays(decoder.net, net_arrays), log_var)
            return est_ba_lower(batch, d, h_x)

        # analytic gradients via the training path
        mean, cache = nets.mlp_forward(decoder.net, batch.ys)
        resid = batch.xs - mean
        inv_var = np.exp(-decoder.log_var)
        dmean = resid * inv_var / batch.n
        analytic = nets.mlp_backward(decoder.net, cache, dmean)
        analytic.append(0.5 * ((resid * resid) * inv_var - 1.0).sum(axis=0) / batch.n)

        arrays = param_arrays(decoder.net)
        h = 1e-5
        worst = 0.0
        for k in range(len(arrays) + 1):
            target = arrays[k] if k < len(arrays) else decoder.log_var
            flat = target.ravel()
            for idx in range(flat.size):
                def bumped(delta):
                    net_arrays = [a.copy() for a in arrays]
                    log_var = decoder.log_var.copy()
                    if k < len(arrays):
                        net_arrays[k].ravel()[idx] += delta
                    else:
                        log_var[idx] += delta
                    return objective(net_arrays, log_var)

                numeric = (bumped(h) - bumped(-h)) / (2 * h)
                got = analytic[k].ravel()[idx]
                scale = max(abs(numeric), abs(got), 1e-8)
                worst = max(worst, abs(numeric - got) / scale)
        assert worst < 1e-5


class TestTraining:
    def test_zero_steps_single_record(self):
        task = GaussianTask(2, 0.5)
        traj = train_estimator("nwj", task, TrainSettings(steps=0, batch_size=32, seed=0))
        assert len(traj.records) == 1
        assert traj.records[0][0] == 0

    def test_record_count_matches_schedule(self):
        task = GaussianTask(2, 0.5)
        settings = TrainSettings(steps=200, batch_size=16, seed=0, eval_every=100,
                                 hidden=(8,), embed=4)
        traj = train_estimator("infonce", task, settings)
        assert [r[0] for r in traj.records] == [0, 100, 200]

    def test_deterministic_trajectories(self):
        task = GaussianTask(2, 0.5)
        settings = TrainSettings(steps=150, batch_size=16, seed=3, hidden=(8,), embed=4)
        a = train_estimator("dv", task, settings)
        b = train_estimator("dv", task, settings)
        assert a.records == b.records

    def test_untrained_kinds_flat_schedule(self):
        task = GaussianTask(1, 0.5)
        settings = TrainSettings(steps=300, batch_size=64, seed=0, eval_every=100)
        for kind in ("ba_upper", "l1out"):
            traj = train_estimator(kind, task, settings)
            assert len(traj.records) == 4
            spread = max(r[1] for r in traj.records) - min(r[1] for r in traj.records)
            assert spread < 0.5  # evaluation noise only, no drift

    def test_short_training_improves_lower_bounds(self):
        task = task_for_target_mi(5, 1.0)
        for kind in ("nwj", "infonce", "ba_lower"):
            settings = TrainSettings(steps=500, batch_size=64, seed=0,
                                     hidden=(16, 16), embed=8, lr=2e-3)
            traj = train_estimator(kind, task, settings)
            assert traj.final_smoothed > traj.untrained_estimate + 0.1, kind

    def test_diverged_training_reports_step_and_config(self):
        # a huge step size blows the scores past exp overflow within a step
        task = GaussianTask(2, 0.9)
        settings = TrainSettings(steps=400, batch_size=16, seed=0,
                                 hidden=(8,), embed=4, lr=50.0)
        for kind in ("nwj", "tuba"):
            with pytest.raises(TrainingDiverged) as err:
                train_estimator(kind, task, settings)
            assert err.value.step >= 0
            assert err.value.config["estimator"] == kind
            # last, what the table held: a column ratio can only overflow past
            # an off-diagonal score of about 709.8 + log a
            match = re.fullmatch(r"non-finite objective -inf at step \d+; config=\{.*\}; "
                                 r"max \|score\| (\S+), e\^\(column log-mean-exp - log a\) "
                                 r"overflowed in (\d+) of 16 columns", str(err.value))
            assert match and float(match[1]) > 700.0 and 1 <= int(match[2]) <= 16, str(err.value)
        # the cause is read off the objective's last table and state
        small = TrainSettings(batch_size=4, hidden=(8,), embed=4)
        for kind, cause in (("nwj", "max |score| 900, e^(column log-mean-exp - log a) "
                                    "overflowed in 1 of 4 columns"),
                            ("infonce", "max |score| 900")):
            objective = make_objective(kind, task, small)
            table = objective.cache[-1]
            table[...] = 0.0
            table[0, 2], table[1, 3] = 800.0, -900.0
            objective.from_scores(table)
            assert objective.divergence_cause() == cause
        assert make_objective("ba_upper", task, small).divergence_cause() == ""

    def test_parameters_stay_views_of_one_buffer_across_steps(self, monkeypatch):
        task = GaussianTask(2, 0.5)
        settings = TrainSettings(steps=5, batch_size=16, seed=1, hidden=(8,), embed=4)
        rebuilds, updated = [], []
        real_rebuild, real_update = nets.with_param_arrays, nets.adam_update
        monkeypatch.setattr(nets, "with_param_arrays",
                            lambda *args: rebuilds.append(1) or real_rebuild(*args))
        monkeypatch.setattr(nets, "adam_update",
                            lambda state, params, grads: updated.append((state, params, grads))
                            or real_update(state, params, grads))
        _, objective = train_estimator("tuba", task, settings, return_components=True)
        assert len(rebuilds) == 2  # critic and baseline, once per run
        # every step hands Adam the objective's own state and flat vectors, not copies
        assert len(updated) == 5
        assert all(s is objective.adam and p is objective.params and g is objective.grad
                   for s, p, g in updated)
        assert objective.adam.step == 5
        arrays = param_arrays(objective.critic) + param_arrays(objective.baseline)
        assert all(np.shares_memory(a, objective.params) for a in arrays)
        fresh = param_arrays(init_critic(CriticArch(2, 2, hidden=(8,), embed=4), seed=1))
        assert not np.array_equal(arrays[0], fresh[0])  # the views saw the updates

    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda kind: kind.value)
    def test_objective_owns_its_adam_state(self, kind):
        settings = TrainSettings(batch_size=8, hidden=(4,), embed=2, lr=1e-3, beta1=0.8,
                                 beta2=0.99, eps=1e-6)
        objective = make_objective(kind, GaussianTask(2, 0.5), settings)
        if kind.is_upper:
            assert objective.params is None and objective.adam is None
            return
        adam = objective.adam
        assert adam.m.shape == adam.v.shape == objective.params.shape
        assert not adam.m.any() and not adam.v.any()
        assert adam.step == 0
        assert (adam.lr, adam.beta1, adam.beta2, adam.eps) == (1e-3, 0.8, 0.99, 1e-6)

    def test_kind_direction_flags(self, monkeypatch):
        assert EstimatorKind.BA_UPPER_R.is_upper
        assert EstimatorKind.L1OUT.is_upper
        for kind in (EstimatorKind.DV, EstimatorKind.TUBA, EstimatorKind.NWJ,
                     EstimatorKind.INFONCE, EstimatorKind.BA_LOWER):
            assert not kind.is_upper
        # the upper bounds have nothing to train: their runs never step Adam
        updated = []
        monkeypatch.setattr(nets, "adam_update", lambda *args: updated.append(args))
        settings = TrainSettings(steps=3, batch_size=8, eval_every=1, hidden=(4,), embed=2)
        for kind in (EstimatorKind.BA_UPPER_R, EstimatorKind.L1OUT):
            assert len(train_estimator(kind, GaussianTask(2, 0.5), settings).records) == 4
        assert updated == []


class TestBoundSoundness:
    """Held-out soundness at fixed trained parameters, 500 fresh batches."""

    def test_lower_bounds_stay_below_truth(self):
        task = task_for_target_mi(5, 1.0)
        target = true_mi(task)
        for tag in ("dv", "tuba", "nwj", "infonce", "ba_lower"):
            settings = TrainSettings(steps=1500, batch_size=64, seed=0,
                                     hidden=(32, 32), embed=16, lr=1e-3)
            _, objective = train_estimator(tag, task, settings, return_components=True)
            values = np.array([
                objective.value(sample(task, 64, seed=2, stream=5000 + k)) for k in range(500)
            ])
            se = float(values.std(ddof=1) / math.sqrt(values.size))
            assert values.mean() <= target + 3 * se, (tag, values.mean(), target)

    def test_upper_bounds_stay_above_truth(self):
        task = task_for_target_mi(5, 1.0)
        target = true_mi(task)
        for tag in ("ba_upper", "l1out"):
            objective = make_objective(tag, task, TrainSettings(batch_size=64))
            values = np.array([
                objective.value(sample(task, 64, seed=3, stream=8000 + k)) for k in range(500)
            ])
            se = float(values.std(ddof=1) / math.sqrt(values.size))
            assert values.mean() >= target - 3 * se, (tag, values.mean(), target)


def _tables(n, rng):
    """Random score tables, ending with ones whose |s| reaches 1e3, where
    the exponentials overflow or underflow."""
    yield rng.normal(scale=3.0, size=(n, n))
    yield np.full((n, n), 1.7)
    yield rng.uniform(-1e3, 1e3, size=(n, n))
    big_diagonal = rng.normal(size=(n, n))
    np.fill_diagonal(big_diagonal, 1e3)
    yield big_diagonal
    yield np.full((n, n), -1e3) + rng.normal(size=(n, n))
    yield 1e3 + rng.normal(size=(n, n))


# Reference reductions: plain allocating forms, written apart from the
# kernels in mitk.estimators so that the pins below compare two codes.


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


def ref_tuba(scores: np.ndarray, log_a: np.ndarray) -> float:
    col_lme = _offdiag_col_logmeanexp(scores)
    with np.errstate(over="ignore"):
        penalty = np.exp(col_lme - log_a) + log_a - 1.0
    return float(scores.diagonal().mean() - penalty.mean())


def ref_nwj(scores: np.ndarray) -> float:
    return ref_tuba(scores, np.ones(scores.shape[0]))


def ref_dv(scores: np.ndarray) -> float:
    n = scores.shape[0]
    masked = scores.copy()
    np.fill_diagonal(masked, -np.inf)
    return float(scores.diagonal().mean() - (_logsumexp(masked) - math.log(n * (n - 1))))


def ref_infonce(scores: np.ndarray) -> float:
    n = scores.shape[0]
    row_lse = _logsumexp(scores, axis=1)
    return float((scores.diagonal() - row_lse + math.log(n)).mean())


def ref_l1out(table: np.ndarray) -> float:
    """Leave-one-out bound on a table of ln p(y_i | x_j)."""
    n = table.shape[0]
    masked = table.copy()
    np.fill_diagonal(masked, -np.inf)
    return float((table.diagonal() - (_logsumexp(masked, axis=1) - math.log(n - 1))).mean())


REFERENCES = {"dv": ref_dv, "nwj": ref_nwj, "infonce": ref_infonce}


class TestFusedObjectives:
    """The bound kernels, run in an objective's workspace and in the public
    functions' fresh one, against the reference reductions bit for bit."""

    N = 9
    SIZES = (2, 9)

    def objective(self, tag, form="separable", n=N):
        settings = TrainSettings(batch_size=n, hidden=(8,), embed=4, critic_form=form)
        return make_objective(tag, GaussianTask(2, 0.5), settings)

    @pytest.mark.parametrize("tag,public", [
        ("dv", dv_from_scores), ("nwj", nwj_from_scores), ("infonce", infonce_from_scores)])
    def test_value_on_tables_equals_reference(self, tag, public):
        rng = np.random.default_rng(31)
        with np.errstate(over="ignore"):
            for n in self.SIZES:
                objective = self.objective(tag, n=n)
                for table in _tables(n, rng):
                    kept = table.copy()
                    expected = REFERENCES[tag](table)
                    assert objective.from_scores(table) == expected
                    assert public(table) == expected
                    assert np.array_equal(table, kept)

    def test_tuba_value_on_tables_equals_reference(self):
        rng = np.random.default_rng(32)
        for n in self.SIZES:
            objective = self.objective("tuba", n=n)
            for table in _tables(n, rng):
                for log_a in (rng.normal(size=n), np.ones(n), rng.uniform(-1e3, 1e3, size=n)):
                    expected = ref_tuba(table, log_a)
                    assert objective.from_scores(table, log_a) == expected
                    assert tuba_from_scores(table, log_a) == expected

    def test_l1out_on_tables_equals_reference(self):
        # est_l1out asks for its table one block of y rows at a time, in
        # order; at n = 300 a block is three rows
        rng = np.random.default_rng(33)
        for n in (*self.SIZES, 300):
            batch = sample(GaussianTask(2, 0.5), n, seed=0)
            for table in _tables(n, rng):
                served = 0

                def block(y, x):
                    nonlocal served
                    assert y.shape == (len(y), 1, 2) and x.shape == (1, n, 2)
                    served += len(y)
                    return table[served - len(y):served].copy()

                assert est_l1out(batch, block) == ref_l1out(table)
                assert served == n

    def test_l1out_keeps_the_bits_of_the_broadcast_table(self):
        # the oracle is the (n, n, dim) form est_l1out had before it ran in
        # blocks; n runs from 2 to past _TILE_ROWS, where a block is one row
        rng = np.random.default_rng(34)
        for n in (2, 3, 9, 64, 127, 128, 129, 300, 513, 1023, 1024, 1025, 1500):
            for _ in range(4 if n < 1000 else 1):
                dim = int(rng.integers(1, max(2, min(30, 4_000_000 // (n * n)))))
                task = GaussianTask(dim, float(rng.uniform(-0.99, 0.99)))
                batch = sample(task, n, seed=int(rng.integers(2**32)))
                table = cond_log_density(task, batch.ys[:, None, :], batch.xs[None, :, :])
                denom = _offdiag_lse(table, np.empty_like(table), axis=1) - math.log(n - 1)
                want = float((table.diagonal() - denom).mean())
                assert est_l1out(batch, partial(cond_log_density, task)) == want, (n, dim)
                objective = make_objective("l1out", task, TrainSettings(batch_size=n))
                assert objective.value(batch) == want, (n, dim)

    @pytest.mark.parametrize("form", ["joint", "separable"])
    def test_value_on_batches_equals_estimator(self, form):
        task = GaussianTask(2, 0.5)
        for tag, estimate in (("dv", est_dv), ("nwj", est_nwj), ("infonce", est_infonce)):
            objective = self.objective(tag, form)
            for seed in range(3):
                batch = sample(task, self.N, seed=seed)
                assert objective.value(batch) == estimate(batch, objective.critic)
        objective = self.objective("tuba", form)
        for seed in range(3):
            batch = sample(task, self.N, seed=seed)
            assert objective.value(batch) == est_tuba(batch, objective.critic,
                                                      objective.baseline)

    def test_untrained_kinds_have_no_gradient(self):
        objective = self.objective("l1out")
        assert objective.params is None and objective.grad is None
        with pytest.raises(NotImplementedError):
            objective.value_and_grad(sample(GaussianTask(2, 0.5), self.N, seed=0))


class TestValueMemory:
    KINDS = [*((kind.value, "separable") for kind in EstimatorKind),
             *((kind, "joint") for kind in ("dv", "tuba", "nwj", "infonce"))]

    @pytest.mark.parametrize("n, dim", [(128, 20), (100, 200), (600, 2)])
    @pytest.mark.parametrize("kind, form", KINDS)
    def test_a_value_holds_what_its_objective_checks_or_owns(self, kind, form, n, dim):
        # a value holds what its objective checks (three (n, dim) batches,
        # and l1out's three blocks of density cells), the joint critic's
        # three (n, first width) arrays of its factored layer 0 (x W_x,
        # y W_y and the bias sum), and at most 128 KiB more, which covers
        # numpy's 64 KiB ufunc buffer. At n = 600 one hidden layer of 16
        # keeps the joint critic's n^2-row cache at 49 MB.
        hidden = (16,) if n > 128 else nets.CriticArch.hidden
        settings = TrainSettings(batch_size=n, critic_form=form, hidden=hidden)
        task = task_for_target_mi(dim, 2.0)
        objective = make_objective(kind, task, settings)
        batch = sample(task, n, seed=0, stream=1, out=objective.samples)
        objective.value(batch)
        bound = 3 * n * dim * 8 + 128 * 1024
        if kind == "l1out":
            bound += 3 * nets._blocks(n)[0][1] * n * dim * 8
        if form == "joint":
            bound += 3 * n * hidden[0] * 8
        tracemalloc.start()
        try:
            objective.value(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


def _kink_distance(objective, batch):
    """Smallest |hidden preactivation| over every network the objective runs."""
    runs = []
    if objective.critic is not None:
        if objective.critic.form == "separable":
            runs += list(zip(objective.critic.nets, (batch.xs, batch.ys)))
        else:
            n = batch.n
            paired = np.concatenate([np.repeat(batch.xs, n, axis=0),
                                     np.tile(batch.ys, (n, 1))], axis=1)
            runs.append((objective.critic.nets[0], paired))
    if objective.baseline is not None:
        runs.append((objective.baseline, batch.ys))
    if objective.decoder is not None:
        runs.append((objective.decoder.net, batch.ys))
    # a net with no hidden layer has no kink
    return min((float(np.abs(z).min()) for net, x in runs for z in _hidden_preactivations(net, x)),
               default=math.inf)


def _hidden_preactivations(net, x):
    """Each hidden layer's preactivation, from a forward pass written out here."""
    preacts = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        preacts.append(x @ w + b)
        x = np.maximum(preacts[-1], 0.0)
    return preacts


class TestObjectiveGradients:
    """value_and_grad against central differences of value, through the flat buffers."""

    # hidden=() is the linear joint critic and the bilinear separable one
    @pytest.mark.parametrize("tag,form,hidden", [
        pytest.param(tag, form, hidden, id=f"{tag}-{form}{suffix}")
        for hidden, suffix in (((5, 4), ""), ((), "-linear"))
        for tag, form in (
            ("dv", "joint"), ("dv", "separable"), ("nwj", "joint"), ("nwj", "separable"),
            ("infonce", "joint"), ("infonce", "separable"), ("tuba", "joint"),
            ("tuba", "separable"), ("ba_lower", "separable"))])
    def test_gradient_matches_finite_differences(self, tag, form, hidden):
        rng = np.random.default_rng(41)
        task = GaussianTask(2, 0.6)
        settings = TrainSettings(batch_size=6, hidden=hidden, embed=3, critic_form=form)
        objective = make_objective(tag, task, settings)
        # a generic point: off the zero-bias init, a baseline that is not
        # constant, and a log-variance away from zero
        objective.params += rng.normal(scale=0.3, size=objective.params.size)
        batch = sample(task, 6, seed=7)
        assert _kink_distance(objective, batch) > 1e-4
        value = objective.value_and_grad(batch)
        assert value == pytest.approx(objective.value(batch), rel=1e-12, abs=1e-12)
        analytic = objective.grad.copy()
        flat = objective.params
        numeric = np.empty_like(flat)
        h = 1e-6
        for k in range(flat.size):
            kept = flat[k]
            flat[k] = kept + h
            up = objective.value(batch)
            flat[k] = kept - h
            down = objective.value(batch)
            flat[k] = kept
            numeric[k] = (up - down) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)
        assert np.count_nonzero(analytic) > analytic.size // 3  # ReLU leaves some units dead
        if tag in ("tuba", "ba_lower"):
            assert analytic[-1] != 0.0  # the baseline's output bias, the last log-variance


class TestTrainSettings:
    @pytest.mark.parametrize("field, value", [
        ("steps", -1), ("seed", -1), ("batch_size", 1), ("eval_every", 0),
        ("smoothing", -0.1), ("smoothing", 1.5), ("smoothing", math.nan),
        ("lr", 0.0), ("lr", -1e-3), ("lr", math.inf), ("lr", math.nan),
        ("beta1", -0.1), ("beta1", 1.0), ("beta2", 1.0), ("beta2", math.nan),
        ("eps", 0.0), ("eps", -1e-8), ("eps", math.inf),
    ])
    def test_out_of_range_value_is_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            TrainSettings(**{field: value})

    def test_seed_must_be_a_philox_key_word(self):
        with pytest.raises(ValueError, match=rf"^seed must be < 2\*\*64, got {2**64}$"):
            TrainSettings(seed=2**64)
        TrainSettings(seed=2**64 - 1)

    def test_range_edges_and_large_rates_are_legal(self):
        # a large finite rate is legal: it is how divergence is forced on purpose
        for lr in (50.0, 1e6):
            TrainSettings(lr=lr)
        TrainSettings(smoothing=0.0, beta1=0.0, beta2=0.0)
        TrainSettings(smoothing=1.0)


class TestTrajectoryInvariants:
    def test_steps_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            EstimateTrajectory("dv", [(0, 0.1, 0.1), (0, 0.2, 0.2)], 1.0, 0, {})

    def test_finite_estimates_enforced(self):
        with pytest.raises(ValueError):
            EstimateTrajectory("dv", [(0, math.inf, 0.1)], 1.0, 0, {})

    def test_nonempty_enforced(self):
        with pytest.raises(ValueError):
            EstimateTrajectory("dv", [], 1.0, 0, {})


class TestTrajectoryCsv:
    def test_format_and_filename(self):
        traj = EstimateTrajectory(
            estimator="nwj",
            records=[(0, -0.3615234567891, -0.3615234567891), (100, 0.52, 0.1)],
            true_mi=2.0,
            seed=7,
            config={"dim": 20},
        )
        text = trajectory_csv_text(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "step,estimate,smoothed,true_mi,estimator,seed"
        assert lines[1] == "0,-0.361523457,-0.361523457,2,nwj,7"
        assert lines[2] == "100,0.52,0.1,2,nwj,7"
        assert trajectory_filename(traj) == "nwj_20_2_7.csv"

    def test_nine_significant_digits(self):
        traj = EstimateTrajectory(
            estimator="dv",
            records=[(0, 0.123456789123, 0.123456789123)],
            true_mi=0.143841036,
            seed=0,
            config={"dim": 1},
        )
        assert "0.123456789" in trajectory_csv_text(traj)
