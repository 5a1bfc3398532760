"""Gaussian benchmark tasks: closed forms, sampling determinism, densities."""

import math
import tracemalloc

import numpy as np
import pytest

from mitk.gaussian import (
    GaussianTask,
    _sample_peak_words,
    cond_log_density,
    marginal_entropy,
    marginal_log_density,
    pairwise_cond_log_density,
    rho_for_target_mi,
    sample,
    task_for_target_mi,
    true_mi,
)

# oracles: -(1/2) ln(1 - 0.25) and -(1/2) ln(2 pi 0.75), -(1/2) ln(2 pi)
MI_D1_RHO05 = 0.14384103622589045
COND_LL_ORIGIN = -0.7750974969787823
MARG_LL_ORIGIN = -0.9189385332046727


class TestClosedForms:
    def test_zero_correlation_zero_information(self):
        for d in (1, 3, 20):
            assert true_mi(GaussianTask(d, 0.0)) == 0.0

    def test_one_dim_half_correlation(self):
        assert true_mi(GaussianTask(1, 0.5)) == pytest.approx(MI_D1_RHO05, abs=1e-15)

    def test_rounded_rho_hits_two_nats(self):
        assert true_mi(GaussianTask(20, 0.425757)) == pytest.approx(2.0, abs=1e-5)

    def test_target_inversion_round_trip(self):
        for dim, target in ((1, 0.5), (5, 1.0), (20, 2.0), (20, 6.0)):
            task = task_for_target_mi(dim, target)
            assert true_mi(task) == pytest.approx(target, abs=1e-12)

    def test_monotone_in_correlation_and_dimension(self):
        values = [true_mi(GaussianTask(3, r)) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(values, values[1:]))
        values = [true_mi(GaussianTask(d, 0.5)) for d in (1, 2, 5, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert true_mi(GaussianTask(3, -0.5)) == true_mi(GaussianTask(3, 0.5))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GaussianTask(0, 0.5)
        with pytest.raises(ValueError):
            GaussianTask(2, 1.0)
        for dim in (0, -1):
            with pytest.raises(ValueError, match="^dim must be >= 1$"):
                rho_for_target_mi(1.0, dim)
        # rho rounds to 1 past 27 ln 2 nats per dimension; NaN fails every comparison
        for target, dim in ((19.0, 1), (38.0, 2), (math.inf, 1), (math.inf, 20),
                            (math.nan, 1), (-1.0, 2)):
            with pytest.raises(ValueError, match=f"got {target!r} at dim {dim}$"):
                rho_for_target_mi(target, dim)
        assert rho_for_target_mi(18.7, 1) < 1.0


class TestSampling:
    def test_deterministic_per_seed(self):
        task = GaussianTask(4, 0.3)
        a = sample(task, 64, seed=7)
        b = sample(task, 64, seed=7)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_distinct_seeds_and_streams(self):
        task = GaussianTask(2, 0.3)
        base = sample(task, 32, seed=1)
        assert not np.array_equal(base.xs, sample(task, 32, seed=2).xs)
        assert not np.array_equal(base.xs, sample(task, 32, seed=1, stream=1).xs)

    @pytest.mark.parametrize("seed, stream", [
        (2**64, 0), (-1, 0), (0, 2**63), (0, 2**64), (0, -1)])
    def test_seed_and_stream_outside_the_philox_key(self, seed, stream):
        # x is keyed (seed, 2 stream) and the noise (seed, 2 stream + 1), two uint64 words
        message = (r"^seed must lie in \[0, 2\*\*64\) and stream in \[0, 2\*\*63\), "
                   rf"got seed {seed} and stream {stream}$")
        with pytest.raises(ValueError, match=message):
            sample(GaussianTask(2, 0.3), 4, seed=seed, stream=stream)

    def test_largest_seed_and_stream_are_keys(self):
        task = GaussianTask(2, 0.3)
        top = sample(task, 4, seed=2**64 - 1, stream=2**63 - 1)
        assert np.isfinite(top.xs).all() and np.isfinite(top.ys).all()
        assert not np.array_equal(top.xs, sample(task, 4, seed=2**64 - 1).xs)

    def test_minimum_batch_enforced(self):
        with pytest.raises(ValueError):
            sample(GaussianTask(2, 0.3), 1, seed=0)

    def test_moments_and_correlation(self):
        batch = sample(GaussianTask(1, 0.5), 100_000, seed=3)
        xs = batch.xs[:, 0]
        ys = batch.ys[:, 0]
        assert abs(xs.mean()) < 0.01
        assert abs(xs.var() - 1.0) < 0.02
        assert abs(ys.var() - 1.0) < 0.02
        corr = float(np.corrcoef(xs, ys)[0, 1])
        assert corr == pytest.approx(0.5, abs=0.01)

    def test_batch_shape_tagged(self):
        task = GaussianTask(5, 0.2)
        batch = sample(task, 17, seed=0)
        assert batch.xs.shape == (17, 5)
        assert batch.n == 17
        assert batch.task == task


    @pytest.mark.parametrize("n, dim", [(1000, 50), (999, 51), (128, 20), (20000, 9)])
    def test_peak_words_are_what_sampling_holds(self, n, dim):
        # the count an objective reserves is sampling's traced peak, up to a
        # few hundred bytes of array headers, for even and odd cell counts
        task = GaussianTask(dim, 0.5)
        tracemalloc.start()
        try:
            sample(task, n, seed=0, stream=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        words = _sample_peak_words(n, dim)
        assert 8 * words <= peak <= 8 * words + 4096, (peak, 8 * words)


class TestDensities:
    def test_zero_correlation_reduces_to_marginal(self):
        task = GaussianTask(3, 0.0)
        rng = np.random.default_rng(0)
        y = rng.normal(size=3)
        x = rng.normal(size=3)
        assert cond_log_density(task, y, x) == pytest.approx(
            marginal_log_density(task, y), abs=1e-14
        )

    def test_conditional_at_origin(self):
        task = GaussianTask(1, 0.5)
        assert cond_log_density(task, [0.0], [0.0]) == pytest.approx(
            COND_LL_ORIGIN, abs=1e-15
        )

    def test_sign_symmetry(self):
        task = GaussianTask(2, 0.7)
        y = np.array([0.3, -1.2])
        x = np.array([0.5, 0.1])
        assert cond_log_density(task, y, x) == cond_log_density(task, -y, -x)

    def test_marginal_at_origin(self):
        assert marginal_log_density(GaussianTask(1, 0.5), [0.0]) == pytest.approx(
            MARG_LL_ORIGIN, abs=1e-15
        )
        assert marginal_log_density(GaussianTask(2, 0.5), [0.0, 0.0]) == pytest.approx(
            2 * MARG_LL_ORIGIN, abs=1e-15
        )

    def test_marginal_additive_over_coordinates(self):
        task = GaussianTask(4, 0.3)
        rng = np.random.default_rng(1)
        y = rng.normal(size=4)
        per_coord = sum(
            marginal_log_density(GaussianTask(1, 0.3), [v]) for v in y
        )
        assert marginal_log_density(task, y) == pytest.approx(per_coord, abs=1e-12)

    def test_dimension_mismatch(self):
        task = GaussianTask(3, 0.5)
        with pytest.raises(ValueError):
            cond_log_density(task, [0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            marginal_log_density(task, [0.0])

    def test_pairwise_matches_loop(self):
        task = GaussianTask(3, 0.4)
        batch = sample(task, 6, seed=5)
        table = pairwise_cond_log_density(task, batch.ys, batch.xs)
        for i in range(6):
            for j in range(6):
                assert table[i, j] == pytest.approx(
                    cond_log_density(task, batch.ys[i], batch.xs[j]), abs=1e-12
                )

    def test_marginal_entropy_one_dim(self):
        assert marginal_entropy(GaussianTask(1, 0.9)) == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e), abs=1e-15
        )


class TestMonteCarloConsistency:
    def test_log_ratio_mean_matches_closed_form(self):
        # small-scale version of the full consistency check: the mean of
        # log p(y|x) - log p(y) over paired draws is the exact information
        task = GaussianTask(2, 0.6)
        batch = sample(task, 200_000, seed=11)
        ratios = cond_log_density(task, batch.ys, batch.xs) - marginal_log_density(
            task, batch.ys
        )
        se = float(ratios.std(ddof=1) / math.sqrt(len(ratios)))
        assert abs(float(ratios.mean()) - true_mi(task)) <= 3 * se
