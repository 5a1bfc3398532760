"""Gaussian benchmark tasks: closed forms, sampling determinism, densities."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from mitk.gaussian import (
    GaussianTask,
    SampleBuffers,
    cond_log_density,
    marginal_entropy,
    marginal_log_density,
    rho_for_target_mi,
    sample,
    task_for_target_mi,
    true_mi,
)

# oracles: -(1/2) ln(1 - 0.25) and -(1/2) ln(2 pi 0.75), -(1/2) ln(2 pi)
MI_D1_RHO05 = 0.14384103622589045
COND_LL_ORIGIN = -0.7750974969787823
MARG_LL_ORIGIN = -0.9189385332046727

# (seed, stream, n, dim, rho, sha256 of xs bytes then ys bytes), recorded when
# every draw built its own Philox and joined the Box-Muller halves with a
# concatenate; odd cell counts, the largest seed and the largest stream included
GOLDEN_SAMPLES = [
    (0, 0, 2, 1, 0.5, "28a14081519d3800c05ec7c16f80f64df53e03aaad52aeb896befe370ad4dff0"),
    (7, 3, 17, 5, -0.3, "d3752c22c2985722ac32034caf2411254c258bc7c391df03fe7abeeedf12657d"),
    (123, 0, 128, 20, 0.425757,
     "6b67544a06c4f66c2924eeaaa43cbd339f36b5aee00a7e1145c96432dd3cf2e3"),
    (2**64 - 1, 2**63 - 1, 3, 3, 0.9,
     "7fb68ddfeddc4817a8ba3d9d51887c1c5f5cfa66f3ffaa1832fc281cb0963728"),
    (1, 2**63 - 1, 9, 1, 0.0, "7654a98a778ca80873b959ee9d1627a2554511c36b00b3ea840187e5608412f2"),
    (2**64 - 1, 0, 64, 7, -0.99,
     "0699ce7e9d813238d7a035eac76c80eac52ec22b9b5d7ab86932cd5c3e85a9c1"),
    (5, 11, 999, 3, 0.7, "39fb980a5ae7475a56cabfe01cef114611b5c1074221bd5f27740231af82e8ce"),
    (42, 10**6, 2, 5, 0.1, "9275691ee6e47480f49ffb1f12090e96706c7dc5ea6a6ce0ed859bce6c8a136b"),
]


def fresh_generator_sample(task, n, seed, stream):
    """(xs, ys) as a fresh Philox per draw and a concatenate of the Box-Muller
    halves give them: the oracle for the in-place draw."""
    def normals(key):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))
        count = n * task.dim
        u = gen.random((2, (count + 1) // 2))
        radius = np.sqrt(-2.0 * np.log1p(-u[0]))
        angle = 2.0 * math.pi * u[1]
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return z[:count].reshape(n, task.dim)
    xs = normals(2 * stream)
    return xs, task.rho * xs + math.sqrt(1.0 - task.rho * task.rho) * normals(2 * stream + 1)


def batch_digest(batch) -> str:
    return hashlib.sha256(batch.xs.tobytes() + batch.ys.tobytes()).hexdigest()


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

    @pytest.mark.parametrize("seed, stream, n, dim, rho, digest", GOLDEN_SAMPLES)
    def test_golden_digests(self, seed, stream, n, dim, rho, digest):
        task = GaussianTask(dim, rho)
        assert batch_digest(sample(task, n, seed, stream)) == digest
        assert batch_digest(sample(task, n, seed, stream, out=SampleBuffers(n, dim))) == digest

    def test_owned_buffers_match_a_fresh_generator(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 5, 17, 64, 127, 128, 129):
            for dim in (1, 2, 3, 7, 20):
                task = GaussianTask(dim, float(rng.uniform(-0.99, 0.99)))
                owner = SampleBuffers(n, dim)
                for _ in range(2):
                    seed, stream = int(rng.integers(2**63)) * 2 + 1, int(rng.integers(2**62))
                    xs, ys = fresh_generator_sample(task, n, seed, stream)
                    batch = sample(task, n, seed, stream, out=owner)
                    assert batch.xs is owner.xs and batch.ys is owner.ys
                    assert np.array_equal(batch.xs, xs) and np.array_equal(batch.ys, ys)

    def test_a_draw_depends_only_on_its_key(self):
        # B's 11 uniform pairs take 22 of Philox's 64-bit words, which come in
        # blocks of 4, so its buffer is left part-used; a uint32 draw then
        # sets has_uint32. A drawn again into the same owner keeps its bytes
        task, owner = GaussianTask(3, 0.4), SampleBuffers(7, 3)
        first = batch_digest(sample(task, 7, seed=9, stream=4, out=owner))
        sample(task, 7, seed=10, stream=1, out=owner)
        assert owner.philox.state["buffer_pos"] == 2
        owner.gen.integers(2**32, dtype=np.uint32)
        assert owner.philox.state["has_uint32"] == 1
        assert batch_digest(sample(task, 7, seed=9, stream=4, out=owner)) == first
        assert first == batch_digest(sample(task, 7, seed=9, stream=4))

    def test_buffers_must_fit_the_batch(self):
        owner = SampleBuffers(8, 3)
        for task, n in ((GaussianTask(3, 0.5), 9), (GaussianTask(2, 0.5), 8)):
            with pytest.raises(ValueError, match=r"^buffers of shape \(8, 3\) for a batch"):
                sample(task, n, seed=0, out=owner)

    @pytest.mark.parametrize("n, dim", [(1000, 50), (999, 51), (128, 20), (20000, 9)])
    def test_a_draw_into_owned_buffers_allocates_no_array(self, n, dim):
        # what a draw allocates is the batch record and the generator's key,
        # never an array, for even and odd cell counts
        task, owner = GaussianTask(dim, 0.5), SampleBuffers(n, dim)
        sample(task, n, seed=0, stream=2, out=owner)
        tracemalloc.start()
        try:
            sample(task, n, seed=0, stream=3, out=owner)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, peak


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
        table = cond_log_density(task, batch.ys[:, None, :], batch.xs[None, :, :])
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
