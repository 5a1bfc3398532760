"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. Criterion 4 trains five estimators for 20k steps on three
seeds and dominates the runtime (about ten minutes on a laptop core).
"""

import functools
import math
import time

import numpy as np
from scipy import integrate

from mitk.cli import main
from mitk.critic import (
    CriticArch,
    Mlp,
    backward_from_cache,
    init_critic,
    mlp_backward,
    mlp_forward,
    param_arrays,
    score_matrix,
    score_matrix_with_cache,
    with_param_arrays,
)
from mitk.discrete import (
    mi_from_divergence,
    mi_from_entropies,
    mutual_information,
    random_joint2,
)
from mitk.estimators import (
    DecoderParams,
    TrainSettings,
    est_ba_lower,
    est_infonce,
    est_nwj,
    est_tuba,
    init_decoder,
    train_estimator,
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
from mitk.variational import run_probe_suite

LN_128 = 4.852030263919617


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            print(f"\nACCEPTANCE {label}: PASS")

        return wrapper

    return decorate


def _check(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert matches, f"{report.theorem} has no check named {name}"
    return matches[0]


@criterion("1 theorem-suite")
def test_criterion_1_theorem_suite():
    started = time.perf_counter()
    reports = {r.theorem: r for r in run_probe_suite(trials=1000, seed=0)}
    elapsed = time.perf_counter() - started

    for report in reports.values():
        assert report.passed, f"{report.theorem} {report.name} failed: {report.checks}"

    assert _check(reports["T01"], "chain-identity-2d").worst <= 1e-12
    assert _check(reports["T03"], "term-sum").worst <= 1e-10
    assert _check(reports["T04"], "mixture-margin").worst <= 1e-12
    assert _check(reports["T06"], "input-concavity-margin").worst <= 1e-12
    assert _check(reports["T06"], "channel-convexity-margin").worst <= 1e-12
    assert _check(reports["T07"], "gap-margin").worst <= 1e-12
    assert _check(reports["T08"], "nonnegativity").worst <= 1e-12
    assert reports["T09"].trials >= 10_000
    assert _check(reports["T09"], "processing-margin").worst <= 1e-12
    assert _check(reports["T10"], "decomposition-identity").worst <= 1e-10
    assert _check(reports["T11"], "converged-value").worst <= 1e-8
    assert _check(reports["T11"], "converged-marginals").worst <= 1e-8
    assert _check(reports["T12"], "supremum-gap").worst <= 1e-6
    assert _check(reports["T13"], "finest-equals-divergence").worst == 0.0

    assert elapsed < 120.0, f"suite took {elapsed:.1f}s, budget is two minutes"


@criterion("2 cross-formula-agreement")
def test_criterion_2_mi_formula_agreement():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(1000):
        joint = random_joint2(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        direct = mutual_information(joint)
        worst = max(
            worst,
            abs(direct - mi_from_divergence(joint)),
            abs(direct - mi_from_entropies(joint)),
        )
    assert worst <= 1e-12, f"worst cross-formula deviation {worst:.3e}"


@criterion("3 gaussian-oracle-consistency")
def test_criterion_3_gaussian_oracle():
    for dim, rho in ((1, 0.5), (5, 0.3), (20, 0.425757)):
        task = GaussianTask(dim, rho)
        chunks = []
        for chunk in range(10):
            batch = sample(task, 100_000, seed=100 + chunk)
            chunks.append(
                cond_log_density(task, batch.ys, batch.xs)
                - marginal_log_density(task, batch.ys)
            )
        ratios = np.concatenate(chunks)
        se = float(ratios.std(ddof=1) / math.sqrt(ratios.size))
        assert abs(float(ratios.mean()) - true_mi(task)) <= 3 * se, (dim, rho)

    # independent 2-D quadrature of the information integrand at d=1
    rho = 0.5
    var = 1.0 - rho * rho

    def integrand(y, x):
        joint = math.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * var)) / (
            2 * math.pi * math.sqrt(var)
        )
        if joint <= 0.0:
            return 0.0
        marg_x = math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        marg_y = math.exp(-y * y / 2) / math.sqrt(2 * math.pi)
        return joint * math.log(joint / (marg_x * marg_y))

    quad, _ = integrate.dblquad(integrand, -9, 9, lambda _: -9, lambda _: 9,
                                epsabs=1e-9, epsrel=1e-9)
    assert abs(quad - true_mi(GaussianTask(1, 0.5))) <= 1e-4


@criterion("4 bound-direction-soundness")
def test_criterion_4_bound_directions():
    task = task_for_target_mi(20, 2.0)
    target = true_mi(task)
    seeds = (0, 1, 2)
    upper = ("ba_upper", "l1out")
    lower = ("dv", "tuba", "nwj", "infonce", "ba_lower")

    started = time.perf_counter()
    finals = {}
    improvements = {}
    for tag in upper + lower:
        runs = [
            train_estimator(tag, task, TrainSettings(steps=20000, batch_size=128, seed=s))
            for s in seeds
        ]
        finals[tag] = np.array([r.final_smoothed for r in runs])
        improvements[tag] = np.array(
            [r.final_smoothed - r.untrained_estimate for r in runs]
        )
    elapsed = time.perf_counter() - started

    for tag in upper + lower:
        mean = float(finals[tag].mean())
        se = float(finals[tag].std(ddof=1) / math.sqrt(len(seeds)))
        print(f"  {tag:8s} mean_final={mean:+.4f} se={se:.4f}")
        if tag in upper:
            assert mean >= target - 3 * se, f"{tag} fell below the truth: {mean}"
        else:
            assert mean <= target + 3 * se, f"{tag} exceeded the truth: {mean}"
    for tag in lower:
        assert np.all(improvements[tag] >= 1.0), (
            f"{tag} improved by only {improvements[tag]} nats"
        )
    # the criterion allows ~15 minutes; grant the tilde a small margin
    assert elapsed <= 16 * 60, f"training took {elapsed / 60:.1f} min"


@criterion("5 tuba-nwj-reduction")
def test_criterion_5_tuba_nwj_bitwise():
    dim = 4
    task = task_for_target_mi(dim, 1.0)
    # baseline net with zero weights and unit bias: log a(y) = 1 exactly
    frozen = Mlp([np.zeros((dim, 1))], [np.array([1.0])])
    critic = None
    for index in range(100):
        if index % 20 == 0:
            arch = CriticArch(dim, dim, form="separable", hidden=(16, 16), embed=8)
            critic = init_critic(arch, seed=index)
        batch = sample(task, 64, seed=1000 + index)
        assert est_tuba(batch, critic, frozen) == est_nwj(batch, critic), index


@criterion("6 infonce-cap-and-variance-ordering")
def test_criterion_6_infonce_cap():
    task = task_for_target_mi(20, 6.0)
    settings = TrainSettings(steps=3000, batch_size=128, seed=0)
    trained, objective = train_estimator("infonce", task, settings,
                                         return_components=True)
    assert trained.final_smoothed > 1.0  # the critic actually learned something

    critic = objective.critic
    nce_values = []
    nwj_values = []
    for k in range(500):
        batch = sample(task, 128, seed=7, stream=10_000 + k)
        nce_values.append(est_infonce(batch, critic))
        nwj_values.append(est_nwj(batch, critic))
    nce_values = np.array(nce_values)
    nwj_values = np.array(nwj_values)

    # per-batch analytic cap, then the 3-standard-error form of the criterion
    assert np.all(nce_values <= LN_128 + 1e-9)
    se = float(nce_values.std(ddof=1) / math.sqrt(nce_values.size))
    assert float(nce_values.mean()) <= LN_128 + 3 * se
    # matched critics: the unnormalized bound pays for its tightness in variance
    assert nwj_values.var(ddof=1) > nce_values.var(ddof=1)
    print(
        f"  infonce mean={nce_values.mean():.3f} var={nce_values.var(ddof=1):.4f}  "
        f"nwj var={nwj_values.var(ddof=1):.4f}"
    )


@criterion("7 gradient-correctness")
def test_criterion_7_gradients():
    rng = np.random.default_rng(70)
    worst = 0.0
    checked = 0
    while checked < 50:
        dim = int(rng.integers(2, 4))
        n = int(rng.integers(4, 8))
        task = GaussianTask(dim, 0.5)
        batch = sample(task, n, seed=300 + checked)
        flavor = checked % 3
        if flavor < 2:
            form = "joint" if flavor == 0 else "separable"
            widths = tuple(int(w) for w in rng.integers(3, 17, size=2))
            arch = CriticArch(dim, dim, form=form, hidden=widths,
                              embed=int(rng.integers(2, 9)))
            params = init_critic(arch, seed=int(rng.integers(0, 10_000)))
            # check at a generic, well-conditioned point: central differences
            # are meaningless within h of a ReLU kink, and the zero-bias init
            # can park preactivations exactly on one
            params = with_param_arrays(
                params,
                [a + rng.normal(scale=0.05, size=a.shape) for a in param_arrays(params)],
            )
            if _kink_distance_critic(params, batch) < 1e-3:
                continue
            upstream = rng.normal(size=(n, n))
            analytic = backward_from_cache(params, score_matrix_with_cache(params, batch)[1],
                                           upstream)
            arrays = param_arrays(params)

            def value(arrs):
                return float(
                    np.sum(upstream * score_matrix(with_param_arrays(params, arrs), batch))
                )

            worst = max(worst, _fd_worst(arrays, analytic, value))
        else:
            decoder = init_decoder(dim, (int(rng.integers(3, 17)),),
                                   seed=int(rng.integers(0, 10_000)))
            decoder = DecoderParams(
                with_param_arrays(
                    decoder.net,
                    [a + rng.normal(scale=0.05, size=a.shape)
                     for a in param_arrays(decoder.net)],
                ),
                decoder.log_var + rng.normal(scale=0.05, size=dim),
            )
            if _kink_distance_mlp(decoder.net, batch.ys) < 1e-3:
                continue
            worst = max(worst, _decoder_fd_worst(decoder, batch, task))
        checked += 1
    assert worst < 1e-5, f"worst relative gradient error {worst:.2e}"


def _hidden_preactivations(net, x):
    """Each hidden layer's preactivation, from a forward pass written out here."""
    preacts = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        preacts.append(x @ w + b)
        x = np.maximum(preacts[-1], 0.0)
    return preacts


def _kink_distance_mlp(net, data):
    preacts = _hidden_preactivations(net, data)
    return min(float(np.abs(z).min()) for z in preacts) if preacts else np.inf


def _kink_distance_critic(params, batch):
    if params.form == "separable":
        return min(_kink_distance_mlp(params.nets[0], batch.xs),
                   _kink_distance_mlp(params.nets[1], batch.ys))
    n = batch.n
    paired = np.concatenate([np.repeat(batch.xs, n, axis=0),
                             np.tile(batch.ys, (n, 1))], axis=1)
    return _kink_distance_mlp(params.nets[0], paired)


def _fd_worst(arrays, analytic, value, h=1e-5):
    worst = 0.0
    for k, arr in enumerate(arrays):
        flat = arr.ravel()
        for idx in range(flat.size):
            bumped = [a.copy() for a in arrays]
            bumped[k].ravel()[idx] = flat[idx] + h
            up = value(bumped)
            bumped[k].ravel()[idx] = flat[idx] - h
            down = value(bumped)
            numeric = (up - down) / (2 * h)
            got = analytic[k].ravel()[idx]
            scale = max(abs(numeric), abs(got), 1e-8)
            worst = max(worst, abs(numeric - got) / scale)
    return worst


def _decoder_fd_worst(decoder, batch, task):
    h_x = marginal_entropy(task)
    mean, cache = mlp_forward(decoder.net, batch.ys)
    resid = batch.xs - mean
    inv_var = np.exp(-decoder.log_var)
    dmean = resid * inv_var / batch.n
    analytic = mlp_backward(decoder.net, cache, dmean)
    analytic.append(0.5 * ((resid * resid) * inv_var - 1.0).sum(axis=0) / batch.n)
    arrays = param_arrays(decoder.net) + [decoder.log_var]

    def value(arrs):
        rebuilt = DecoderParams(with_param_arrays(decoder.net, arrs[:-1]), arrs[-1])
        return est_ba_lower(batch, rebuilt, h_x)

    return _fd_worst(arrays, analytic, value)


@criterion("8 artifact-determinism")
def test_criterion_8_determinism(tmp_path, capsys):
    train_args = [
        "train", "--estimator", "nwj", "--dim", "5", "--target-mi", "1",
        "--seed", "0", "--steps", "200", "--batch-size", "32",
        "--eval-every", "50", "--out", str(tmp_path / "train"),
        "--set", "critic.widths=16,16", "--set", "critic.embed=8",
    ]
    assert main(train_args) == 0
    csv_path = tmp_path / "train" / "nwj_5_1_0.csv"
    first = csv_path.read_bytes()
    assert main(train_args) == 0
    assert csv_path.read_bytes() == first

    bench_args = [
        "bench", "--estimators", "infonce,ba_upper", "--seeds", "2", "--seed", "0",
        "--dim", "5", "--target-mi", "1", "--steps", "100", "--batch-size", "32",
        "--eval-every", "50", "--workers", "2", "--out", str(tmp_path / "bench"),
        "--set", "critic.widths=16,16", "--set", "critic.embed=8",
    ]
    assert main(bench_args) == 0
    names = ["infonce_5_1_0.csv", "infonce_5_1_1.csv", "ba_upper_5_1_0.csv",
             "ba_upper_5_1_1.csv", "summary.csv"]
    snapshot = {name: (tmp_path / "bench" / name).read_bytes() for name in names}
    assert main(bench_args) == 0
    for name in names:
        assert (tmp_path / "bench" / name).read_bytes() == snapshot[name]
