"""Variational identities, suprema, and the theorem probe suite."""

import hashlib
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.special

import mitk.variational
import mitk.discrete
from mitk.discrete import (
    CondPmf,
    JointPmf2,
    JointPmf3,
    Pmf,
    _clip_residue,
    entropy,
    joint_from_factors,
    kl_divergence,
    mi_from_divergence,
    mutual_information,
    random_cond,
    random_joint2,
    random_joint3,
    random_pmf,
)
from mitk.variational import (
    _STACK,
    ALPHA_GRID,
    DV_LR,
    DV_STEPS,
    CheckResult,
    MarkovChainSpec,
    Partition,
    ProbeReport,
    distance_to_product,
    dpi_check,
    dv_supremum,
    dv_value,
    golden_decomposition,
    gyp_mi_supremum,
    gyp_supremum,
    jensen_probe,
    kl_convexity_probe,
    markov_joint,
    mi_concavity_convexity_probe,
    partition_divergence,
    product_distance_minimize,
    random_markov_chain,
    run_probe_suite,
)
from mitk.variational import (
    _Worst,
    _binary_chains,
    _dpi_margins,
    _duality_trials,
    _markov_tables,
    _probe_dpi,
    _probe_dv,
    _probe_entropy_concavity,
    _probe_kl_convexity,
    _probe_mi_curvature,
    _track,
    _trial_rngs,
)

# frozen oracles (direct summation)
KL_7525_5050 = 0.13081203594113697
MI_4114 = 0.19274475702175753
LN2 = 0.6931471805599453
D_5050_7030 = 0.08717669357238891  # D((.5,.5) || (.7,.3))

TILTED = JointPmf2(("r0", "r1"), ("c0", "c1"), [[0.4, 0.1], [0.1, 0.4]])
DIAGONAL = JointPmf2(("r0", "r1"), ("c0", "c1"), [[0.5, 0.0], [0.0, 0.5]])
INDEP = JointPmf2(("r0", "r1"), ("c0", "c1"), [[0.21, 0.09], [0.49, 0.21]])
P_AB = Pmf(("a", "b"), [0.75, 0.25])
Q_AB = Pmf(("a", "b"), [0.5, 0.5])


def dv_ascent_oracle(p, q):
    """`dv_supremum` one pair at a time, as the library ran it before its ascent
    took stacks: (final scores, value, steps taken)."""
    pv, log_q = p.probs, np.log(q.probs)
    g = np.zeros(len(p))
    history = []
    for step in range(1, DV_STEPS + 1):
        shifted = g + log_q
        peak = shifted.max()
        weights = np.exp(shifted - peak)
        total = weights.sum()
        history.append(float(pv @ g - (peak + math.log(total))))
        g = g + DV_LR * (pv - weights / total)
        if len(history) > 10 and abs(history[-1] - history[-11]) < 1e-12:
            break
    return g, dv_value(p, q, g), step


def _per_k_rgs(n, max_blocks):
    """Restricted-growth strings of n items into <= max_blocks blocks, in lexicographic order."""
    if n == 1:
        return [(0,)]
    out = []

    def rec(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for b in range(min(used + 1, max_blocks)):
            rec(prefix + [b], used if b < used else used + 1)

    rec([0], 1)
    return out


def _per_k_gyp(p, q, max_blocks):
    """Reference GYP supremum: one pass over the strings for this max_blocks alone,
    block masses summed in symbol order, the last of tied partitions kept."""
    best_value, best_blocks = -math.inf, None
    for rgs in _per_k_rgs(len(p), max_blocks):
        n_blocks = max(rgs) + 1
        masses_p, masses_q = [0.0] * n_blocks, [0.0] * n_blocks
        members = [[] for _ in range(n_blocks)]
        for i, b in enumerate(rgs):
            masses_p[b] += p.probs[i]
            masses_q[b] += q.probs[i]
            members[b].append(p.alphabet[i])
        value = math.fsum(float(scipy.special.rel_entr(a, b))
                          for a, b in zip(masses_p, masses_q))
        if value >= best_value:
            best_value, best_blocks = value, tuple(tuple(m) for m in members)
    return best_blocks, best_value


def _pairwise_gyp_mi(j, max_blocks):
    """Reference rectangle supremum: one indicator-matrix product per pair of
    row and column partitions, each valued by an exact sum."""
    px, py = j.probs.sum(axis=1), j.probs.sum(axis=0)

    def indicators(n):
        out = []
        for rgs in _per_k_rgs(n, max_blocks):
            mat = np.zeros((max(rgs) + 1, n))
            mat[list(rgs), range(n)] = 1.0
            out.append(mat)
        return out

    best = -math.inf
    for s_r in indicators(len(px)):
        for s_c in indicators(len(py)):
            blocks = s_r @ j.probs @ s_c.T
            terms = scipy.special.rel_entr(blocks, np.outer(s_r @ px, s_c @ py))
            best = max(best, math.fsum(terms.ravel().tolist()))
    return best


class TestGoldenDecomposition:
    def test_true_marginal_removes_penalty(self):
        conditional, penalty = golden_decomposition(TILTED, TILTED.marginal(0), axis=0)
        assert penalty == 0.0
        assert conditional == pytest.approx(MI_4114, abs=1e-13)

    def test_independent_with_true_marginal(self):
        conditional, penalty = golden_decomposition(INDEP, INDEP.marginal(0), axis=0)
        assert penalty == 0.0
        assert abs(conditional) <= 1e-13

    def test_skewed_aux_difference_is_mi(self):
        aux = Pmf(("r0", "r1"), [0.7, 0.3])
        conditional, penalty = golden_decomposition(TILTED, aux, axis=0)
        assert penalty == pytest.approx(D_5050_7030, abs=1e-14)
        assert conditional - penalty == pytest.approx(MI_4114, abs=1e-12)

    def test_both_orientations(self):
        aux = Pmf(("c0", "c1"), [0.6, 0.4])
        conditional, penalty = golden_decomposition(TILTED, aux, axis=1)
        assert conditional - penalty == pytest.approx(MI_4114, abs=1e-12)

    def test_support_violation_propagates_infinity(self):
        aux = Pmf(("r0", "r1"), [1.0, 0.0])
        conditional, penalty = golden_decomposition(TILTED, aux, axis=0)
        assert conditional == math.inf
        assert penalty == math.inf

    def test_conditional_term_matches_a_column_loop(self):
        # the per-column loop, written out: empty columns skipped, an
        # infinite column ends the sum
        def column_loop(probs, aux):
            terms = []
            for k, w in enumerate(probs.sum(axis=0)):
                if w == 0.0:
                    continue
                row = math.fsum(scipy.special.rel_entr(probs[:, k] / w, aux).tolist())
                if math.isinf(row):
                    return math.inf
                terms.append(w * row)
            return math.fsum(terms)

        rng = np.random.default_rng(83)
        for trial in range(60):
            n_rows, n_cols = rng.integers(2, 6, size=2)
            probs = random_joint2(rng, n_rows, n_cols).probs.copy()
            probs[:, rng.integers(n_cols)] = 0.0  # an empty column
            j = JointPmf2(tuple(range(n_rows)), tuple(range(n_cols)), probs / probs.sum())
            for axis in (0, 1):
                table = j.probs if axis == 0 else j.probs.T
                aux = random_pmf(rng, table.shape[0]).probs.copy()
                if trial % 3 == 0:
                    aux[rng.integers(aux.size)] = 0.0  # a support violation, often
                aux = Pmf(tuple(range(aux.size)), aux / aux.sum())
                conditional, _ = golden_decomposition(j, aux, axis=axis)
                assert conditional == column_loop(table, aux.probs)


class TestProductDistance:
    def test_independent_joint(self):
        qx, qy, value = product_distance_minimize(INDEP)
        assert value == pytest.approx(0.0, abs=1e-13)
        assert np.allclose(qx.probs, [0.3, 0.7], atol=1e-15)
        assert np.allclose(qy.probs, [0.7, 0.3], atol=1e-15)

    def test_tilted_reaches_marginals_and_mi(self):
        qx, qy, value = product_distance_minimize(TILTED)
        assert value == pytest.approx(MI_4114, abs=1e-12)
        assert np.allclose(qx.probs, [0.5, 0.5], atol=1e-15)
        assert np.allclose(qy.probs, [0.5, 0.5], atol=1e-15)

    def test_diagonal_value_is_entropy(self):
        _, _, value = product_distance_minimize(DIAGONAL)
        assert value == pytest.approx(LN2, abs=1e-13)

    def test_any_product_at_or_above_information(self):
        rng = np.random.default_rng(5)
        mi = mutual_information(TILTED)
        for _ in range(20):
            qx = random_pmf(rng, 2, labels=TILTED.row_alphabet)
            qy = random_pmf(rng, 2, labels=TILTED.col_alphabet)
            assert distance_to_product(TILTED, qx, qy) >= mi - 1e-10


class TestDonskerVaradhan:
    def test_constant_score_is_zero(self):
        for c in (-2.0, 0.0, 3.5):
            assert dv_value(P_AB, Q_AB, [c, c]) == pytest.approx(0.0, abs=1e-15)

    def test_log_ratio_attains_divergence(self):
        g = np.log(P_AB.probs / Q_AB.probs)
        assert dv_value(P_AB, Q_AB, g) == pytest.approx(KL_7525_5050, abs=1e-14)

    def test_handcrafted_score_value(self):
        # 0.75 - ln(0.5 e + 0.5), by direct evaluation
        expected = 0.75 - math.log(0.5 * math.e + 0.5)
        got = dv_value(P_AB, Q_AB, [1.0, 0.0])
        assert got == pytest.approx(expected, abs=1e-14)
        assert got <= KL_7525_5050

    def test_weak_duality_random(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            p = random_pmf(rng, n)
            q = random_pmf(rng, n, labels=p.alphabet)
            g = rng.normal(scale=3.0, size=n)
            assert dv_value(p, q, g) <= kl_divergence(p, q) + 1e-12

    def test_supremum_identical_distributions(self):
        _, value = dv_supremum(Q_AB, Q_AB)
        assert abs(value) <= 1e-12

    def test_supremum_two_symbols(self):
        _, value = dv_supremum(P_AB, Q_AB)
        assert value == pytest.approx(KL_7525_5050, abs=1e-6)

    def test_supremum_eight_symbols(self):
        rng = np.random.default_rng(41)
        p = random_pmf(rng, 8)
        q = random_pmf(rng, 8, labels=p.alphabet)
        _, value = dv_supremum(p, q)
        assert value == pytest.approx(kl_divergence(p, q), abs=1e-6)

    def test_logsumexp_bitwise_equals_scipy(self):
        """Each DV value, one row at a time or as a row of a stack, is
        p @ g - scipy.special.logsumexp(g + ln q) to the bit."""
        rng = np.random.default_rng(5)
        triples = []  # (p, q, g)
        for g in ([0.0], [3.0, 3.0, 3.0], [700.0, 699.5, -700.0, 700.0], [-745.0, -746.0, -800.0],
                  [1e308, 1e308, 0.0], [-1e308, -1e308], [1e308, -1e308, 1e308]):
            uniform = np.full(len(g), 1.0 / len(g))  # with tied scores, tied peaks
            triples.append((uniform, uniform, np.array(g)))
        # zero-mass cells of q drop out of the log-partition
        triples.append((np.array([0.5, 0.25, 0.25]), np.array([0.0, 0.5, 0.5]),
                        np.array([2.0, 1.0, 1.0])))
        triples.append((np.array([0.2, 0.8]), np.array([1.0, 0.0]), np.array([-3.0, 1e308])))
        for _ in range(2000):
            n = int(rng.integers(1, 17))
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            g = rng.normal(scale=rng.choice([1.0, 30.0, 300.0]), size=n)
            if n > 1 and rng.uniform() < 0.3:
                i, j = rng.choice(n, size=2, replace=False)
                q[j], g[j] = q[i], g[i]  # g + ln q tied at two cells
            q[rng.uniform(size=n) < 0.2] = 0.0
            if not q.any():
                q[0] = 1.0
            triples.append((p, q / q.sum(), g))
        by_size = {}
        for p, q, g in triples:
            with np.errstate(divide="ignore", over="ignore"):  # ln 0; a gap past the range
                expected = float(p @ g) - float(scipy.special.logsumexp(g + np.log(q)))
            got = mitk.variational._dv_values(p[None], q[None], g[None])
            assert [value.hex() for value in got] == [expected.hex()], (p, q, g)
            by_size.setdefault(len(g), []).append(((p, q, g), expected.hex()))
        # each row of a stack of one alphabet size, as on its own
        for rows in by_size.values():
            stack = (np.array(column) for column in zip(*(triple for triple, _ in rows)))
            got = mitk.variational._dv_values(*stack)
            assert [value.hex() for value in got] == [hexed for _, hexed in rows]

    def test_requires_full_support(self):
        p = Pmf(("a", "b"), [1.0, 0.0])
        with pytest.raises(ValueError):
            dv_supremum(p, Q_AB)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, "mixed"])
    def test_stacked_ascent_keeps_the_bits_of_each_pair(self, n):
        rng = np.random.default_rng(600 + (0 if n == "mixed" else n))
        # the mixed stack holds sizes 2, 3, 4, 5, 8 and 16 twice each, shuffled
        sizes = rng.permutation([2, 3, 4, 5, 8, 16] * 2).tolist() if n == "mixed" else [n] * 9
        ps = [random_pmf(rng, size, uniform_mix=rng.choice([0.0, 0.1])) for size in sizes]
        # one identical pair: its value stops moving at once
        ps.append(ps[0])
        qs = [random_pmf(rng, len(p), labels=p.alphabet, uniform_mix=rng.choice([0.0, 0.1]))
              for p in ps[:-1]] + [ps[0]]
        scores, values = dv_supremum(ps, qs)
        assert len(scores) == len(values) == len(ps)
        steps = []
        for p, q, row, value in zip(ps, qs, scores, values):
            g, expected, taken = dv_ascent_oracle(p, q)
            assert (row.tobytes(), value.hex()) == (g.tobytes(), expected.hex())
            single = dv_supremum(p, q)
            assert (single[0].tobytes(), single[1].hex()) == (g.tobytes(), expected.hex())
            steps.append(taken)
        # rows stop on different steps, and at n >= 8 (and in the mixed stack)
        # some run all DV_STEPS
        assert len(set(steps)) >= 3 and steps[-1] == 11, steps
        assert DV_STEPS in steps or n in (2, 3, 5), steps
        if n == "mixed":
            assert sizes != sorted(sizes)
            assert sizes[steps.index(DV_STEPS)] != max(sizes), (sizes, steps)

    def test_a_stack_may_mix_alphabet_sizes(self):
        p3 = random_pmf(np.random.default_rng(1), 3, uniform_mix=0.1)
        q3 = random_pmf(np.random.default_rng(2), 3, uniform_mix=0.1)
        scores, values = dv_supremum([p3, P_AB, p3], [q3, Q_AB, p3])
        for p, q, row, value in zip([p3, P_AB, p3], [q3, Q_AB, p3], scores, values):
            g, expected = dv_supremum(p, q)
            assert (row.tobytes(), value.hex()) == (g.tobytes(), expected.hex())

    @pytest.mark.parametrize("p, q, match", [
        ([P_AB, Pmf(("a", "b"), [1.0, 0.0])], [Q_AB, Q_AB], "full support"),
        ([P_AB, P_AB], [Q_AB, Pmf(("a", "b"), [1.0, 0.0])], "full support"),
        ([P_AB, P_AB], [Q_AB, Pmf(("x", "y"), [0.5, 0.5])], "identical alphabets"),
        ([P_AB, P_AB], [Q_AB], "equal length"),
        ([], [], "nonempty"),
    ])
    def test_bad_stacks_are_refused(self, p, q, match):
        with pytest.raises(ValueError, match=match):
            dv_supremum(p, q)


class TestGyp:
    def test_equal_distributions_zero_everywhere(self):
        p = Pmf(("a", "b", "c"), [0.2, 0.3, 0.5])
        for blocks in (1, 2, 3):
            _, value = gyp_supremum(p, p, blocks)
            assert abs(value) <= 1e-15

    def test_two_symbols_singletons_reach_divergence(self):
        part, value = gyp_supremum(P_AB, Q_AB, max_blocks=2)
        assert value == KL_7525_5050
        assert len(part.blocks) == 2

    def test_single_block_is_zero(self):
        _, value = gyp_supremum(P_AB, Q_AB, max_blocks=1)
        assert abs(value) <= 1e-12

    def test_monotone_in_blocks(self):
        rng = np.random.default_rng(3)
        p = random_pmf(rng, 6)
        q = random_pmf(rng, 6, labels=p.alphabet)
        values = [gyp_supremum(p, q, b)[1] for b in range(1, 7)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == kl_divergence(p, q)

    def test_alphabet_cap(self):
        rng = np.random.default_rng(4)
        p = random_pmf(rng, 9)
        q = random_pmf(rng, 9, labels=p.alphabet)
        with pytest.raises(ValueError):
            gyp_supremum(p, q, 3)

    def test_partition_divergence_conventions(self):
        p = Pmf(("a", "b", "c"), [0.5, 0.5, 0.0])
        q = Pmf(("a", "b", "c"), [0.25, 0.25, 0.5])
        part = Partition((("a", "b"), ("c",)))
        # P[ab]=1, Q[ab]=0.5 -> ln 2; P[c]=0 contributes nothing
        assert partition_divergence(p, q, part) == pytest.approx(LN2, abs=1e-14)
        part_bad_q = Partition((("a",), ("b", "c")))
        q0 = Pmf(("a", "b", "c"), [0.0, 0.5, 0.5])
        assert partition_divergence(p, q0, part_bad_q) == math.inf

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((("a", "b"), ("b",)))
        with pytest.raises(ValueError, match="'b'"):
            partition_divergence(P_AB, Q_AB, Partition((("a",),)))
        with pytest.raises(ValueError, match="'zz'"):
            partition_divergence(P_AB, Q_AB, Partition((("a",), ("zz",))))
        with pytest.raises(ValueError, match="'c'"):
            partition_divergence(P_AB, Q_AB, Partition((("a", "b", "c"),)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ladder_matches_per_k_enumeration(self, n):
        rng = np.random.default_rng(100 + n)
        labels = tuple(f"s{i}" for i in range(n))
        p = random_pmf(rng, n, labels=labels)
        q = random_pmf(rng, n, labels=labels)
        cases = [(p, q), (p, p)]  # p == p: every partition ties at 0
        if n > 1:
            # zero-mass symbols: 0 * ln(0 / x) = 0 terms, and x * ln(x / 0) = inf terms
            hole = np.append(p.probs[1:], 0.0) / p.probs[1:].sum()
            cases += [(Pmf(labels, hole), q), (q, Pmf(labels, hole))]
        for a, b in cases:
            for k in range(1, n + 2):
                part, value = gyp_supremum(a, b, k)
                ref_blocks, ref_value = _per_k_gyp(a, b, k)
                assert value.hex() == ref_value.hex()
                assert part.blocks == ref_blocks

    @pytest.mark.parametrize("n", range(1, 9))
    def test_supremum_partition_values_to_the_supremum(self, n):
        rng = np.random.default_rng(200 + n)
        labels = tuple(f"s{i}" for i in range(n))
        p = random_pmf(rng, n, labels=labels)
        q = random_pmf(rng, n, labels=labels)
        cases = [(p, q), (q, p)]
        if n > 1:
            hole = np.append(p.probs[1:], 0.0) / p.probs[1:].sum()
            cases += [(Pmf(labels, hole), q), (q, Pmf(labels, hole))]
        for a, b in cases:
            for k in range(1, n + 1):
                part, value = gyp_supremum(a, b, k)
                assert partition_divergence(a, b, part).hex() == value.hex(), (k, part)

    @pytest.mark.parametrize("n_rows", range(1, 6))
    def test_mi_supremum_matches_pairwise_loop(self, n_rows):
        rng = np.random.default_rng(300 + n_rows)
        for n_cols in range(1, 6):
            for _ in range(2):
                j = random_joint2(rng, n_rows, n_cols)
                for max_blocks in range(1, 7):
                    want = _pairwise_gyp_mi(j, max_blocks)
                    # block masses are at most 1, so 1e-15 is relative to the total mass
                    assert abs(gyp_mi_supremum(j, max_blocks) - want) <= 1e-15, (j, max_blocks)
                top = gyp_mi_supremum(j, max(n_rows, n_cols))
                assert top >= mutual_information(j), j

    def test_mi_rectangles(self):
        assert gyp_mi_supremum(INDEP, max_blocks=2) == pytest.approx(0.0, abs=1e-13)
        assert gyp_mi_supremum(TILTED, max_blocks=2) == pytest.approx(MI_4114, abs=1e-15)
        assert gyp_mi_supremum(TILTED, max_blocks=1) == pytest.approx(0.0, abs=1e-13)
        # one row: every rectangle's value is a rounding residue, and a negative one reads 0
        row = JointPmf2(("r0",), ("c0", "c1", "c2"),
                        [[0.06637595405352668, 0.7342794847248234, 0.19934456122165004]])
        assert gyp_mi_supremum(row, max_blocks=3) >= mutual_information(row) == 0.0


class TestCurvatureProbes:
    def test_kl_convexity_endpoints_tight(self):
        rng = np.random.default_rng(11)
        pair1 = (random_pmf(rng, 4), random_pmf(rng, 4))
        pair2 = (random_pmf(rng, 4), random_pmf(rng, 4))
        report = kl_convexity_probe(pair1, pair2, alphas=(0.0, 1.0))
        assert report.passed
        assert abs(report.checks[0].worst) <= 1e-12

    def test_kl_convexity_identical_pairs(self):
        rng = np.random.default_rng(13)
        pair = (random_pmf(rng, 3), random_pmf(rng, 3))
        report = kl_convexity_probe(pair, pair)
        assert report.passed
        assert report.checks[0].worst <= 1e-12

    def test_kl_convexity_random_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            pair1 = (random_pmf(rng, n), random_pmf(rng, n))
            pair2 = (random_pmf(rng, n), random_pmf(rng, n))
            assert kl_convexity_probe(pair1, pair2).passed

    def test_mi_curvature_identical_endpoints(self):
        rng = np.random.default_rng(19)
        px = random_pmf(rng, 3, labels=("g0", "g1", "g2"))
        w = CondPmf(("g0", "g1", "g2"), ("t0", "t1"), [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
        report = mi_concavity_convexity_probe((px, px), (w, w))
        assert report.passed
        for check in report.checks:
            assert abs(check.worst) <= 1e-12

    def test_alphas_validated(self):
        rng = np.random.default_rng(23)
        pair = (random_pmf(rng, 3), random_pmf(rng, 3))
        with pytest.raises(ValueError):
            kl_convexity_probe(pair, pair, alphas=(1.5,))

    def test_mixtures_stay_distributions(self):
        # a mixture is not validated again, so its weight and shapes are checked
        rng = np.random.default_rng(29)
        px = random_pmf(rng, 2, labels=("g0", "g1"))
        w = random_cond(rng, 2, 2, labels=(("g0", "g1"), ("t0", "t1")))
        with pytest.raises(ValueError, match=r"alphas must lie in \[0, 1\]"):
            mi_concavity_convexity_probe((px, px), (w, w), alphas=(1.5,))
        # one-symbol tables would broadcast against two-symbol ones
        one = Pmf(("g0",), [1.0])
        with pytest.raises(ValueError, match="must share a shape"):
            kl_convexity_probe((px, px), (one, one))
        sure = CondPmf(("g0", "g1"), ("t0",), [[1.0], [1.0]])
        with pytest.raises(ValueError, match="must share a shape"):
            mi_concavity_convexity_probe((px, px), (w, sure))

    def test_mixed_tables_must_share_labels(self):
        # a mixture takes its first table's labels, so the labels are compared
        pair_ab = (Pmf(("a", "b"), [0.3, 0.7]), Pmf(("a", "b"), [0.6, 0.4]))
        pair_cd = (Pmf(("c", "d"), [0.2, 0.8]), Pmf(("c", "d"), [0.5, 0.5]))
        with pytest.raises(ValueError, match="must share a type and labels"):
            kl_convexity_probe(pair_ab, pair_cd)
        px = Pmf(("g0", "g1"), [0.3, 0.7])
        rows = [[0.3, 0.7], [0.6, 0.4]]
        w_t = CondPmf(("g0", "g1"), ("t0", "t1"), rows)
        w_u = CondPmf(("g0", "g1"), ("u0", "u1"), rows)
        with pytest.raises(ValueError, match="must share a type and labels"):
            mi_concavity_convexity_probe((px, px), (w_t, w_u))
        joint = JointPmf2(("g0", "g1"), ("t0", "t1"), [[0.15, 0.35], [0.3, 0.2]])
        with pytest.raises(ValueError, match="must share a type and labels"):
            mi_concavity_convexity_probe((px, px), (w_t, joint))

    def test_no_alphas_is_vacuous(self):
        rng = np.random.default_rng(31)
        pair = (random_pmf(rng, 3), random_pmf(rng, 3))
        px = random_pmf(rng, 2, labels=("g0", "g1"))
        w = random_cond(rng, 2, 2)
        vacuous = (CheckResult("vacuous", 0.0, 0.0, True),)
        for report in (kl_convexity_probe(pair, pair, alphas=()),
                       mi_concavity_convexity_probe((px, px), (w, w), alphas=())):
            assert (report.trials, report.checks, report.passed) == (0, vacuous, True)

    def test_nan_alpha_is_refused(self):
        rng = np.random.default_rng(37)
        pair = (random_pmf(rng, 3), random_pmf(rng, 3))
        px = random_pmf(rng, 2, labels=("g0", "g1"))
        w = random_cond(rng, 2, 2)
        with pytest.raises(ValueError, match=r"alphas must lie in \[0, 1\]"):
            kl_convexity_probe(pair, pair, alphas=(0.5, math.nan))
        with pytest.raises(ValueError, match=r"alphas must lie in \[0, 1\]"):
            mi_concavity_convexity_probe((px, px), (w, w), alphas=(math.nan,))

    def test_input_law_must_live_on_the_given_alphabet(self):
        rng = np.random.default_rng(41)
        px = random_pmf(rng, 2, labels=("a", "b"))
        w = random_cond(rng, 2, 2)  # given alphabet ("g0", "g1")
        with pytest.raises(ValueError):
            mi_concavity_convexity_probe((px, px), (w, w))


class TestJensen:
    def test_affine_is_tight(self):
        p = Pmf(("a", "b", "c"), [0.2, 0.3, 0.5])
        lhs, rhs = jensen_probe(lambda t: 2.0 * t + 1.0, p, [0.5, -1.0, 2.0])
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_two_point_square(self):
        p = Pmf(("a", "b"), [0.3, 0.7])
        lhs, rhs = jensen_probe(lambda t: t * t, p, [1.0, -2.0])
        assert lhs >= rhs
        assert lhs == pytest.approx(0.3 * 1.0 + 0.7 * 4.0, abs=1e-14)

    def test_t_log_t_on_positive_support(self):
        rng = np.random.default_rng(29)
        p = random_pmf(rng, 5)
        values = rng.uniform(0.1, 4.0, size=5)
        lhs, rhs = jensen_probe(lambda t: t * math.log(t), p, values)
        assert lhs >= rhs - 1e-12


class TestMarkovAndDpi:
    def test_deterministic_chain_copy(self):
        px = Pmf(("x0", "x1"), [0.4, 0.6])
        identity = CondPmf(("x0", "x1"), ("y0", "y1"), [[1.0, 0.0], [0.0, 1.0]])
        identity_zy = CondPmf(("y0", "y1"), ("z0", "z1"), [[1.0, 0.0], [0.0, 1.0]])
        spec = MarkovChainSpec(px, identity, identity_zy)
        ixy, ixz = dpi_check(spec)
        assert ixz == pytest.approx(ixy, abs=1e-14)

    def test_independent_tail(self):
        px = Pmf(("x0", "x1"), [0.4, 0.6])
        pyx = CondPmf(("x0", "x1"), ("y0", "y1"), [[0.9, 0.1], [0.2, 0.8]])
        noise = CondPmf(("y0", "y1"), ("z0", "z1"), [[0.5, 0.5], [0.5, 0.5]])
        ixy, ixz = dpi_check(MarkovChainSpec(px, pyx, noise))
        assert ixz == pytest.approx(0.0, abs=1e-14)
        assert ixy > 0.1

    def test_joint_matches_hand_multiplication(self):
        rng = np.random.default_rng(31)
        spec = random_markov_chain(rng, 2, 2, 2)
        joint = markov_joint(spec)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    expected = (
                        spec.px.probs[a]
                        * spec.py_given_x.probs[a, b]
                        * spec.pz_given_y.probs[b, c]
                    )
                    assert joint.probs[a, b, c] == expected

    def test_factors_within_tolerance_make_a_chain(self):
        # each factor is 0.9e-12 short of mass 1, their product 2.7e-12 short
        short = [0.5, 0.5 - 0.9e-12]
        px = Pmf(("x0", "x1"), short)
        pyx = CondPmf(("x0", "x1"), ("y0", "y1"), [short, short])
        pzy = CondPmf(("y0", "y1"), ("z0", "z1"), [short, short])
        joint = markov_joint(MarkovChainSpec(px, pyx, pzy))
        expected = px.probs[:, None, None] * pyx.probs[:, :, None] * pzy.probs[None, :, :]
        assert joint.probs.tobytes() == expected.tobytes()

    def test_chain_alphabet_consistency_enforced(self):
        px = Pmf(("x0", "x1"), [0.5, 0.5])
        bad = CondPmf(("w0", "w1"), ("y0", "y1"), [[0.5, 0.5], [0.5, 0.5]])
        ok = CondPmf(("y0", "y1"), ("z0", "z1"), [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            MarkovChainSpec(px, bad, ok)

    def test_violation_is_returned_not_raised(self, monkeypatch):
        # a table that is no Markov chain: Z copies X, Y is independent of both
        copy = np.zeros((2, 2, 2))
        copy[0, :, 0] = copy[1, :, 1] = 0.25
        monkeypatch.setattr(mitk.variational, "markov_joint",
                            lambda spec: JointPmf3((("x0", "x1"), ("y0", "y1"), ("z0", "z1")),
                                                   copy))
        ixy, ixz = dpi_check(random_markov_chain(np.random.default_rng(0), 2, 2, 2))
        assert ixy == pytest.approx(0.0, abs=1e-15)
        assert ixz == pytest.approx(LN2, abs=1e-15)

    def test_random_chains_never_violate(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            spec = random_markov_chain(
                rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
            )
            ixy, ixz = dpi_check(spec)
            assert ixy >= ixz - 1e-12


def _assert_same_table(derived, built):
    """`derived` is what the validating constructor makes of the same fields."""
    assert type(derived) is type(built)
    assert not derived.probs.flags.writeable
    assert derived.probs.tobytes() == built.probs.tobytes()
    assert (derived.probs.dtype, derived.probs.shape, derived.probs.strides) == (
        built.probs.dtype, built.probs.shape, built.probs.strides)
    for f in fields(built):
        if f.name != "probs":
            assert type(getattr(derived, f.name)) is tuple
            assert getattr(derived, f.name) == getattr(built, f.name)


class TestDerivedTables:
    """Tables derived from validated tables skip the validator, and nothing else."""

    def test_marginals_and_transpose(self):
        j = random_joint2(np.random.default_rng(41), 3, 4)
        for table in (j, j.transpose()):  # C and Fortran layouts
            rows, cols, probs = table.row_alphabet, table.col_alphabet, table.probs
            _assert_same_table(table.marginal(0), Pmf(rows, probs.sum(axis=1)))
            _assert_same_table(table.marginal(1), Pmf(cols, probs.sum(axis=0)))
            _assert_same_table(table.transpose(), JointPmf2(cols, rows, probs.T))

    def test_pair_marginals(self):
        j = random_joint3(np.random.default_rng(43), 2, 3, 4)
        for a in range(3):
            for b in range(3):
                if a != b:
                    (drop,) = {0, 1, 2} - {a, b}
                    table = j.probs.sum(axis=drop)
                    table = table.T if a > b else table
                    built = JointPmf2(j.alphabets[a], j.alphabets[b], table)
                    _assert_same_table(j.pair_marginal(a, b), built)

    def test_factor_products(self):
        spec = random_markov_chain(np.random.default_rng(47), 2, 3, 4)
        px, pyx, pzy = spec.px, spec.py_given_x, spec.pz_given_y
        built = JointPmf2(px.alphabet, pyx.target_alphabet, px.probs[:, None] * pyx.probs)
        _assert_same_table(joint_from_factors(px, pyx), built)
        table = px.probs[:, None, None] * pyx.probs[:, :, None] * pzy.probs[None, :, :]
        alphabets = (px.alphabet, pyx.target_alphabet, pzy.target_alphabet)
        _assert_same_table(markov_joint(spec), JointPmf3(alphabets, table))

    def test_tables_passed_to_the_divergence(self, monkeypatch):
        # mi_from_divergence's two flat tables and golden_decomposition's penalty
        # table reach kl_divergence only; record them there
        seen = []

        def recording_kl(p, q):
            seen.append((p, q))
            return kl_divergence(p, q)

        monkeypatch.setattr(mitk.discrete, "kl_divergence", recording_kl)
        monkeypatch.setattr(mitk.variational, "kl_divergence", recording_kl)
        j = random_joint2(np.random.default_rng(59), 3, 2)
        for table in (j, j.transpose()):
            rows, cols, probs = table.row_alphabet, table.col_alphabet, table.probs
            pairs = tuple((r, c) for r in rows for c in cols)
            product = np.outer(probs.sum(axis=1), probs.sum(axis=0))
            mi_from_divergence(table)
            (joint, prod), = seen
            _assert_same_table(joint, Pmf(pairs, probs.ravel()))
            _assert_same_table(prod, Pmf(pairs, product.ravel()))
            for axis, labels in ((0, rows), (1, cols)):
                seen.clear()
                golden_decomposition(table, table.marginal(axis), axis=axis)
                oriented = probs if axis == 0 else probs.T
                _assert_same_table(seen[0][0], Pmf(labels, oriented.sum(axis=1)))
            seen.clear()


def _feed(digest, value):
    """Feed a witness into `digest`: dict keys, array dtypes, shapes and bytes, floats as hex."""
    if isinstance(value, dict):
        for key, item in value.items():
            digest.update(key.encode())
            _feed(digest, item)
    elif isinstance(value, tuple):
        for item in value:
            _feed(digest, item)
    elif isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(value.tobytes())
    elif isinstance(value, float):
        digest.update(value.hex().encode())
    else:
        digest.update(repr(value).encode())  # None, an int, a function's name


def _checks_digest(reports) -> str:
    """sha256 of every check: theorem, name, worst (hex), tolerance, passed and witness."""
    digest = hashlib.sha256()
    for report in reports:
        for check in report.checks:
            digest.update(f"{report.theorem} {check.name} {float(check.worst).hex()} "
                          f"{check.tolerance!r} {check.passed}".encode())
            _feed(digest, check.witness)
    return digest.hexdigest()


# `_checks_digest(run_probe_suite(trials, seed, corrupt))` for each (trials, seed, corrupt)
GOLDEN_CHECK_DIGESTS = {
    (20, 0, False): "fd0f35d1de06762f1e4d378762f129d36e21d39fe8e5431009e4ffa60b961465",
    (20, 7, False): "f0fa539b0305c7324b9f8e933b4f796b6ef0892fdfe598ed48ad885b2a335c10",
    (20, 0, True): "331271d94e2cf35d01e504c80d5efac573324149c8a2098b0747a0004e603dc8",
    # 1,000 binary chains and 1,000 duality trials each, one stack of each
    (100, 0, False): "f45a046b71d922e5d13e806f57ed1d3e866bf0496fa0d5c4468d9ba3abf652d9",
    (100, 7, False): "fe7aee32ee1b26ade8b062eeca550a1b82443942540d6c78c26fb62bd1565885",
    # seeds of three and five 32-bit words: SeedSequence mixes the words past
    # its pool of four in a last pass
    (20, 2**64 + 5, False): "bc52239a2b5811ccd680ede8463e79285c51e439e45f2d13b7c4282a2d25ac89",
    (20, 2**128 + 1, False): "312f052d7d140c3e0d564a555815f17d65ef6ca6e296085990c7aa0a6e2c6862",
}


class TestProbeSuite:
    @pytest.mark.parametrize("args", GOLDEN_CHECK_DIGESTS)
    def test_every_check_is_golden(self, args):
        # the report lines show one worst per theorem; this pins every check
        assert _checks_digest(run_probe_suite(*args)) == GOLDEN_CHECK_DIGESTS[args]

    def test_nan_margin_fails_its_check(self):
        tracker = mitk.variational._Worst("margin", 1e-12)
        for value, witness in ((1.0, "a"), (math.nan, "b"), (2.0, "c"), (math.nan, "d")):
            tracker.update(value, witness)
        check = tracker.check()
        assert math.isnan(check.worst) and check.witness == "b" and not check.passed

    def test_nan_is_the_worst_slack(self):
        nan = CheckResult("undefined", math.nan, 0.0, False)
        far = CheckResult("far", 5.0, 1e-12, False)
        for checks in ((nan, far), (far, nan)):
            assert math.isnan(ProbeReport("T00", "probe", 1, checks).worst_slack)

    def test_small_suite_passes(self):
        reports = run_probe_suite(trials=60, seed=0)
        assert len(reports) == 13
        for report in reports:
            assert report.passed, f"{report.theorem} {report.name}: {report.checks}"

    def test_theorem_ids_complete(self):
        reports = run_probe_suite(trials=20, seed=1)
        assert [r.theorem for r in reports] == [f"T{i:02d}" for i in range(1, 14)]

    def test_corrupt_oracle_is_caught(self):
        reports = run_probe_suite(trials=20, seed=0, corrupt=True)
        failed = [r for r in reports if not r.passed]
        assert any(r.theorem == "T02" for r in failed)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_probe_suite(trials=-1, seed=0)

    def test_zero_trials_vacuous(self):
        reports = run_probe_suite(trials=0, seed=0)
        assert all(r.passed for r in reports)
        assert all(r.trials == 0 for r in reports)

    def test_deterministic_given_seed(self):
        a = run_probe_suite(trials=30, seed=7)
        b = run_probe_suite(trials=30, seed=7)
        for ra, rb in zip(a, b):
            assert ra.worst_slack == rb.worst_slack
        # wall seconds are carried on each report but are no part of its result
        assert [replace(r, checks=()) for r in a] == [replace(r, checks=()) for r in b]
        assert all(r.seconds > 0.0 for r in a)


def _mi_oracle(table):
    product = np.outer(table.sum(axis=1), table.sum(axis=0))
    return _clip_residue(math.fsum(scipy.special.rel_entr(table, product).ravel().tolist()))


def _cmi_oracle(table, conditioning):
    def h(keep):
        drop = tuple(sorted({0, 1, 2} - set(keep)))
        marg = table.sum(axis=drop) if drop else table
        return -math.fsum(scipy.special.xlogy(marg, marg).ravel().tolist())

    a, b = sorted({0, 1, 2} - {conditioning})
    c = conditioning
    return _clip_residue(h((a, c)) + h((b, c)) - h((a, b, c)) - h((c,)))


def dpi_trial(seed, t):
    """T09's margins and witness for chain t, one generator call and one table
    at a time, each quantity computed as it was before the kernels took stacks."""
    rng = np.random.default_rng([seed, 9, t])
    if t < 10 * TRIALS:
        nx = ny = nz = 2
    else:
        nx, ny, nz = (int(rng.integers(2, 5)) for _ in range(3))
    spec = random_markov_chain(rng, nx, ny, nz)
    joint = (spec.px.probs[:, None, None] * spec.py_given_x.probs[:, :, None]
             * spec.pz_given_y.probs[None, :, :])
    ixy, ixz = _mi_oracle(joint.sum(axis=2)), _mi_oracle(joint.sum(axis=1))
    margins = (ixz - ixy, _cmi_oracle(joint, 2) - ixy, _cmi_oracle(joint, 1))
    return margins, (spec.px.probs, spec.py_given_x.probs, spec.pz_given_y.probs)


def _chord_margins(value, ends, alphas, witness, concave=False):
    """[(margin, witness)] along one chord, each mixture built as a public table
    and valued alone, as the curvature probes ran before their chords took stacks."""
    v1, v2 = value(*ends[0]), value(*ends[1])
    out = []
    for alpha in alphas:
        mixed = [type(t1)(*[getattr(t1, f.name) for f in fields(t1)][:-1],
                          alpha * t1.probs + (1.0 - alpha) * t2.probs)
                 for t1, t2 in zip(*ends)]
        lhs, rhs = value(*mixed), alpha * v1 + (1.0 - alpha) * v2
        out.append((rhs - lhs if concave else lhs - rhs, {"alpha": alpha, **witness}))
    return out


def kl_convexity_trial(seed, t):
    """T04's chord margins for case t, one list per check."""
    rng = np.random.default_rng([seed, 4, t])
    n = int(rng.integers(2, 7))
    p1, q1, p2, q2 = (random_pmf(rng, n) for _ in range(4))
    alphas = ALPHA_GRID + tuple(rng.uniform(size=20))
    return [_chord_margins(kl_divergence, ((p1, q1), (p2, q2)), alphas,
                           {"p1": p1.probs, "p2": p2.probs, "q1": q1.probs, "q2": q2.probs})]


def entropy_concavity_trial(seed, t):
    """T05's chord margins for case t, one list per check."""
    rng = np.random.default_rng([seed, 5, t])
    n = int(rng.integers(2, 7))
    p1 = random_pmf(rng, n)
    p2 = random_pmf(rng, n, labels=p1.alphabet)
    alphas = ALPHA_GRID + tuple(rng.uniform(size=20))
    return [_chord_margins(entropy, ((p1,), (p2,)), alphas, {"p1": p1.probs, "p2": p2.probs},
                           concave=True)]


def mi_curvature_trial(seed, t):
    """T06's chord margins for case t, one list per check."""
    rng = np.random.default_rng([seed, 6, t])
    nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    labels = tuple(f"g{i}" for i in range(nx))
    px1, px2 = (random_pmf(rng, nx, labels=labels) for _ in range(2))
    w1, w2 = (random_cond(rng, nx, ny) for _ in range(2))
    alphas = ALPHA_GRID + tuple(rng.uniform(size=20))
    return [_chord_margins(lambda px: mutual_information(joint_from_factors(px, w1)),
                           ((px1,), (px2,)), alphas,
                           {"px1": px1.probs, "px2": px2.probs, "channel": w1.probs},
                           concave=True),
            _chord_margins(lambda w: mutual_information(joint_from_factors(px1, w)),
                           ((w1,), (w2,)), alphas,
                           {"px": px1.probs, "w1": w1.probs, "w2": w2.probs})]


def _same_chord_witness(got, expected):
    assert list(got) == list(expected)
    assert type(got["alpha"]) is type(expected["alpha"])
    assert float(got["alpha"]).hex() == float(expected["alpha"]).hex()
    _same_witness([got[k] for k in list(got)[1:]], [expected[k] for k in list(expected)[1:]])


def duality_trial(seed, t):
    """T12's weak-duality margin and witness for trial t, one table at a time,
    the log-partition by scipy (which the DV kernel matches bit for bit)."""
    rng = np.random.default_rng([seed, 121, t])
    n = int(rng.integers(2, 9))
    p = random_pmf(rng, n)
    q = random_pmf(rng, n, labels=p.alphabet)
    g = rng.normal(scale=3.0, size=n)
    value = float(p.probs @ g) - float(scipy.special.logsumexp(g + np.log(q.probs)))
    kl = _clip_residue(math.fsum(scipy.special.rel_entr(p.probs, q.probs).tolist()))
    return (value - kl,), (p.probs, q.probs, g)


# enough trials for three stacks of each stacked path, the last one partial
TRIALS = 2 * _STACK // 10 + 7


def _same_witness(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not a.flags.writeable


class TestStackedProbes:
    """T09's binary chains, T12's duality trials and the chords of T04, T05 and
    T06 run as stacks; each trial keeps the bits of the per-table path, which
    stays here as the oracle."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("probe, trial", [(_probe_kl_convexity, kl_convexity_trial),
                                              (_probe_entropy_concavity, entropy_concavity_trial),
                                              (_probe_mi_curvature, mi_curvature_trial)])
    def test_chords_match_the_per_table_path(self, monkeypatch, seed, probe, trial):
        class Recording(_Worst):
            """A tracker that also keeps every margin and witness it is fed."""

            def __init__(self, name, tolerance):
                super().__init__(name, tolerance)
                self.seen = []

            def update(self, value, witness):
                self.seen.append((value, witness))
                super().update(value, witness)

        monkeypatch.setattr(mitk.variational, "_Worst", Recording)
        trials_run, stacked = probe(TRIALS, seed, False)
        cases = [trial(seed, t) for t in range(TRIALS // 10)]
        assert trials_run == 31 * len(cases)
        assert len(stacked) == len(cases[0])
        for check, got in enumerate(stacked):
            expected = [seen for case in cases for seen in case[check]]
            assert [v.hex() for v, _ in got.seen] == [v.hex() for v, _ in expected]
            for (_, got_witness), (_, expected_witness) in zip(got.seen, expected):
                _same_chord_witness(got_witness, expected_witness)
            tracker = _Worst("", 0.0)
            for value, witness in expected:
                tracker.update(value, witness)
            assert got.value.hex() == tracker.value.hex()
            _same_chord_witness(got.witness, tracker.witness)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_binary_chains_match_the_per_table_path(self, seed):
        oracle = [dpi_trial(seed, t) for t in range(10 * TRIALS + TRIALS)]
        for start in range(0, 10 * TRIALS, _STACK):
            trials = range(start, min(start + _STACK, 10 * TRIALS))
            margins, witness = _binary_chains(seed, trials)
            for row, t in enumerate(trials):
                assert [m[row].hex() for m in margins] == [m.hex() for m in oracle[t][0]]
                _same_witness(witness(row), oracle[t][1])
        trackers = [_Worst("", 0.0) for _ in range(3)]
        for margins, witness in oracle:
            for tracker, margin in zip(trackers, margins):
                tracker.update(margin, witness)
        trials_run, stacked = _probe_dpi(TRIALS, seed, False)
        assert trials_run == 11 * TRIALS
        for got, expected in zip(stacked, trackers):
            assert got.value.hex() == expected.value.hex()
            _same_witness(got.witness, expected.witness)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_duality_trials_match_the_per_table_path(self, seed):
        oracle = [duality_trial(seed, t) for t in range(10 * TRIALS)]
        for start in range(0, 10 * TRIALS, _STACK):
            trials = range(start, min(start + _STACK, 10 * TRIALS))
            (margins,), witness = _duality_trials(seed, trials)
            for row, t in enumerate(trials):
                assert margins[row].hex() == oracle[t][0][0].hex()
                _same_witness(witness(row), oracle[t][1])
        tracker = _Worst("", 0.0)
        for (margin,), witness in oracle:
            tracker.update(margin, witness)
        trials_run, (_, duality) = _probe_dv(TRIALS, seed, False)
        assert trials_run == TRIALS // 10 + 10 * TRIALS
        assert duality.value.hex() == tracker.value.hex()
        _same_witness(duality.witness, tracker.witness)

    def test_first_nan_row_stays_the_worst(self):
        _, witness = _binary_chains(0, range(20))
        joints = _markov_tables(*(np.stack(rows) for rows in zip(*map(witness, range(20)))))
        joints[[7, 12]] = math.nan
        margins = _dpi_margins(joints)
        assert all(math.isnan(m[7]) and math.isnan(m[12]) for m in margins)
        trackers = [_Worst("", 0.0) for _ in margins]
        for tracker in trackers:
            tracker.update(5.0, "an earlier stack")
        _track(trackers, margins, lambda row: row)
        # a later stack with a larger margin does not displace the NaN either
        _track(trackers, [[9.0]] * 3, lambda row: "a later stack")
        for tracker in trackers:
            assert math.isnan(tracker.value) and tracker.witness == 7
            assert not tracker.check().passed

    @pytest.mark.parametrize("probe", [_probe_dpi, _probe_dv])
    def test_memory_stays_flat_in_the_trial_count(self, probe):
        def peak(trials):
            tracemalloc.start()
            try:
                probe(trials, 0, False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(_STACK // 10), peak(4 * _STACK // 10)
        assert four <= 1.5 * one, (one, four)


def _draws(rng):
    """What the probes draw, in one tuple: integers, floats, normals, exponentials."""
    return (rng.integers(2, 9), rng.uniform(size=3).tobytes(), rng.normal(size=2).tobytes(),
            rng.exponential(size=3).tobytes(), rng.integers(0, 2**63, size=2).tobytes())


class TestTrialStreams:
    """Each probe trial's generator is keyed in a vectorized pass; its stream
    is the one `np.random.default_rng([seed, probe, t])` gives, which stays
    here as the oracle."""

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 5, 2**128 + 1])
    @pytest.mark.parametrize("trials", [
        range(0), range(1), range(37), range(_STACK - 3, _STACK + 4),
        range(2 * _STACK - 1, 2 * _STACK + 1),
        # the trial index grows a second 32-bit word mid-range
        range(2**32 - 2, 2**32 + 2)])
    def test_streams_equal_default_rng(self, seed, trials):
        probe = 121
        got = [_draws(rng) for rng in _trial_rngs(seed, probe, trials)]
        assert got == [_draws(np.random.default_rng([seed, probe, t])) for t in trials]

    def test_a_generator_is_rekeyed_in_place(self):
        rngs = _trial_rngs(3, 9, range(_STACK + 2))
        first = next(rngs)
        assert all(rng is first for rng in rngs)

    def test_memory_is_one_chunk_however_many_trials(self):
        def peak(trials):
            tracemalloc.start()
            try:
                for _ in _trial_rngs(2**64 + 5, 9, trials):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, five = peak(range(_STACK)), peak(range(5 * _STACK))
        # one chunk's columns and key lists peak near 0.3 MB at _STACK = 1000
        assert five <= one + 16 * 1024, (one, five)
