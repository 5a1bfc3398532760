"""Exact discrete quantities against hand-derived oracles and classical identities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import rel_entr, xlogy

from mitk.discrete import (
    CondPmf,
    JointPmf2,
    JointPmf3,
    Pmf,
    _axes_entropy,
    _clip_residue,
    _cmi,
    _exact_sum,
    _kl,
    _mi,
    conditional_entropy,
    conditional_kl,
    conditional_mutual_information,
    entropy,
    f_divergence,
    f_js,
    f_kl,
    f_tv,
    format_joint_table,
    joint_entropy,
    joint_from_factors,
    js_divergence,
    kl_divergence,
    mi_chain_rule_terms,
    mi_from_divergence,
    mi_from_entropies,
    mutual_information,
    parse_joint_table,
    random_cond,
    random_joint2,
    random_joint3,
    random_pmf,
    total_variation,
)

LN2 = 0.6931471805599453

# Direct-summation oracles, computed by hand from the defining sums:
#   H(0.9, 0.1)                    = -(0.9 ln 0.9 + 0.1 ln 0.1)
#   H of [[.4,.1],[.1,.4]]         = -(2*0.4 ln 0.4 + 2*0.1 ln 0.1)
#   D((.75,.25) || (.5,.5))        = .75 ln 1.5 + .25 ln 0.5
#   I of [[.4,.1],[.1,.4]]         = four-cell sum of p ln[p/(px py)]
H_09_01 = 0.3250829733914482
H_JOINT_4114 = 1.1935496040981333
KL_7525_5050 = 0.13081203594113697
MI_4114 = 0.19274475702175753

COIN = Pmf(("h", "t"), [0.5, 0.5])
TILTED = JointPmf2(("r0", "r1"), ("c0", "c1"), [[0.4, 0.1], [0.1, 0.4]])
DIAGONAL = JointPmf2(("r0", "r1"), ("c0", "c1"), [[0.5, 0.0], [0.0, 0.5]])
PRODUCT_COINS = JointPmf2(("r0", "r1"), ("c0", "c1"), [[0.25, 0.25], [0.25, 0.25]])


def _bump(probs, *deltas):
    """Copy of `probs` with `deltas` added to its first cells in flat order."""
    out = np.array(probs, dtype=float)
    out.flat[: len(deltas)] += deltas
    return out


def _last_row_short(probs):
    out = np.array(probs, dtype=float)
    out[-1] *= 0.9
    return out


def _alphabets(shape):
    return tuple(tuple(f"s{axis}_{i}" for i in range(n)) for axis, n in enumerate(shape))


def _table_text(alphabets, probs):
    """The plain-text table format, written without building (and validating) a JointPmf2."""
    lines = [" ".join(alphabets[1])]
    for label, row in zip(alphabets[0], np.atleast_2d(probs)):
        lines.append(label + " " + " ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# every public way to make a table: (a valid table, build(probs, alphabets))
CONSTRUCTORS = {
    "Pmf": (np.full(4, 0.25), lambda p, a: Pmf(a[0], p)),
    "JointPmf2": (np.full((2, 2), 0.25), lambda p, a: JointPmf2(a[0], a[1], p)),
    "JointPmf3": (np.full((2, 2, 2), 0.125), lambda p, a: JointPmf3(a, p)),
    "CondPmf": (np.full((2, 2), 0.5), lambda p, a: CondPmf(a[0], a[1], p)),
    "parse_joint_table": (np.full((2, 2), 0.25),
                          lambda p, a: parse_joint_table(_table_text(a, p))),
    "mi_chain_rule_terms": (np.full((2, 2), 0.25), lambda p, a: mi_chain_rule_terms(p)),
}

# each bad-input class, made from a valid (probs, alphabets) pair
BAD_INPUTS = {
    "shape": lambda p, a: (p.reshape(2, -1) if p.ndim == 1 else p.ravel(), a),
    "empty": lambda p, a: (np.zeros((0,) * p.ndim), ((),) * p.ndim),
    # the mass stays 1 (each row's too), so only the sign check can refuse it
    "negative": lambda p, a: (_bump(p, 0.75, -0.75), a),
    "nan": lambda p, a: (_bump(p, math.nan), a),
    "inf": lambda p, a: (_bump(p, math.inf), a),
    "-inf": lambda p, a: (_bump(p, -math.inf), a),
    # NaN first in scan order: the sign message must still win
    "negative-nan": lambda p, a: (_bump(p, math.nan, -0.75), a),
    "duplicate-labels": lambda p, a: (p, ((a[0][0],) * len(a[0]),) + a[1:]),
    "mass-off-1e-11": lambda p, a: (_bump(p, 1e-11), a),
    # for CondPmf the first row stays a distribution and only the last is off
    "last-row-short": lambda p, a: (_last_row_short(p), a),
    "unhashable-labels": lambda p, a: (p, (tuple([label] for label in a[0]),) + a[1:]),
    "ragged": lambda p, a: ([p.ravel()[:1].tolist(), p.ravel()[1:].tolist()], a),
}
# bad inputs a constructor cannot be given: the chain rule takes a bare array,
# so it has no labels, and table text has only string labels and flat rows
NOT_EXPRESSIBLE = {
    ("mi_chain_rule_terms", "duplicate-labels"),
    ("mi_chain_rule_terms", "unhashable-labels"),
    ("parse_joint_table", "unhashable-labels"),
    ("parse_joint_table", "ragged"),
}


# the exact refusal of each sign or finiteness fault, after the table's name
SIGN_AND_FINITENESS = {
    "negative": "must be nonnegative",
    "nan": "must be finite",
    "inf": "must be finite",
    "-inf": "must be nonnegative",
    "negative-nan": "must be nonnegative",
}


class TestConstruction:
    @pytest.mark.parametrize("name,bad", [
        (name, bad) for name in CONSTRUCTORS for bad in BAD_INPUTS
        if (name, bad) not in NOT_EXPRESSIBLE
    ])
    def test_rejects_bad_input(self, name, bad):
        base, build = CONSTRUCTORS[name]
        probs, alphabets = BAD_INPUTS[bad](base, _alphabets(base.shape))
        # the error names the table; the text parser's own errors name a row of the text
        with pytest.raises(ValueError, match=None if name == "parse_joint_table" else name):
            build(probs, alphabets)

    @pytest.mark.parametrize("name,bad", [
        (name, bad) for name in CONSTRUCTORS for bad in SIGN_AND_FINITENESS
    ])
    def test_sign_and_finiteness_messages(self, name, bad):
        base, build = CONSTRUCTORS[name]
        probs, alphabets = BAD_INPUTS[bad](base, _alphabets(base.shape))
        what = "JointPmf2" if name == "parse_joint_table" else name
        with pytest.raises(ValueError) as info:
            build(probs, alphabets)
        assert str(info.value) == f"{what} probs {SIGN_AND_FINITENESS[bad]}"

    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_mass_within_tolerance_is_kept_as_given(self, name):
        base, build = CONSTRUCTORS[name]
        probs = _bump(base, 1e-13)
        made = build(probs, _alphabets(base.shape))
        if name == "mi_chain_rule_terms":
            assert all(math.isfinite(term) for term in made)
        else:
            # accepted and not renormalized: the very bytes that were given
            assert made.probs.tobytes() == probs.tobytes()

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            Pmf(("a", "b"), [1.2, -0.2])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Pmf(("a", "b"), [0.6, 0.6])

    def test_no_silent_renormalization(self):
        # off by 1e-6 must be refused, not fixed up
        with pytest.raises(ValueError):
            Pmf(("a", "b"), [0.5, 0.500001])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Pmf(("a", "a"), [0.5, 0.5])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Pmf(("a", "b", "c"), [0.5, 0.5])

    def test_probs_are_immutable(self):
        p = Pmf(("a", "b"), [0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.3

    def test_cond_rows_validated(self):
        with pytest.raises(ValueError):
            CondPmf(("g0",), ("t0", "t1"), [[0.7, 0.2]])

    def test_joint3_shape_checked(self):
        with pytest.raises(ValueError):
            JointPmf3((("x",), ("y",), ("z", "w")), np.ones((1, 1, 1)))


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(COIN) == pytest.approx(LN2, abs=1e-15)

    def test_degenerate(self):
        assert entropy(Pmf(("a", "b"), [1.0, 0.0])) == 0.0

    def test_tilted(self):
        assert entropy(Pmf(("a", "b"), [0.9, 0.1])) == pytest.approx(H_09_01, abs=1e-15)

    def test_joint_product_coins(self):
        assert joint_entropy(PRODUCT_COINS) == pytest.approx(math.log(4), abs=1e-15)

    def test_joint_diagonal_collapses(self):
        assert joint_entropy(DIAGONAL) == pytest.approx(LN2, abs=1e-15)

    def test_joint_tilted(self):
        assert joint_entropy(TILTED) == pytest.approx(H_JOINT_4114, abs=1e-15)

    def test_conditional_independent(self):
        assert conditional_entropy(PRODUCT_COINS, given=0) == pytest.approx(LN2, abs=1e-15)
        assert conditional_entropy(PRODUCT_COINS, given=1) == pytest.approx(LN2, abs=1e-15)

    def test_conditional_deterministic(self):
        assert conditional_entropy(DIAGONAL, given=1) == 0.0

    def test_conditional_tilted_given_cols(self):
        expected = H_JOINT_4114 - LN2  # H(X,Y) - H(Y) = 0.500402...
        assert conditional_entropy(TILTED, given=1) == pytest.approx(expected, abs=1e-15)


class TestKl:
    def test_equal_distributions(self):
        p = Pmf(("a", "b", "c"), [0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_two_term_oracle(self):
        p = Pmf(("a", "b"), [0.75, 0.25])
        assert kl_divergence(p, COIN_AB) == pytest.approx(KL_7525_5050, abs=1e-15)

    def test_absolute_continuity_violation(self):
        p = Pmf(("a", "b"), [1.0, 0.0])
        q = Pmf(("a", "b"), [0.0, 1.0])
        assert kl_divergence(p, q) == math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(Pmf(("a", "b"), [0.5, 0.5]), Pmf(("x", "y"), [0.5, 0.5]))

    def test_conditional_kl_equal(self):
        c = random_cond(np.random.default_rng(0), 3, 4)
        w = random_pmf(np.random.default_rng(1), 3, labels=c.given_alphabet)
        assert conditional_kl(c, c, w) == 0.0

    def test_conditional_kl_concentrated_weight(self):
        p = CondPmf(("g0", "g1"), ("a", "b"), [[0.75, 0.25], [0.5, 0.5]])
        q = CondPmf(("g0", "g1"), ("a", "b"), [[0.5, 0.5], [0.5, 0.5]])
        w = Pmf(("g0", "g1"), [1.0, 0.0])
        assert conditional_kl(p, q, w) == pytest.approx(KL_7525_5050, abs=1e-15)

    def test_conditional_kl_weighted_average(self):
        p = CondPmf(("g0", "g1"), ("a", "b"), [[0.75, 0.25], [0.5, 0.5]])
        q = CondPmf(("g0", "g1"), ("a", "b"), [[0.5, 0.5], [0.5, 0.5]])
        w = Pmf(("g0", "g1"), [0.5, 0.5])
        assert conditional_kl(p, q, w) == pytest.approx(0.5 * KL_7525_5050, abs=1e-15)

    def test_conditional_kl_infinity_propagates(self):
        p = CondPmf(("g0",), ("a", "b"), [[1.0, 0.0]])
        q = CondPmf(("g0",), ("a", "b"), [[0.0, 1.0]])
        w = Pmf(("g0",), [1.0])
        assert conditional_kl(p, q, w) == math.inf


COIN_AB = Pmf(("a", "b"), [0.5, 0.5])


class TestFDivergence:
    def test_kl_instance_matches_kl(self):
        p = Pmf(("a", "b"), [0.75, 0.25])
        assert f_divergence(f_kl, p, COIN_AB) == kl_divergence(p, COIN_AB)

    def test_kl_instance_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_pmf(rng, 5)
            q = random_pmf(rng, 5, labels=p.alphabet)
            assert f_divergence(f_kl, p, q) == pytest.approx(kl_divergence(p, q), abs=1e-12)

    def test_total_variation_oracle(self):
        p = Pmf(("a", "b"), [0.75, 0.25])
        assert total_variation(p, COIN_AB) == 0.25
        assert f_divergence(f_tv, p, COIN_AB, slope_at_inf=0.5) == pytest.approx(0.25, abs=1e-15)

    def test_tv_handles_missing_support(self):
        p = Pmf(("a", "b"), [1.0, 0.0])
        q = Pmf(("a", "b"), [0.0, 1.0])
        assert f_divergence(f_tv, p, q, slope_at_inf=0.5) == pytest.approx(1.0, abs=1e-15)
        assert total_variation(p, q) == 1.0

    def test_infinite_slope_returns_before_f_runs(self):
        def never(t):
            raise AssertionError("f ran")

        p = Pmf(("a", "b"), [0.5, 0.5])
        assert f_divergence(never, p, Pmf(("a", "b"), [1.0, 0.0])) == math.inf

    def test_js_self_is_zero(self):
        p = Pmf(("a", "b", "c"), [0.2, 0.5, 0.3])
        assert js_divergence(p, p) == 0.0

    def test_js_matches_f_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_pmf(rng, 4)
            q = random_pmf(rng, 4, labels=p.alphabet)
            assert js_divergence(p, q) == pytest.approx(
                f_divergence(f_js, p, q, slope_at_inf=math.log(2.0)), abs=1e-12
            )


class TestMutualInformation:
    def test_product_is_zero(self):
        assert mutual_information(PRODUCT_COINS) == 0.0

    def test_self_information_is_entropy(self):
        assert mutual_information(DIAGONAL) == pytest.approx(LN2, abs=1e-15)

    def test_tilted_oracle(self):
        assert mutual_information(TILTED) == pytest.approx(MI_4114, abs=1e-15)

    def test_three_routes_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            j = random_joint2(rng, rng.integers(2, 7), rng.integers(2, 7))
            direct = mutual_information(j)
            assert abs(direct - mi_from_divergence(j)) <= 1e-12
            assert abs(direct - mi_from_entropies(j)) <= 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            j = random_joint2(rng, 3, 5)
            assert mutual_information(j) == mutual_information(j.transpose())


class TestConditionalMi:
    def test_mutually_independent(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.6, 0.4])
        pz = np.array([0.2, 0.8])
        t = px[:, None, None] * py[None, :, None] * pz[None, None, :]
        j = JointPmf3((("x0", "x1"), ("y0", "y1"), ("z0", "z1")), t)
        assert conditional_mutual_information(j, conditioning=2) == pytest.approx(0.0, abs=1e-15)

    def test_constant_z_reduces_to_mi(self):
        t = np.zeros((2, 2, 1))
        t[:, :, 0] = TILTED.probs
        j = JointPmf3((("x0", "x1"), ("y0", "y1"), ("z0",)), t)
        assert conditional_mutual_information(j, conditioning=2) == pytest.approx(
            MI_4114, abs=1e-14
        )

    def test_matches_direct_log_ratio_sum(self):
        # independent oracle: expected log-ratio of conditional joint to
        # product of conditionals, summed cell by cell
        rng = np.random.default_rng(17)
        for _ in range(50):
            j = random_joint3(rng, 2, 2, 2)
            t = j.probs
            pz = t.sum(axis=(0, 1))
            pxz = t.sum(axis=1)
            pyz = t.sum(axis=0)
            acc = 0.0
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        p = t[a, b, c]
                        if p > 0:
                            acc += p * math.log(p * pz[c] / (pxz[a, c] * pyz[b, c]))
            assert conditional_mutual_information(j, conditioning=2) == pytest.approx(
                acc, abs=1e-12
            )


class TestChainRule:
    def test_single_variable_is_plain_mi(self):
        terms = mi_chain_rule_terms(TILTED.probs)
        assert len(terms) == 1
        assert terms[0] == pytest.approx(MI_4114, abs=1e-14)

    def test_independent_y_terms_vanish(self):
        rng = np.random.default_rng(19)
        xs = rng.exponential(size=(2, 3))
        xs /= xs.sum()
        py = np.array([0.4, 0.6])
        table = xs[:, :, None] * py[None, None, :]
        for term in mi_chain_rule_terms(table):
            assert abs(term) <= 1e-12

    def test_terms_sum_to_joint_mi(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            j = random_joint3(rng, 2, 2, 2)
            table = j.probs
            terms = mi_chain_rule_terms(table)
            flat = JointPmf2(
                ("x0y0", "x0y1", "x1y0", "x1y1"),
                ("z0", "z1"),
                table.reshape(4, 2),
            )
            assert math.fsum(terms) == pytest.approx(mutual_information(flat), abs=1e-10)

    def test_dimension_limit(self):
        table = np.full((2,) * 6, 1.0 / 64)
        with pytest.raises(ValueError):
            mi_chain_rule_terms(table)


def _sparse(rng, shape, zero_frac):
    """A random table with about `zero_frac` of its cells zeroed, at least one
    cell kept on the last axis of each row, each last-axis row summing to 1."""
    table = rng.exponential(size=shape)
    table[rng.random(shape) < zero_frac] = 0.0
    rows = table.reshape(-1, shape[-1])
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    return table / table.sum(axis=-1, keepdims=True)


class TestLoopOracles:
    """The one-pass and one-kernel forms against the loops they replaced,
    kept here as references: equal bits (`float.hex`) on random tables with
    zero cells."""

    @staticmethod
    def conditional_kl_loop(p, q, weights):
        terms = []
        for i, w in enumerate(weights.probs):
            if w == 0.0:
                continue
            row_kl = _clip_residue(_exact_sum(rel_entr(p.probs[i], q.probs[i])))
            if math.isinf(row_kl):
                return math.inf
            terms.append(w * row_kl)
        return _clip_residue(math.fsum(terms))

    @staticmethod
    def f_divergence_loop(f, p, q, slope_at_inf=math.inf):
        terms = []
        for pi, qi in zip(p.probs, q.probs):
            if qi > 0.0:
                terms.append(qi * f(pi / qi))
            elif pi > 0.0:
                if math.isinf(slope_at_inf):
                    return math.inf
                terms.append(pi * slope_at_inf)
        return math.fsum(terms)

    @staticmethod
    def axes_entropy(table, keep):
        """One table's marginal entropy over the axes in `keep`, as computed
        before the kernels took stacks of tables."""
        drop = tuple(sorted(set(range(table.ndim)) - set(keep)))
        marg = table.sum(axis=drop) if drop else table
        return -_exact_sum(xlogy(marg, marg))

    @classmethod
    def cmi_loop(cls, j, conditioning):
        a, b = sorted({0, 1, 2} - {conditioning})
        c = conditioning
        t = j.probs
        v = (
            cls.axes_entropy(t, tuple(sorted((a, c))))
            + cls.axes_entropy(t, tuple(sorted((b, c))))
            - cls.axes_entropy(t, (0, 1, 2))
            - cls.axes_entropy(t, (c,))
        )
        return _clip_residue(v)

    @classmethod
    def chain_loop(cls, t):
        n = t.ndim - 1
        y_axis = n
        terms = []
        for i in range(n):
            prefix = tuple(range(i))
            h_prefix_i = cls.axes_entropy(t, prefix + (i,))
            h_prefix_y = cls.axes_entropy(t, prefix + (y_axis,))
            h_prefix_iy = cls.axes_entropy(t, prefix + (i, y_axis))
            h_prefix = cls.axes_entropy(t, prefix) if prefix else 0.0
            terms.append(_clip_residue(h_prefix_i + h_prefix_y - h_prefix_iy - h_prefix))
        return terms

    def test_conditional_kl(self):
        rng = np.random.default_rng(29)
        outcomes = {"finite": 0, "inf": 0, "finite past an infinite row": 0}
        for trial in range(300):
            n_given, n_target = (int(k) for k in rng.integers(2, 6, size=2))
            p, q = (_sparse(rng, (n_given, n_target), 0.25) for _ in range(2))
            w = random_pmf(rng, n_given).probs.copy()
            w[rng.random(n_given) < 0.3] = 0.0
            k = int(rng.integers(n_given))
            w[(k + 1) % n_given] += 0.5  # weight off row k
            if trial % 3 == 0:  # row k: zero weight, infinite divergence
                p[k], q[k] = 1.0 / n_target, np.eye(n_target)[0]
                w[k] = 0.0
            given, target = tuple(range(n_given)), tuple(range(n_target))
            p, q = CondPmf(given, target, p), CondPmf(given, target, q)
            weights = Pmf(given, w / w.sum())
            value = conditional_kl(p, q, weights)
            assert value.hex() == self.conditional_kl_loop(p, q, weights).hex()
            outcomes["inf" if math.isinf(value) else "finite"] += 1
            outcomes["finite past an infinite row"] += trial % 3 == 0 and math.isfinite(value)
        assert min(outcomes.values()) >= 20, outcomes

    def test_f_divergence(self):
        rng = np.random.default_rng(31)
        orphan_pairs = 0
        for _ in range(300):
            n = int(rng.integers(2, 8))
            p, q = (Pmf(tuple(range(n)), _sparse(rng, (n,), 0.3)) for _ in range(2))
            orphan_pairs += bool(np.any((q.probs == 0.0) & (p.probs > 0.0)))
            for f, slope in ((f_kl, math.inf), (f_tv, 0.5), (f_tv, math.inf), (f_js, LN2)):
                assert (f_divergence(f, p, q, slope_at_inf=slope).hex()
                        == self.f_divergence_loop(f, p, q, slope).hex())
            assert f_divergence(f_kl, p, q).hex() == self.f_divergence_loop(f_kl, p, q).hex()
        assert 50 <= orphan_pairs <= 250, orphan_pairs

    def test_conditional_mutual_information(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            shape = tuple(int(k) for k in rng.integers(1, 5, size=3))
            probs = _sparse(rng, shape, 0.3)
            j = JointPmf3(tuple(tuple(range(k)) for k in shape), probs / probs.sum())
            for conditioning in (0, 1, 2):
                assert (conditional_mutual_information(j, conditioning).hex()
                        == self.cmi_loop(j, conditioning).hex())

    @pytest.mark.parametrize("n_x", [1, 2, 3, 4])
    def test_chain_rule_terms(self, n_x):
        rng = np.random.default_rng([41, n_x])
        for _ in range(100):
            shape = tuple(int(k) for k in rng.integers(1, 4, size=n_x + 1))
            table = _sparse(rng, shape, 0.3)
            table = table / table.sum()
            terms = mi_chain_rule_terms(table)
            assert len(terms) == n_x
            assert [t.hex() for t in terms] == [t.hex() for t in self.chain_loop(table)]

    def test_stacked_kernels_match_one_table(self):
        # each table of a stack gets the bits it gets on its own: the marginal
        # entropy over every axis subset, CMI, MI and KL, on shapes of 1 to 4
        # axes with up to 69 symbols on one axis
        rng = np.random.default_rng(43)
        cases = 0
        for _ in range(250):
            ndim = int(rng.integers(1, 5))
            shape = [int(k) for k in rng.integers(1, 6, size=ndim)]
            shape[int(rng.integers(ndim))] = int(rng.integers(1, 70))
            stack = np.array([_sparse(rng, tuple(shape), 0.2) for _ in range(int(rng.integers(2, 6)))])
            stack /= stack.sum(axis=tuple(range(1, ndim + 1)), keepdims=True)
            hex_rows = lambda values: [v.hex() for v in values]  # noqa: E731
            for size in range(ndim + 1):
                for keep in itertools.combinations(range(ndim), size):
                    assert hex_rows(_axes_entropy(stack, keep)) == hex_rows(
                        self.axes_entropy(t, keep) for t in stack), (shape, keep)
                    cases += 1
            if ndim == 1:
                q = stack[::-1].copy()
                assert hex_rows(_kl(stack, q)) == hex_rows(
                    _clip_residue(_exact_sum(rel_entr(p, q_row))) for p, q_row in zip(stack, q))
            if ndim == 2:
                assert hex_rows(_mi(stack)) == hex_rows(_clip_residue(_exact_sum(rel_entr(
                    t, np.outer(t.sum(axis=1), t.sum(axis=0))))) for t in stack)
            if ndim == 3:
                for c in range(3):
                    a, b = sorted({0, 1, 2} - {c})
                    assert hex_rows(_cmi(stack, a, b, (c,))) == hex_rows(
                        self.cmi_loop(JointPmf3([range(k) for k in shape], t), c) for t in stack)
        assert cases > 1500, cases


@st.composite
def pmf_pairs(draw, max_size=6):
    n = draw(st.integers(min_value=2, max_value=max_size))
    raws = []
    for _ in range(2):
        raw = draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=1e3),
                min_size=n,
                max_size=n,
            )
        )
        raws.append(np.array(raw) / math.fsum(raw))
    labels = tuple(f"s{i}" for i in range(n))
    return Pmf(labels, raws[0]), Pmf(labels, raws[1])


class TestHypothesisProperties:
    @given(pmf_pairs())
    @settings(max_examples=200, deadline=None)
    def test_kl_nonnegative(self, pair):
        p, q = pair
        assert kl_divergence(p, q) >= 0.0

    @given(pmf_pairs())
    @settings(max_examples=200, deadline=None)
    def test_entropy_bounds(self, pair):
        p, _ = pair
        assert 0.0 <= entropy(p) <= math.log(len(p)) + 1e-12

    @given(st.integers(min_value=0, max_value=2**31), st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_subadditivity_and_chain(self, seed, nr, nc):
        j = random_joint2(np.random.default_rng(seed), nr, nc)
        hj = joint_entropy(j)
        hx = entropy(j.marginal(0))
        hy = entropy(j.marginal(1))
        assert hj <= hx + hy + 1e-12
        assert abs(hj - hx - conditional_entropy(j, given=0)) <= 1e-12
        assert conditional_entropy(j, given=1) <= hx + 1e-12


class TestEntropyContinuity:
    def test_perturbation_shrinks_with_radius(self):
        # total-variation bumps of decreasing size move entropy by strictly
        # decreasing amounts
        p = Pmf(("a", "b", "c"), [0.5, 0.3, 0.2])
        deltas = []
        for eps in (1e-2, 1e-4, 1e-6):
            bump = np.array([eps, -eps, 0.0])
            q = Pmf(p.alphabet, p.probs + bump)
            deltas.append(abs(entropy(q) - entropy(p)))
        assert deltas[0] > deltas[1] > deltas[2]


class TestSerialization:
    def test_round_trip(self):
        text = format_joint_table(TILTED)
        back = parse_joint_table(text)
        assert back.row_alphabet == TILTED.row_alphabet
        assert back.col_alphabet == TILTED.col_alphabet
        assert np.array_equal(back.probs, TILTED.probs)

    def test_parse_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            parse_joint_table("c0 c1\nr0 0.5\n")

    def test_parse_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            parse_joint_table("c0 c1\nr0 0.5 0.1\nr1 0.1 0.1\n")


class TestFactorHelpers:
    def test_joint_from_factors_multiplies(self):
        rng = np.random.default_rng(29)
        px = random_pmf(rng, 3, labels=("g0", "g1", "g2"))
        w = random_cond(rng, 3, 2)
        j = joint_from_factors(px, w)
        assert np.allclose(j.probs, px.probs[:, None] * w.probs, atol=0)

    def test_joint_from_factors_takes_factors_within_tolerance(self):
        # each factor is 0.9e-12 short of mass 1, so their product is 1.8e-12
        # short; it is not a table to validate again, only a product of two
        short = [0.5, 0.5 - 0.9e-12]
        px = Pmf(("a", "b"), short)
        w = CondPmf(("a", "b"), ("c", "d"), [short, short])
        j = joint_from_factors(px, w)
        assert j.probs.tobytes() == (px.probs[:, None] * w.probs).tobytes()
