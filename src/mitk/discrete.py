"""Exact entropy, divergence, and mutual-information computations on finite alphabets.

All quantities are in nats. Sums are accumulated with compensated (exact)
summation, so the classical identities hold to within a few ulp instead of
accumulating O(cells) rounding error, and results are independent of
traversal order. Each table a caller builds (`Pmf`, `JointPmf2`, `JointPmf3`,
`CondPmf`, and the array `mi_chain_rule_terms` takes) passes one validator:
its entries form a rectangular array of finite, nonnegative numbers shaped
like the alphabet lengths, it is nonempty, each alphabet's labels are hashable
and unique, and its mass (each row's for `CondPmf`) is 1 within MASS_ATOL; a
failure is a ValueError that names the table. Nothing is renormalized
silently: a caller that wants a normalized table must normalize it first.
Tables derived here from validated tables (marginals, transposes, products of
factors, mixtures) are not validated again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr, xlogy

MASS_ATOL = 1e-12

__all__ = [
    "MASS_ATOL",
    "Pmf",
    "JointPmf2",
    "JointPmf3",
    "CondPmf",
    "entropy",
    "joint_entropy",
    "conditional_entropy",
    "kl_divergence",
    "conditional_kl",
    "f_divergence",
    "f_kl",
    "f_tv",
    "f_js",
    "js_divergence",
    "total_variation",
    "mutual_information",
    "mi_from_divergence",
    "mi_from_entropies",
    "conditional_mutual_information",
    "mi_chain_rule_terms",
    "joint_from_factors",
    "random_pmf",
    "random_joint2",
    "random_joint3",
    "random_cond",
    "format_joint_table",
    "parse_joint_table",
]


def _exact_sum(values) -> float:
    """Correctly rounded sum, order independent (math.fsum)."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def _clip_residue(value: float) -> float:
    """Zero out tiny negative rounding residue of a provably nonnegative quantity."""
    if -MASS_ATOL < value < 0.0:
        return 0.0
    return value


def _row_sums(terms: np.ndarray) -> list:
    """Each row's correctly rounded sum (math.fsum) of the stacked `terms`,
    row i being everything under `terms[i]`; one `tolist` per 256 rows, so no
    list of a whole stack's floats is built."""
    rows = terms.reshape(len(terms), -1)
    return [math.fsum(row) for start in range(0, len(rows), 256)
            for row in rows[start:start + 256].tolist()]


def _check_rows(rows: np.ndarray, what: str, row_labels=None) -> None:
    """Raise a ValueError unless every entry of the 2-D `rows` is finite and
    nonnegative and each row's exact sum is 1 within MASS_ATOL; a row off its
    mass is named by its label in `row_labels`, if given."""
    if not (rows.min() >= 0.0 and rows.max() < math.inf):  # false on NaN too
        if np.any(rows < 0):
            raise ValueError(f"{what} probs must be nonnegative")
        raise ValueError(f"{what} probs must be finite")
    for i, total in enumerate(_row_sums(rows)):
        if abs(total - 1.0) > MASS_ATOL:
            where = "" if row_labels is None else f" row {row_labels[i]!r}"
            raise ValueError(f"{what} probs{where} must sum to 1 within {MASS_ATOL}, got {total!r}")


def _validated(probs, alphabets: tuple | None, what: str, row_sums: bool = False) -> np.ndarray:
    """Read-only float copy of `probs` after the checks in the module docstring.

    `alphabets=None` labels each axis by index, for a bare table. `row_sums`
    checks the mass of each row (a conditional table) instead of the whole.
    """
    try:  # ragged nesting, a non-number or an unhashable label
        arr = np.array(probs, dtype=float)
        alphabets = tuple(range(k) for k in arr.shape) if alphabets is None else alphabets
        distinct = [len(set(labels)) for labels in alphabets]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} needs rectangular numeric probs, hashable labels: {exc}") from None
    shape = tuple(len(a) for a in alphabets)
    if arr.shape != shape:
        raise ValueError(f"{what} probs have shape {arr.shape}, alphabet lengths are {shape}")
    if arr.size == 0:
        raise ValueError(f"{what} probs must be nonempty")
    for labels, count in zip(alphabets, distinct):
        if count != len(labels):
            raise ValueError(f"{what} labels must be unique, got {labels!r}")
    if row_sums:
        _check_rows(arr, what, alphabets[0])
    else:
        _check_rows(arr.reshape(1, -1), what)
    arr.setflags(write=False)
    return arr


def _derived(cls, *fields):
    """`cls(*fields)` for fields computed off validated tables, without `_validated`."""
    table = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(table, name, value)
    table.probs.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite, ordered, labeled alphabet."""

    alphabet: tuple
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "probs", _validated(self.probs, (self.alphabet,), "Pmf"))

    def __len__(self) -> int:
        return len(self.alphabet)


@dataclass(frozen=True, eq=False)
class JointPmf2:
    """Joint probability table over two labeled alphabets (rows x columns)."""

    row_alphabet: tuple
    col_alphabet: tuple
    probs: np.ndarray

    def __post_init__(self):
        alphabets = (tuple(self.row_alphabet), tuple(self.col_alphabet))
        object.__setattr__(self, "row_alphabet", alphabets[0])
        object.__setattr__(self, "col_alphabet", alphabets[1])
        object.__setattr__(self, "probs", _validated(self.probs, alphabets, "JointPmf2"))

    def marginal(self, axis: int) -> Pmf:
        """Marginal Pmf of the variable living on `axis` (0 = rows, 1 = cols)."""
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        labels = self.row_alphabet if axis == 0 else self.col_alphabet
        return _derived(Pmf, labels, self.probs.sum(axis=1 - axis))

    def transpose(self) -> "JointPmf2":
        return _derived(JointPmf2, self.col_alphabet, self.row_alphabet, self.probs.T)


@dataclass(frozen=True, eq=False)
class JointPmf3:
    """Joint probability table over three labeled alphabets."""

    alphabets: tuple
    probs: np.ndarray

    def __post_init__(self):
        alphabets = tuple(tuple(a) for a in self.alphabets)
        if len(alphabets) != 3:
            raise ValueError("JointPmf3 needs exactly three alphabets")
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "probs", _validated(self.probs, alphabets, "JointPmf3"))

    def pair_marginal(self, axis_a: int, axis_b: int) -> JointPmf2:
        """2-D marginal over the ordered axis pair (axis_a, axis_b)."""
        if axis_a == axis_b or not {axis_a, axis_b} <= {0, 1, 2}:
            raise ValueError("need two distinct axes in {0, 1, 2}")
        drop = ({0, 1, 2} - {axis_a, axis_b}).pop()
        table = self.probs.sum(axis=drop)
        if axis_a > axis_b:
            table = table.T
        return _derived(JointPmf2, self.alphabets[axis_a], self.alphabets[axis_b], table)


@dataclass(frozen=True, eq=False)
class CondPmf:
    """Conditional table: one Pmf row over the target alphabet per given symbol."""

    given_alphabet: tuple
    target_alphabet: tuple
    probs: np.ndarray

    def __post_init__(self):
        alphabets = (tuple(self.given_alphabet), tuple(self.target_alphabet))
        object.__setattr__(self, "given_alphabet", alphabets[0])
        object.__setattr__(self, "target_alphabet", alphabets[1])
        probs = _validated(self.probs, alphabets, "CondPmf", row_sums=True)
        object.__setattr__(self, "probs", probs)


def joint_from_factors(px: Pmf, channel: CondPmf) -> JointPmf2:
    """Materialize P(x, y) = P(x) * P(y|x)."""
    if px.alphabet != channel.given_alphabet:
        raise ValueError("channel given-alphabet must match px alphabet")
    probs = px.probs[:, None] * channel.probs
    return _derived(JointPmf2, px.alphabet, channel.target_alphabet, probs)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------


def entropy(p: Pmf) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0."""
    return -_exact_sum(xlogy(p.probs, p.probs))


def joint_entropy(j: JointPmf2) -> float:
    """Entropy of the joint table, -sum p(x,y) ln p(x,y)."""
    return -_exact_sum(xlogy(j.probs, j.probs))


def conditional_entropy(j: JointPmf2, given: int) -> float:
    """H(target | given variable), where `given` selects axis 0 (rows) or 1 (cols).

    Computed as H(joint) - H(given marginal); zero-mass given symbols
    contribute nothing. Always nonnegative and at most the target's
    marginal entropy.
    """
    h = joint_entropy(j) - entropy(j.marginal(given))
    return _clip_residue(h)


def _axes_entropy(tables: np.ndarray, keep: tuple) -> list:
    """Entropy of each table's marginal over its axes in `keep`, for tables
    stacked on axis 0 of `tables` (so table axis k is axis k + 1)."""
    drop = tuple(sorted(set(range(1, tables.ndim)) - {axis + 1 for axis in keep}))
    marg = tables.sum(axis=drop) if drop else tables
    return [-h for h in _row_sums(xlogy(marg, marg))]


def _cmi(tables: np.ndarray, a: int, b: int, given: tuple) -> list:
    """I(A;B | G) on the axes a, b and `given` of each stacked table, as H(A,G)
    + H(B,G) - H(A,B,G) - H(G); with no G, H(G) is 0.0 (not the entropy of
    the total mass, which can differ from 1 by a few ulp)."""
    h_given = _axes_entropy(tables, given) if given else [0.0] * len(tables)
    return [_clip_residue(h_ag + h_bg - h_abg - h_g) for h_ag, h_bg, h_abg, h_g in zip(
        _axes_entropy(tables, given + (a,)), _axes_entropy(tables, given + (b,)),
        _axes_entropy(tables, given + (a, b)), h_given)]


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """D(p || q) = sum p ln(p/q) in nats.

    Conventions: 0 ln(0/q) = 0, and the result is +inf as soon as some
    symbol has p > 0 with q = 0. Never negative.
    """
    if p.alphabet != q.alphabet:
        raise ValueError("kl_divergence requires identical alphabets")
    return _kl(p.probs[None], q.probs[None])[0]


def _kl(p: np.ndarray, q: np.ndarray) -> list:
    """D(p || q) of each row pair of the stacked tables p and q."""
    return [_clip_residue(d) for d in _row_sums(rel_entr(p, q))]


def conditional_kl(p: CondPmf, q: CondPmf, weights: Pmf) -> float:
    """Expected per-row KL divergence, sum_x w(x) D(p(.|x) || q(.|x)).

    Infinity from any positively weighted row propagates.
    """
    if p.given_alphabet != q.given_alphabet or p.target_alphabet != q.target_alphabet:
        raise ValueError("conditional_kl requires matching alphabets")
    if weights.alphabet != p.given_alphabet:
        raise ValueError("weights must cover the given-alphabet")
    mass = weights.probs > 0.0
    rows = rel_entr(p.probs[mass], q.probs[mass])
    return _clip_residue(math.fsum(w * _clip_residue(_exact_sum(row))
                                   for w, row in zip(weights.probs[mass], rows)))


def f_divergence(f, p: Pmf, q: Pmf, slope_at_inf: float = math.inf) -> float:
    """Generalized divergence sum_x q(x) f(p(x)/q(x)) for convex f with f(1) = 0.

    Zero-mass conventions: cells with p = q = 0 contribute 0; cells with
    p > 0, q = 0 contribute p * slope_at_inf, the limit of f(t)/t. The
    default slope (+inf) matches superlinear f such as t ln t; bounded
    instances like total variation pass their finite slope.
    """
    if p.alphabet != q.alphabet:
        raise ValueError("f_divergence requires identical alphabets")
    pv, qv = p.probs, q.probs
    matched = qv > 0.0
    orphans = pv[~matched & (pv > 0.0)]
    if math.isinf(slope_at_inf) and orphans.size:
        return math.inf
    return math.fsum([*(qi * f(pi / qi) for pi, qi in zip(pv[matched], qv[matched])),
                      *(orphans * slope_at_inf).tolist()])


def f_kl(t: float) -> float:
    """t ln t, the convex generator of KL divergence (0 at t = 0)."""
    return float(xlogy(t, t))


def f_tv(t: float) -> float:
    """|t - 1| / 2, the convex generator of total variation."""
    return 0.5 * abs(t - 1.0)


def f_js(t: float) -> float:
    """Convex generator of the two-sided divergence to the midpoint mixture."""
    if t == 0.0:
        return math.log(2.0)
    return float(xlogy(t, 2.0 * t / (1.0 + t))) + math.log(2.0 / (1.0 + t))


def js_divergence(p: Pmf, q: Pmf) -> float:
    """D(p || m) + D(q || m) with m the midpoint mixture of p and q."""
    if p.alphabet != q.alphabet:
        raise ValueError("js_divergence requires identical alphabets")
    m = 0.5 * (p.probs + q.probs)
    return _clip_residue(
        _exact_sum(rel_entr(p.probs, m)) + _exact_sum(rel_entr(q.probs, m))
    )


def total_variation(p: Pmf, q: Pmf) -> float:
    """Half the L1 distance between the tables."""
    if p.alphabet != q.alphabet:
        raise ValueError("total_variation requires identical alphabets")
    return 0.5 * _exact_sum(np.abs(p.probs - q.probs))


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------


def mutual_information(j: JointPmf2) -> float:
    """I(X;Y) in nats, by direct summation of p(x,y) ln[p(x,y) / (p(x)p(y))]."""
    return _mi(j.probs[None])[0]


def _mi(tables: np.ndarray) -> list:
    """I(X;Y) of each (rows x cols) table stacked on axis 0 of `tables`."""
    product = tables.sum(axis=2)[:, :, None] * tables.sum(axis=1)[:, None, :]
    return [_clip_residue(i) for i in _row_sums(rel_entr(tables, product))]


def mi_from_divergence(j: JointPmf2) -> float:
    """I(X;Y) as the KL divergence between the joint and the product of marginals."""
    px = j.probs.sum(axis=1)
    py = j.probs.sum(axis=0)
    pairs = tuple((r, c) for r in j.row_alphabet for c in j.col_alphabet)
    joint = _derived(Pmf, pairs, j.probs.ravel())
    product = _derived(Pmf, pairs, np.outer(px, py).ravel())
    return kl_divergence(joint, product)


def mi_from_entropies(j: JointPmf2) -> float:
    """I(X;Y) as H(X) + H(Y) - H(X,Y)."""
    return _clip_residue(
        entropy(j.marginal(0)) + entropy(j.marginal(1)) - joint_entropy(j)
    )


def conditional_mutual_information(j: JointPmf3, conditioning: int) -> float:
    """I(A;B | C) where C is the variable on the `conditioning` axis.

    Computed as H(A,C) + H(B,C) - H(A,B,C) - H(C); always nonnegative.
    """
    if conditioning not in (0, 1, 2):
        raise ValueError("conditioning axis must be 0, 1, or 2")
    a, b = sorted({0, 1, 2} - {conditioning})
    return _cmi(j.probs[None], a, b, (conditioning,))[0]


def mi_chain_rule_terms(table: np.ndarray) -> list:
    """Chain-rule decomposition of I(X_1..X_n; Y) for a joint table.

    `table` is an (n+1)-dimensional probability table whose last axis is Y.
    Term i is I(X_i; Y | X_(i-1), ..., X_1); the terms sum to the total
    information between (X_1..X_n) jointly and Y. Limited to n <= 4.
    """
    t = _validated(table, None, "mi_chain_rule_terms")
    n = t.ndim - 1
    if n < 1:
        raise ValueError("mi_chain_rule_terms table must have at least two axes (one X plus Y)")
    if n > 4:
        raise ValueError(f"mi_chain_rule_terms supports at most 4 conditioned variables, got {n}")

    return [_cmi(t[None], i, n, tuple(range(i)))[0] for i in range(n)]


# ---------------------------------------------------------------------------
# Random tables for property tests (exponential draws, normalized:
# full support with probability one, so infinity branches are only hit
# when constructed deliberately)
# ---------------------------------------------------------------------------


def _normalized(rng, shape, uniform_mix: float = 0.0) -> np.ndarray:
    raw = rng.exponential(size=shape)
    table = raw / raw.sum()
    if uniform_mix:
        table = (1.0 - uniform_mix) * table + uniform_mix / table.size
    return table


def random_pmf(rng, n: int, labels=None, uniform_mix: float = 0.0) -> Pmf:
    if labels is None:
        labels = tuple(f"s{i}" for i in range(n))
    return Pmf(labels, _normalized(rng, n, uniform_mix))


def random_joint2(rng, n_rows: int, n_cols: int) -> JointPmf2:
    rows = tuple(f"r{i}" for i in range(n_rows))
    cols = tuple(f"c{i}" for i in range(n_cols))
    return JointPmf2(rows, cols, _normalized(rng, (n_rows, n_cols)))


def random_joint3(rng, n0: int, n1: int, n2: int) -> JointPmf3:
    alphabets = (
        tuple(f"x{i}" for i in range(n0)),
        tuple(f"y{i}" for i in range(n1)),
        tuple(f"z{i}" for i in range(n2)),
    )
    return JointPmf3(alphabets, _normalized(rng, (n0, n1, n2)))


def _row_normalized(raw: np.ndarray) -> np.ndarray:
    """`raw` with each row (along the last axis) divided by its sum."""
    return raw / raw.sum(axis=-1, keepdims=True)


def random_cond(rng, n_given: int, n_target: int, labels=None) -> CondPmf:
    """Random channel; `labels` is an optional (given, target) pair of alphabets."""
    rows = _row_normalized(rng.exponential(size=(n_given, n_target)))
    if labels is None:
        labels = (tuple(f"g{i}" for i in range(n_given)), tuple(f"t{i}" for i in range(n_target)))
    given, target = labels
    return CondPmf(given, target, rows)


# ---------------------------------------------------------------------------
# Plain-text table format: header of column labels, then one line per row
# beginning with the row label, entries as decimal reals
# ---------------------------------------------------------------------------


def format_joint_table(j: JointPmf2) -> str:
    for label in j.row_alphabet + j.col_alphabet:
        if any(ch.isspace() for ch in str(label)):
            raise ValueError(f"label {label!r} contains whitespace, cannot serialize")
    lines = [" ".join(str(c) for c in j.col_alphabet)]
    for label, row in zip(j.row_alphabet, j.probs):
        lines.append(str(label) + " " + " ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_joint_table(text: str) -> JointPmf2:
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("table text needs a header line and at least one row")
    cols = tuple(lines[0].split())
    rows = []
    table = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != len(cols) + 1:
            raise ValueError(f"row {fields[0]!r} has {len(fields) - 1} entries, expected {len(cols)}")
        rows.append(fields[0])
        table.append([float(v) for v in fields[1:]])
    return JointPmf2(tuple(rows), cols, np.array(table))
