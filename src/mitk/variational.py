"""Executable verifiers for variational identities and inequalities of mutual information.

Each classical result is available both as a library operation and as a
randomized probe that reports its worst observed slack together with the
witnessing inputs, so any failure is reproducible from the report alone.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import rel_entr

from .discrete import (
    CondPmf,
    JointPmf2,
    JointPmf3,
    Pmf,
    _check_rows,
    _clip_residue,
    _cmi,
    _derived,
    _exact_sum,
    _kl,
    _mi,
    _normalized,
    _row_normalized,
    conditional_mutual_information,
    entropy,
    joint_entropy,
    joint_from_factors,
    kl_divergence,
    mi_chain_rule_terms,
    mi_from_divergence,
    mi_from_entropies,
    mutual_information,
    random_cond,
    random_joint2,
    random_joint3,
    random_pmf,
)

__all__ = [
    "Partition",
    "MarkovChainSpec",
    "CheckResult",
    "ProbeReport",
    "golden_decomposition",
    "distance_to_product",
    "product_distance_minimize",
    "dv_value",
    "dv_supremum",
    "partition_divergence",
    "gyp_supremum",
    "gyp_mi_supremum",
    "kl_convexity_probe",
    "mi_concavity_convexity_probe",
    "jensen_probe",
    "markov_joint",
    "dpi_check",
    "random_markov_chain",
    "run_probe_suite",
]

ALPHA_GRID = tuple(i / 10.0 for i in range(11))
DV_STEPS = 2000
DV_LR = 0.5
# trials per stack in the stacked probe paths (T09's binary chains, T12's
# ascents and duality trials) and per keying pass of the trial generators,
# so their memory stays flat however many trials run
_STACK = 1000


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One verified relation: `worst` is compared against `tolerance`.

    For identities, `worst` is the largest absolute deviation seen; for
    inequalities it is the largest signed margin (positive = the forbidden
    side). Either way the check passes when worst <= tolerance.
    """

    name: str
    worst: float
    tolerance: float
    passed: bool
    witness: object = None


@dataclass(frozen=True)
class ProbeReport:
    theorem: str
    name: str
    trials: int
    checks: tuple
    seconds: float = field(default=0.0, compare=False)  # wall time, not a result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_slack(self) -> float:
        # a NaN worst is the worst slack of all
        return max(self.checks, key=lambda c: (math.isnan(c.worst), c.worst - c.tolerance)).worst


def _report(probe, trials: int, trackers, seconds: float = 0.0) -> ProbeReport:
    """`probe`'s report under its `_SUITE` id and name, one check per tracker;
    vacuous if it ran no trials."""
    theorem, name = _SUITE[probe]
    if trials == 0:
        checks = (CheckResult("vacuous", 0.0, 0.0, True),)
    else:
        checks = tuple(tracker.check() for tracker in trackers)
    return ProbeReport(theorem, name, trials, checks, seconds)


class _Worst:
    """One check: the maximum of a signed quantity plus the input that produced it.

    A NaN quantity is worse than any number: the first one is kept, and the check fails.
    """

    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.value = -math.inf
        self.witness = None

    def update(self, value, witness):
        # NaN compares false both ways: it passes the first test, and once
        # kept it fails the second
        if not value <= self.value and self.value == self.value:
            self.value = value
            self.witness = witness

    def check(self) -> CheckResult:
        worst = 0.0 if self.value == -math.inf else self.value
        return CheckResult(self.name, worst, self.tolerance, worst <= self.tolerance,
                           self.witness)


def _track(trackers, margins, witness) -> None:
    """Feed each tracker its list of margins in stack order; a stack row a
    tracker keeps gets its witness, `witness(row)`, once the stack is fed."""
    for tracker, values in zip(trackers, margins):
        kept = tracker.witness
        for row, value in enumerate(values):
            tracker.update(value, row)
        if tracker.witness is not kept:
            tracker.witness = witness(tracker.witness)


def _frozen_rows(arrays, row: int) -> tuple:
    """Read-only copies of row `row` of each of the stacked `arrays`."""
    copies = tuple(array[row].copy() for array in arrays)
    for copy in copies:
        copy.setflags(write=False)
    return copies


def _words(n: int) -> list:
    """The 32-bit words of a nonnegative int, least significant first, as
    `SeedSequence` reads an entropy int; 0 is one word."""
    return [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def _pcg_keys(entropy: list):
    """Yield the PCG64 (state, inc) that `np.random.default_rng` seeds from
    each row of `entropy`, a list of equal-length uint32 columns.

    `SeedSequence`'s entropy mixing into a pool of four words and its
    `generate_state(4, np.uint64)` run one column operation for every row;
    uint32 array arithmetic wraps as theirs does. `PCG64.__init__` then
    takes the first two uint64s as the initial state and the last two as
    the sequence.
    """
    const = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = 0xCA01F9DD * x - 0x4973F715 * y
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    words = [hashmix(pool[i % 4], 0x58F38DED).astype(np.uint64) for i in range(8)]
    # little-endian word pairs: initstate high and low, initseq high and low
    halves = ((lo | hi << 32).tolist() for lo, hi in zip(words[::2], words[1::2]))
    mask = (1 << 128) - 1
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        # pcg_setseq_128_srandom_r: inc = 2 initseq + 1; one step from
        # state 0, add initstate, one more step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & mask
        state = inc + (s_hi << 64 | s_lo)
        yield (state * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & mask, inc


def _trial_rngs(seed: int, probe: int, trials: range):
    """One generator per trial of the contiguous range `trials`, in trial
    order; trial t's stream is that of `np.random.default_rng([seed, probe, t])`.

    The trials are keyed `_STACK` at a time by `_pcg_keys`. One PCG64 is
    re-keyed through its state for each trial, so a generator is valid only
    until the next one is yielded.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    start = trials.start
    while start < trials.stop:
        # a chunk's trial indices all have as many words as its first
        width = len(_words(start))
        stop = min(start + _STACK, trials.stop, 1 << 32 * width)
        index = np.arange(start, stop, dtype=np.uint64)
        entropy = [np.full(len(index), word, dtype=np.uint32)
                   for word in _words(seed) + _words(probe)]
        entropy += [(index >> 32 * i & 0xFFFFFFFF).astype(np.uint32) for i in range(width)]
        for state, inc in _pcg_keys(entropy):
            rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0,
                                       "uinteger": 0, "state": {"state": state, "inc": inc}}
            yield rng
        start = stop


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of symbol labels; union must equal the alphabet it is used with."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(b) for b in self.blocks)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ValueError("Partition blocks must be nonempty")
        flat = [x for b in blocks for x in b]
        if len(set(flat)) != len(flat):
            raise ValueError("Partition blocks must be pairwise disjoint")
        object.__setattr__(self, "blocks", blocks)


@dataclass(frozen=True, eq=False)
class MarkovChainSpec:
    """Factored three-variable chain: P(x) P(y|x) P(z|y)."""

    px: Pmf
    py_given_x: CondPmf
    pz_given_y: CondPmf

    def __post_init__(self):
        if self.px.alphabet != self.py_given_x.given_alphabet:
            raise ValueError("py_given_x must condition on px's alphabet")
        if self.py_given_x.target_alphabet != self.pz_given_y.given_alphabet:
            raise ValueError("pz_given_y must condition on py_given_x's target alphabet")


def markov_joint(spec: MarkovChainSpec) -> JointPmf3:
    """Materialize the chain's full table P(x,y,z) = P(x) P(y|x) P(z|y)."""
    table = _markov_tables(spec.px.probs[None], spec.py_given_x.probs[None],
                           spec.pz_given_y.probs[None])[0]
    alphabets = (
        spec.px.alphabet,
        spec.py_given_x.target_alphabet,
        spec.pz_given_y.target_alphabet,
    )
    return _derived(JointPmf3, alphabets, table)


def _markov_tables(px: np.ndarray, pyx: np.ndarray, pzy: np.ndarray) -> np.ndarray:
    """P(x,y,z) = P(x) P(y|x) P(z|y) for each chain whose factors are stacked on axis 0."""
    return px[:, :, None, None] * pyx[:, :, :, None] * pzy[:, None, :, :]


def _processing_pair(joint: JointPmf3) -> tuple:
    ixy = mutual_information(joint.pair_marginal(0, 1))
    return ixy, mutual_information(joint.pair_marginal(0, 2))


def dpi_check(spec: MarkovChainSpec) -> tuple:
    """Return (I(X;Y), I(X;Z)) on the materialized chain, unchecked.

    For a Markov chain the first dominates the second; `run_probe_suite`
    reports a violation as a failed check with its witness, not here.
    """
    return _processing_pair(markov_joint(spec))


def random_markov_chain(rng, nx: int, ny: int, nz: int) -> MarkovChainSpec:
    px = random_pmf(rng, nx, labels=tuple(f"x{i}" for i in range(nx)))
    pyx = random_cond(rng, nx, ny, labels=(px.alphabet, tuple(f"y{i}" for i in range(ny))))
    pzy = random_cond(rng, ny, nz,
                      labels=(pyx.target_alphabet, tuple(f"z{i}" for i in range(nz))))
    return MarkovChainSpec(px, pyx, pzy)


# ---------------------------------------------------------------------------
# Auxiliary-distribution decompositions
# ---------------------------------------------------------------------------


def golden_decomposition(j: JointPmf2, aux: Pmf, axis: int = 0) -> tuple:
    """Split I into a conditional divergence minus an auxiliary penalty.

    With axis=0 the auxiliary distribution plays the role of the row
    variable's marginal: the return value is
    (D(P_row|col || aux | P_col), D(P_row || aux)), whose difference is
    exactly the mutual information. axis=1 swaps the roles. Support
    violations propagate as +inf in both terms.
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    probs = j.probs if axis == 0 else j.probs.T
    target_alphabet = j.row_alphabet if axis == 0 else j.col_alphabet
    if aux.alphabet != target_alphabet:
        raise ValueError("aux alphabet must match the selected axis alphabet")
    weights = probs.sum(axis=0)
    mass = weights > 0.0
    conds = rel_entr(probs[:, mass] / weights[mass], aux.probs[:, None])
    conditional_term = math.fsum(w * _exact_sum(col) for w, col in zip(weights[mass], conds.T))
    penalty_term = kl_divergence(_derived(Pmf, target_alphabet, probs.sum(axis=1)), aux)
    return conditional_term, penalty_term


def distance_to_product(j: JointPmf2, qx: Pmf, qy: Pmf) -> float:
    """D(P_joint || qx x qy); never smaller than the mutual information."""
    if qx.alphabet != j.row_alphabet or qy.alphabet != j.col_alphabet:
        raise ValueError("product factors must match the joint's alphabets")
    return _exact_sum(rel_entr(j.probs, np.outer(qx.probs, qy.probs)))


def product_distance_minimize(j: JointPmf2) -> tuple:
    """Minimize D(P || qx x qy) over product distributions, in closed form.

    The objective separates over the two factors, and each factor's
    minimizer is the corresponding marginal whatever the other factor is;
    the minimum equals the mutual information. Returns (qx, qy, value).
    """
    qx, qy = j.marginal(0), j.marginal(1)
    return qx, qy, distance_to_product(j, qx, qy)


# ---------------------------------------------------------------------------
# Donsker-Varadhan representation
# ---------------------------------------------------------------------------


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """ln sum e^a of each row of a 2-D array, by the operations of scipy.special.logsumexp.

    The m entries tied at a row's peak are split out of its sum for
    precision: peak + ln m + log1p(s / m), with s the sum of the other
    shifted terms. A row whose result is infinite or undefined falls back to
    ln sum e^a directly.
    """
    peak = a.max(axis=1, keepdims=True)
    ties = a == peak
    count = ties.sum(axis=1, dtype=float)
    with np.errstate(invalid="ignore"):
        rest = np.exp(np.where(ties, -np.inf, a) - peak).sum(axis=1)
    np.divide(rest, count, out=rest, where=rest != 0.0)
    out = np.log1p(rest) + np.log(count) + peak[:, 0]
    direct = ~np.isfinite(out)
    if direct.any():
        with np.errstate(divide="ignore", over="ignore"):
            out[direct] = np.log(np.exp(a[direct]).sum(axis=1))
    return out


def dv_value(p: Pmf, q: Pmf, g) -> float:
    """E_p[g] - ln E_q[e^g], the Donsker-Varadhan objective for score vector g.

    Weak duality: never exceeds D(p || q) up to rounding. The log-partition
    is computed with a max-shifted log-sum-exp.
    """
    if p.alphabet != q.alphabet:
        raise ValueError("dv_value requires identical alphabets")
    g = np.asarray(g, dtype=float)
    if g.shape != (len(p),):
        raise ValueError("score vector must have one entry per symbol")
    if not np.all(np.isfinite(g)):
        raise ValueError("score vector entries must be finite")
    return _dv_values(p.probs[None], q.probs[None], g[None])[0]


def _dv_values(p: np.ndarray, q: np.ndarray, g: np.ndarray) -> list:
    """The Donsker-Varadhan objective of each row of the stacked p, q and g."""
    with np.errstate(divide="ignore"):
        log_q = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), -np.inf)
    # one dot per row: a stacked product (einsum) rounds some rows differently
    return [float(p_row @ g_row) - log_z
            for p_row, g_row, log_z in zip(p, g, _logsumexp(g + log_q).tolist())]


def dv_supremum(p, q) -> tuple:
    """Maximize the Donsker-Varadhan objective by full-batch gradient ascent.

    Step size 0.5 (DV_LR), at most 2000 steps (DV_STEPS), stopping when the
    value moves less than 1e-12 across 10 steps: this recovers D(p || q)
    to ~1e-6 on alphabets up to 16 when neither distribution has vanishing
    mass. Requires full support of both p and q.

    Returns (optimal score vector, attained value). `p` and `q` may also be
    two equal-length sequences of Pmfs of one alphabet size, each p[i]
    sharing q[i]'s alphabet: their ascents then run as one stack, each row
    stopping at its own step, and the return value is (a (k, n) array of
    score rows, a list of k values), row i bit for bit what
    `dv_supremum(p[i], q[i])` returns.
    """
    single = isinstance(p, Pmf)
    ps, qs = ([p], [q]) if single else (list(p), list(q))
    if not ps or len(ps) != len(qs):
        raise ValueError("dv_supremum needs two nonempty sequences of equal length")
    if any(pi.alphabet != qi.alphabet for pi, qi in zip(ps, qs)):
        raise ValueError("dv_supremum requires identical alphabets")
    if len({len(pi) for pi in ps}) != 1:
        raise ValueError("a dv_supremum stack needs one alphabet size")
    pv, qv = np.array([pi.probs for pi in ps]), np.array([qi.probs for qi in qs])
    if np.any(pv <= 0) or np.any(qv <= 0):
        raise ValueError("dv_supremum requires full support of p and q")
    g = _dv_ascent(pv, np.log(qv))
    values = [dv_value(pi, qi, row) for pi, qi, row in zip(ps, qs, g)]
    return (g[0], values[0]) if single else (g, values)


def _dv_ascent(pv: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """The final scores of `dv_supremum`'s ascent on each row of the stacked
    p and ln q, each row stopping at its own step.

    The steps' arrays are stacked; each row's value takes its own dot and
    `math.log`, which keep the bits of a one-row ascent.
    """
    final = np.empty_like(pv)
    rows = list(range(len(pv)))  # the stack row each live row came from
    g = np.zeros_like(pv)
    history = [[] for _ in rows]
    for _ in range(DV_STEPS):
        shifted = g + log_q
        peak = shifted.max(axis=1)
        weights = np.exp(shifted - peak[:, None])
        total = weights.sum(axis=1)
        values = [float(p_row @ g_row - (top + math.log(z)))
                  for p_row, g_row, top, z in zip(pv, g, peak, total)]
        g = g + DV_LR * (pv - weights / total[:, None])
        live = []
        for i, (value, past) in enumerate(zip(values, history)):
            past.append(value)
            if len(past) > 10 and abs(past[-1] - past[-11]) < 1e-12:
                final[rows[i]] = g[i]
            else:
                live.append(i)
        if len(live) < len(rows):
            if not live:
                return final
            pv, log_q, g = pv[live], log_q[live], g[live]
            rows, history = [rows[i] for i in live], [history[i] for i in live]
    final[rows] = g
    return final


# ---------------------------------------------------------------------------
# Gelfand-Yaglom-Perez partition form
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _rgs_table(n: int) -> tuple:
    """(strings, block counts): every partition of n items as its canonical
    restricted growth string, one int8 row each, in lexicographic order;
    filtering to rows with <= k blocks gives the order for k."""
    rows = [(0,)]
    for _ in range(1, n):
        rows = [r + (b,) for r in rows for b in range(max(r) + 2)]
    table = np.array(rows, dtype=np.int8)
    counts = table.max(axis=1) + 1
    table.setflags(write=False)
    counts.setflags(write=False)
    return table, counts


def _block_masses(probs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """masses[r, ..., b]: the mass of block b under row r of `table` (one block
    index per symbol), summed over the symbols on axis 0 of `probs` in symbol
    order; `probs`' other axes sit between the row and the block axis."""
    n_rows, n = table.shape
    masses = np.zeros((n_rows, *probs.shape[1:], n))
    rows = np.arange(n_rows)
    for i in range(n):
        masses[rows, ..., table[:, i]] += probs[i]
    return masses


def _partition_values(masses_p: np.ndarray, masses_q: np.ndarray) -> np.ndarray:
    """sum_E P[E] ln(P[E]/Q[E]) for each row of block masses, an exact sum
    of the row's terms; overwrites `masses_p`."""
    terms = rel_entr(masses_p, masses_q, out=masses_p)
    # 256 rows at a time, so no list of the whole table's floats is built
    return np.array([math.fsum(row) for start in range(0, len(terms), 256)
                     for row in terms[start:start + 256].tolist()])


def partition_divergence(p: Pmf, q: Pmf, partition: Partition) -> float:
    """sum_E P[E] ln(P[E]/Q[E]) over the partition's blocks.

    Conventions: blocks with P[E] = 0 contribute 0; P[E] > 0 with
    Q[E] = 0 yields +inf. Block masses are summed in symbol order, so the
    value of a partition `gyp_supremum` returns is its value bit for bit.
    """
    if p.alphabet != q.alphabet:
        raise ValueError("partition_divergence requires identical alphabets")
    block_of = {x: b for b, block in enumerate(partition.blocks) for x in block}
    unknown = [x for x in block_of if x not in p.alphabet]
    missing = [x for x in p.alphabet if x not in block_of]
    if unknown or missing:
        raise ValueError(f"partition must cover the alphabet exactly: labels {unknown} "
                         f"are not in it, labels {missing} are missing")
    table = np.array([[block_of[x] for x in p.alphabet]])
    return float(_partition_values(_block_masses(p.probs, table),
                                   _block_masses(q.probs, table))[0])


def gyp_supremum(p: Pmf, q: Pmf, max_blocks: int) -> tuple:
    """Best partition value of the coarse-grained divergence.

    Enumerates every partition of the alphabet into at most max_blocks
    blocks (restricted-growth-string canonical form, so no duplicates).
    The partitions are valued once per (p, q) for every max_blocks at
    once, so calls on one pair at several max_blocks share that work.
    At max_blocks = alphabet size the supremum is the exact divergence,
    attained by the all-singletons partition. Alphabets limited to 8.
    """
    n = len(p)
    if n > 8:
        raise ValueError("gyp_supremum enumerates partitions; alphabet must be <= 8")
    if max_blocks < 1:
        raise ValueError("max_blocks must be >= 1")
    if p.alphabet != q.alphabet:
        raise ValueError("gyp_supremum requires identical alphabets")
    row, value = _gyp_ladder(p.probs.tobytes(), q.probs.tobytes())[min(max_blocks, n) - 1]
    table, counts = _rgs_table(n)
    members = [[] for _ in range(counts[row])]
    for label, b in zip(p.alphabet, table[row]):
        members[b].append(label)
    return Partition(members), value


# keyed by the bits of p and q, so the max_blocks = 1..n calls made on one
# pair share a single enumeration
@functools.lru_cache(maxsize=1)
def _gyp_ladder(p_bits: bytes, q_bits: bytes) -> tuple:
    """((best row of `_rgs_table(n)`, value) for max_blocks = 1..n), from one enumeration.

    Among tied partitions the one enumerated last wins, so the
    all-singletons partition wins at k = n.
    """
    p, q = np.frombuffer(p_bits), np.frombuffer(q_bits)
    table, counts = _rgs_table(len(p))
    values = _partition_values(_block_masses(p, table), _block_masses(q, table))
    ladder = []
    for k in range(1, len(p) + 1):
        (allowed,) = np.nonzero(counts <= k)
        candidates = values[allowed]
        best = int(allowed[np.flatnonzero(candidates == candidates.max())[-1]])
        ladder.append((best, float(values[best])))
    return tuple(ladder)


def gyp_mi_supremum(j: JointPmf2, max_blocks: int) -> float:
    """Supremum of the coarse-grained information over rectangle partitions.

    Rows and columns are partitioned independently (each into at most
    max_blocks blocks); at the finest rectangles the value equals the
    mutual information exactly, and a rounding residue below zero reads 0
    as it does there, so the value never falls below `mutual_information`
    once max_blocks covers both alphabets. Both alphabets limited to 5.
    """
    n_rows, n_cols = j.probs.shape
    if n_rows > 5 or n_cols > 5:
        raise ValueError("gyp_mi_supremum enumerates partition pairs; alphabets must be <= 5")
    if max_blocks < 1:
        raise ValueError("max_blocks must be >= 1")
    row_table, col_table = (table[counts <= max_blocks]
                            for table, counts in map(_rgs_table, j.probs.shape))
    # every (column partition, row partition) pair at once: the column
    # masses of the row masses, shaped (pair..., row block, column block)
    blocks = _block_masses(_block_masses(j.probs, row_table).transpose(1, 0, 2), col_table)
    product = (_block_masses(j.probs.sum(axis=1), row_table)[:, :, None]
               * _block_masses(j.probs.sum(axis=0), col_table)[:, None, None, :])
    pairs = (-1, n_rows * n_cols)
    return _clip_residue(float(_partition_values(blocks.reshape(pairs),
                                                 product.reshape(pairs)).max()))


# ---------------------------------------------------------------------------
# Curvature and Jensen probes
# ---------------------------------------------------------------------------


def _mix(t1, t2, alpha: float):
    """alpha t1 + (1 - alpha) t2 for two tables of one type and the same labels:
    a distribution (each row one) when t1 and t2 are."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alphas must lie in [0, 1]")
    if t1.probs.shape != t2.probs.shape:
        raise ValueError(f"mixed tables must share a shape, got {t1.probs.shape} "
                         f"and {t2.probs.shape}")
    *names, _ = t1.__dataclass_fields__  # the label fields; probs comes last
    labels = [getattr(t1, name) for name in names]
    if type(t1) is not type(t2) or labels != [getattr(t2, name) for name in names]:
        raise ValueError("mixed tables must share a type and labels")
    return _derived(type(t1), *labels, alpha * t1.probs + (1.0 - alpha) * t2.probs)


def _chord(worst, f, ends, alphas, witness, concave=False) -> None:
    """Track f's margin along the chord between `ends` into `worst`.

    Each end is a tuple of tables, mixed place by place. The margin at weight
    alpha is f(mixture) - (alpha f(end 1) + (1 - alpha) f(end 2)), negated
    for a concave f, so positive is the forbidden side; its witness is
    `witness` with alpha first.
    """
    end1, end2 = ends
    v1, v2 = f(*end1), f(*end2)
    for alpha in alphas:
        lhs = f(*[_mix(t1, t2, alpha) for t1, t2 in zip(end1, end2)])
        rhs = alpha * v1 + (1.0 - alpha) * v2
        worst.update(rhs - lhs if concave else lhs - rhs, {"alpha": alpha, **witness})


def _kl_convexity(cases) -> tuple:
    """(mixtures tried, trackers) of joint convexity over (pair1, pair2, alphas) cases."""
    worst = _Worst("mixture-margin", 1e-12)
    trials = 0
    for (p1, q1), (p2, q2), alphas in cases:
        _chord(worst, kl_divergence, ((p1, q1), (p2, q2)), alphas,
               {"p1": p1.probs, "p2": p2.probs, "q1": q1.probs, "q2": q2.probs})
        trials += len(alphas)
    return trials, (worst,)


def kl_convexity_probe(pair1, pair2, alphas=ALPHA_GRID) -> ProbeReport:
    """Verify joint convexity of the divergence along mixtures of two pairs."""
    return _report(_probe_kl_convexity, *_kl_convexity([(pair1, pair2, tuple(alphas))]))


def _mi_curvature(cases) -> tuple:
    """(mixtures tried, trackers) of both curvatures over (px_pair, channel_pair, alphas) cases."""
    concave = _Worst("input-concavity-margin", 1e-12)
    convex = _Worst("channel-convexity-margin", 1e-12)
    trials = 0
    for (px1, px2), (w1, w2), alphas in cases:
        _chord(concave, lambda px: mutual_information(joint_from_factors(px, w1)),
               ((px1,), (px2,)), alphas,
               {"px1": px1.probs, "px2": px2.probs, "channel": w1.probs}, concave=True)
        _chord(convex, lambda w: mutual_information(joint_from_factors(px1, w)),
               ((w1,), (w2,)), alphas, {"px": px1.probs, "w1": w1.probs, "w2": w2.probs})
        trials += len(alphas)
    return trials, (concave, convex)


def mi_concavity_convexity_probe(px_pair, channel_pair, alphas=ALPHA_GRID) -> ProbeReport:
    """Concavity in the input law at fixed channel; convexity in the channel at fixed input."""
    return _report(_probe_mi_curvature,
                   *_mi_curvature([(px_pair, channel_pair, tuple(alphas))]))


def jensen_probe(f, p: Pmf, values) -> tuple:
    """Return (E[f(V)], f(E[V])) under p, unchecked.

    For convex f the first never falls below the second; `run_probe_suite`
    reports a violation as a failed check with its witness, not here.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(p),):
        raise ValueError("need one value per symbol")
    lhs = math.fsum(float(w) * f(float(v)) for w, v in zip(p.probs, values))
    rhs = f(float(p.probs @ values))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Probe suite
# ---------------------------------------------------------------------------


def _direct_conditional_entropy(table: np.ndarray, given_axes: tuple) -> float:
    """-sum p ln(p / p_marginal(given)), summed over the full table."""
    drop = tuple(sorted(set(range(table.ndim)) - set(given_axes)))
    return -_exact_sum(rel_entr(table, table.sum(axis=drop, keepdims=True)))


def _probe_entropy_chain(trials, seed, _corrupt):
    identity = _Worst("chain-identity-2d", 1e-12)
    subadd = _Worst("subadditivity-margin", 1e-12)
    identity3 = _Worst("conditional-chain-3d", 1e-10)
    for rng in _trial_rngs(seed, 1, range(trials)):
        j = random_joint2(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        hj = joint_entropy(j)
        hx = entropy(j.marginal(0))
        hy = entropy(j.marginal(1))
        h_y_given_x = _direct_conditional_entropy(j.probs, (0,))
        identity.update(abs(hj - (hx + h_y_given_x)), j.probs)
        subadd.update(hj - (hx + hy), j.probs)

        j3 = random_joint3(rng, 2, 3, 2)
        h_xy_given_z = _direct_conditional_entropy(j3.probs, (2,))
        h_x_given_z = -_exact_sum(rel_entr(j3.probs.sum(axis=1), j3.probs.sum(axis=(0, 1))))
        h_y_given_xz = _direct_conditional_entropy(j3.probs, (0, 2))
        identity3.update(abs(h_xy_given_z - (h_x_given_z + h_y_given_xz)), j3.probs)
    return trials, (identity, subadd, identity3)


def _probe_mi_formulas(trials, seed, corrupt):
    routes = _Worst("formula-agreement", 1e-12)
    symmetry = _Worst("transpose-symmetry", 0.0)
    for rng in _trial_rngs(seed, 2, range(trials)):
        j = random_joint2(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        direct = mutual_information(j)
        via_kl = mi_from_divergence(j)
        via_h = mi_from_entropies(j)
        if corrupt:
            # negative-control mode: a deliberately broken route must be caught
            via_kl += 1e-3
        routes.update(max(abs(direct - via_kl), abs(direct - via_h)), j.probs)
        symmetry.update(abs(direct - mutual_information(j.transpose())), j.probs)
    return trials, (routes, symmetry)


def _probe_mi_chain(trials, seed, _corrupt):
    worst = _Worst("term-sum", 1e-10)
    for t, rng in enumerate(_trial_rngs(seed, 3, range(trials))):
        table = _normalized(rng, (2,) * (3 + t % 2))
        flat = JointPmf2(range(table.size // 2), range(2), table.reshape(-1, 2))
        total = math.fsum(mi_chain_rule_terms(table))
        worst.update(abs(total - mutual_information(flat)), table)
    return trials, (worst,)


def _probe_kl_convexity(trials, seed, _corrupt):
    def case(rng):
        n = int(rng.integers(2, 7))
        pair1 = (random_pmf(rng, n), random_pmf(rng, n))
        pair2 = (random_pmf(rng, n), random_pmf(rng, n))
        return pair1, pair2, ALPHA_GRID + tuple(rng.uniform(size=20))

    return _kl_convexity(map(case, _trial_rngs(seed, 4, range(trials // 10))))


def _probe_entropy_concavity(trials, seed, _corrupt):
    count = trials // 10
    worst = _Worst("mixture-margin", 1e-12)
    for rng in _trial_rngs(seed, 5, range(count)):
        n = int(rng.integers(2, 7))
        p1 = random_pmf(rng, n)
        p2 = random_pmf(rng, n, labels=p1.alphabet)
        _chord(worst, entropy, ((p1,), (p2,)), ALPHA_GRID + tuple(rng.uniform(size=20)),
               {"p1": p1.probs, "p2": p2.probs}, concave=True)
    return count * 31, (worst,)


def _probe_mi_curvature(trials, seed, _corrupt):
    def case(rng):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        labels = tuple(f"g{i}" for i in range(nx))
        px_pair = (random_pmf(rng, nx, labels=labels), random_pmf(rng, nx, labels=labels))
        channel_pair = (random_cond(rng, nx, ny), random_cond(rng, nx, ny))
        return px_pair, channel_pair, ALPHA_GRID + tuple(rng.uniform(size=20))

    return _mi_curvature(map(case, _trial_rngs(seed, 6, range(trials // 10))))


_CONVEX_FAMILY = (
    ("square", lambda t: t * t),
    ("abs", abs),
    ("exp", math.exp),
    ("softplus", lambda t: math.log1p(math.exp(-abs(t))) + max(t, 0.0)),
)


def _probe_jensen(trials, seed, _corrupt):
    worst = _Worst("gap-margin", 1e-12)
    for t, rng in enumerate(_trial_rngs(seed, 7, range(trials))):
        n = int(rng.integers(2, 8))
        p = random_pmf(rng, n)
        values = rng.normal(scale=2.0, size=n)
        name, f = _CONVEX_FAMILY[t % len(_CONVEX_FAMILY)]
        lhs, rhs = jensen_probe(f, p, values)
        worst.update(rhs - lhs, {"f": name, "p": p.probs, "values": values})
    return trials, (worst,)


def _probe_divergence_sign(trials, seed, _corrupt):
    nonneg = _Worst("nonnegativity", 1e-12)
    equality = _Worst("self-divergence", 0.0)
    strict = _Worst("strict-positivity", 0.0)
    for rng in _trial_rngs(seed, 8, range(trials)):
        n = int(rng.integers(2, 8))
        p = random_pmf(rng, n)
        q = random_pmf(rng, n, labels=p.alphabet)
        kl = kl_divergence(p, q)
        nonneg.update(-kl, (p.probs, q.probs))
        equality.update(kl_divergence(p, p), p.probs)
        tv = 0.5 * float(np.abs(p.probs - q.probs).sum())
        if tv >= 1e-3:
            # separated inputs must register strictly positive divergence
            strict.update(1e-7 - kl, (p.probs, q.probs))
    return trials, (nonneg, equality, strict)


def _dpi_margins(joints: np.ndarray) -> tuple:
    """T09's margins for each stacked chain table P(x,y,z): I(X;Z) - I(X;Y),
    I(X;Y|Z) - I(X;Y) and I(X;Z|Y), one list each."""
    ixy, ixz = _mi(joints.sum(axis=3)), _mi(joints.sum(axis=2))
    return ([b - a for a, b in zip(ixy, ixz)],
            [c - a for a, c in zip(ixy, _cmi(joints, 0, 1, (2,)))],
            _cmi(joints, 0, 2, (1,)))


def _binary_chains(seed: int, trials: range) -> tuple:
    """(T09's margins, the stacked factors) of the binary chains `trials`.

    Each chain draws the ten numbers `random_markov_chain(rng, 2, 2, 2)`
    draws, in one call: P(x), then the rows of P(y|x) and of P(z|y), each
    two numbers normalized by their sum.
    """
    draws = np.array([rng.exponential(size=10) for rng in _trial_rngs(seed, 9, trials)])
    rows = _row_normalized(draws.reshape(-1, 5, 2))
    _check_rows(rows.reshape(-1, 2), "binary chain")
    factors = rows[:, 0], rows[:, 1:3], rows[:, 3:]
    return _dpi_margins(_markov_tables(*factors)), factors


def _probe_dpi(trials, seed, _corrupt):
    binary = trials * 10
    dpi = _Worst("processing-margin", 1e-12)
    corollary = _Worst("conditioning-margin", 1e-12)
    markov = _Worst("chain-conditional-independence", 1e-12)
    for start in range(0, binary, _STACK):
        margins, factors = _binary_chains(seed, range(start, min(start + _STACK, binary)))
        _track((dpi, corollary, markov), margins, functools.partial(_frozen_rows, factors))
    for rng in _trial_rngs(seed, 9, range(binary, binary + trials)):
        spec = random_markov_chain(rng, *(int(rng.integers(2, 5)) for _ in range(3)))
        joint = markov_joint(spec)
        ixy, ixz = _processing_pair(joint)
        ixy_given_z = conditional_mutual_information(joint, conditioning=2)
        ixz_given_y = conditional_mutual_information(joint, conditioning=1)
        witness = (spec.px.probs, spec.py_given_x.probs, spec.pz_given_y.probs)
        dpi.update(ixz - ixy, witness)
        corollary.update(ixy_given_z - ixy, witness)
        markov.update(ixz_given_y, witness)
    return binary + trials, (dpi, corollary, markov)


def _probe_golden(trials, seed, _corrupt):
    identity = _Worst("decomposition-identity", 1e-10)
    optimal = _Worst("optimal-aux-tightness", 1e-12)
    for t, rng in enumerate(_trial_rngs(seed, 10, range(trials))):
        j = random_joint2(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        axis = t % 2
        labels = j.row_alphabet if axis == 0 else j.col_alphabet
        aux = random_pmf(rng, len(labels), labels=labels)
        conditional, penalty = golden_decomposition(j, aux, axis=axis)
        identity.update(
            abs((conditional - penalty) - mutual_information(j)),
            {"joint": j.probs, "aux": aux.probs, "axis": axis},
        )
        conditional, penalty = golden_decomposition(j, j.marginal(axis), axis=axis)
        optimal.update(max(abs(penalty), abs(conditional - mutual_information(j))), j.probs)
    return trials, (identity, optimal)


def _probe_product_distance(trials, seed, _corrupt):
    count = trials // 10
    value_dev = _Worst("converged-value", 1e-8)
    marginal_dev = _Worst("converged-marginals", 1e-8)
    floor = _Worst("information-floor", 1e-10)
    for rng in _trial_rngs(seed, 11, range(count)):
        j = random_joint2(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        mi = mutual_information(j)
        qx, qy, value = product_distance_minimize(j)
        value_dev.update(abs(value - mi), j.probs)
        marginal_dev.update(max(float(np.abs(qx.probs - j.probs.sum(axis=1)).max()),
                                float(np.abs(qy.probs - j.probs.sum(axis=0)).max())), j.probs)
        # any product, including the uniform one and random ones, sits at or
        # above the information floor
        n_rows, n_cols = j.probs.shape
        candidates = [(Pmf(j.row_alphabet, np.full(n_rows, 1.0 / n_rows)),
                       Pmf(j.col_alphabet, np.full(n_cols, 1.0 / n_cols))), (qx, qy)]
        candidates += [(random_pmf(rng, n_rows, labels=j.row_alphabet),
                        random_pmf(rng, n_cols, labels=j.col_alphabet)) for _ in range(3)]
        for cx, cy in candidates:
            floor.update(mi - distance_to_product(j, cx, cy), j.probs)
    return count, (value_dev, marginal_dev, floor)


def _probe_dv(trials, seed, _corrupt):
    count = trials // 10
    duality_count = trials * 10
    supremum = _Worst("supremum-gap", 1e-6)
    duality = _Worst("weak-duality-margin", 1e-12)
    sizes = (2, 4, 8, 16)
    for start in range(0, count, _STACK):
        chunk = range(start, min(start + _STACK, count))
        by_size, pairs = {}, []
        for t, rng in zip(chunk, _trial_rngs(seed, 12, chunk)):
            n = sizes[t % len(sizes)]
            # a light uniform floor keeps the ascent well conditioned without
            # losing full support; convergence speed degrades like 1/min(p)
            p = random_pmf(rng, n, uniform_mix=0.1)
            pairs.append((p, random_pmf(rng, n, labels=p.alphabet, uniform_mix=0.1)))
            by_size.setdefault(n, []).append(len(pairs) - 1)
        values = {}  # by row of the chunk: each size's ascents run as one stack
        for rows in by_size.values():
            ps, qs = zip(*(pairs[i] for i in rows))
            values.update(zip(rows, dv_supremum(ps, qs)[1]))
        for i, (p, q) in enumerate(pairs):
            supremum.update(abs(values[i] - kl_divergence(p, q)), (p.probs, q.probs))
    for start in range(0, duality_count, _STACK):
        _track((duality,), *_duality_trials(seed, range(start, min(start + _STACK, duality_count))))
    return count + duality_count, (supremum, duality)


def _duality_trials(seed: int, trials: range) -> tuple:
    """((T12's weak-duality margins,), witness) of the trials `trials`.

    Each trial draws what `random_pmf` twice and its scores draw: the
    alphabet size n, 2n exponentials for p and q, then n normal scores. The
    trials are stacked by n; margin i, dv_value - kl_divergence, is trial
    `trials[i]`'s and `witness(i)` is its (p, q, g).
    """
    by_size = {}
    for i, rng in enumerate(_trial_rngs(seed, 121, trials)):
        n = int(rng.integers(2, 9))
        rows, draws, scores = by_size.setdefault(n, ([], [], []))
        rows.append(i)
        draws.append(rng.exponential(size=2 * n))
        scores.append(rng.normal(scale=3.0, size=n))
    margins, where = [None] * len(trials), [None] * len(trials)
    for n, (rows, draws, scores) in by_size.items():
        pq = _row_normalized(np.array(draws).reshape(-1, 2, n))
        _check_rows(pq.reshape(-1, n), "stacked Pmf")
        stack = pq[:, 0], pq[:, 1], np.array(scores)
        for row, (i, value, kl) in enumerate(zip(rows, _dv_values(*stack), _kl(*stack[:2]))):
            margins[i] = value - kl
            where[i] = stack, row
    return (margins,), lambda i: _frozen_rows(*where[i])


def _probe_gyp(trials, seed, _corrupt):
    count = trials // 20
    finest = _Worst("finest-equals-divergence", 0.0)
    monotone = _Worst("refinement-monotonicity", 0.0)
    singleton = _Worst("singleton-attainment", 0.0)
    mi_floor = _Worst("rectangle-information", 0.0)
    coarsest = _Worst("coarsest-rectangle-zero", 1e-12)
    for rng in _trial_rngs(seed, 13, range(count)):
        n = int(rng.integers(4, 9))
        p = random_pmf(rng, n)
        q = random_pmf(rng, n, labels=p.alphabet)
        kl = kl_divergence(p, q)
        previous = -math.inf
        for blocks in range(1, n + 1):
            part, value = gyp_supremum(p, q, blocks)
            monotone.update(previous - value, (p.probs, q.probs, blocks))
            previous = value
        finest.update(abs(previous - kl), (p.probs, q.probs))
        singleton.update(0.0 if len(part.blocks) == n else 1.0, (p.probs, q.probs))

        j = random_joint2(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        top = gyp_mi_supremum(j, max_blocks=5)
        # the finest rectangle grid is enumerated, so the supremum can
        # never land below the exact information
        mi_floor.update(mutual_information(j) - top, j.probs)
        mi_floor.update(top - mutual_information(j) - 1e-12, j.probs)
        coarsest.update(abs(gyp_mi_supremum(j, max_blocks=1)), j.probs)
    return count, (finest, monotone, singleton, mi_floor, coarsest)


# the only place a theorem's id and name are written; each probe takes
# (trials, seed, corrupt) and returns (trials run, trackers), one per check
_SUITE = {
    _probe_entropy_chain: ("T01", "entropy-chain-rule"),
    _probe_mi_formulas: ("T02", "mi-formula-agreement"),
    _probe_mi_chain: ("T03", "mi-chain-rule"),
    _probe_kl_convexity: ("T04", "kl-convexity"),
    _probe_entropy_concavity: ("T05", "entropy-concavity"),
    _probe_mi_curvature: ("T06", "mi-concavity-convexity"),
    _probe_jensen: ("T07", "jensen-inequality"),
    _probe_divergence_sign: ("T08", "divergence-nonnegativity"),
    _probe_dpi: ("T09", "data-processing"),
    _probe_golden: ("T10", "golden-identity"),
    _probe_product_distance: ("T11", "distance-to-product"),
    _probe_dv: ("T12", "donsker-varadhan"),
    _probe_gyp: ("T13", "gelfand-yaglom-perez"),
}


def run_probe_suite(trials: int = 1000, seed: int = 0, corrupt: bool = False) -> list:
    """Run every theorem probe; returns one ProbeReport per theorem.

    A violated property is a failed check with its witness, never an
    exception. `corrupt` flips on the negative-control mode: one formula
    route is deliberately perturbed so the suite must fail, proving the
    probes can catch a broken oracle. Each report carries its probe's wall
    seconds.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    reports = []
    for probe in _SUITE:
        start = time.perf_counter()
        trials_run, trackers = probe(trials, seed, corrupt)
        reports.append(_report(probe, trials_run, trackers, time.perf_counter() - start))
    return reports
