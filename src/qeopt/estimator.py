"""Conditional measurement statistics, the quadratic cost, and the
state-dependent diagonal Hamiltonian.

Variables are read out by post-selecting shots on their group label:
``zbar_i = <P_l Z_di> / <P_l>`` and, within a group, ``corr_ij =
<P_l Z_di Z_dj> / <P_l>``. The cost splits into an intra-group part that
uses measured pair correlations and a cross-group part built from products
of single-spin means. The same statistics define the diagonal Hamiltonian
whose expectation reproduces the cost; its coefficients are normalized by
the current label probabilities, so the operator depends on the state it
was measured from. Statistics and the diagonal read the encoding's float64
spin table ``basis_spin_table`` and the pair products s_a * s_b of its
rows, both cached per group size. The pair products are kept in split
form (``pair_product_table``): a data pattern is a high part of
max(0, d - SPLIT_BITS) bits and a low part of min(d, SPLIT_BITS) bits, and
its row of products is a +-1 sign row of the high part times a template
row of the low part, so no 2**d x C(d,2) table is ever built. Up to d =
SPLIT_BITS the template is the whole table and the signs one row of ones,
so the sign multiply and the sum over the one high pattern are exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from qeopt.encoding import EncodingScheme, basis_spin_table
from qeopt.problem import SKInstance
from qeopt.simulator import DiagonalOperator, Statevector

log = logging.getLogger(__name__)

OBSERVED_EPS = 1e-12
# data bits the pair-product template spans; higher bits only flip signs
SPLIT_BITS = 12


@dataclass(frozen=True)
class GroupStats:
    """Per-label probabilities, conditional means, and pair correlations."""

    p_label: np.ndarray  # (N/d,)
    zbar: np.ndarray  # (N,)
    # (N/d, C(d,2)): column k holds the pair data_pair_indices(d)[k] of each label
    corr_matrix: np.ndarray = field(repr=False)
    observed: np.ndarray  # (N/d,) bool

    @property
    def n_unobserved(self) -> int:
        return int(np.size(self.observed) - np.count_nonzero(self.observed))


@dataclass(frozen=True)
class CostBreakdown:
    intra: float
    inter: float

    @property
    def total(self) -> float:
        return self.intra + self.inter


def data_pair_indices(d: int) -> list[tuple[int, int]]:
    return list(combinations(range(d), 2))


@cache
def _pair_columns(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only data-qubit indices (a, b) of the pairs, in data_pair_indices order."""
    cols = np.array(data_pair_indices(d), dtype=np.intp).reshape(-1, 2).T.copy()
    cols.setflags(write=False)
    return cols[0], cols[1]


@cache
def pair_product_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only split form ``(template, signs)`` of the (2**d, C(d,2))
    products s_a * s_b of the basis spin table, columns in ``_pair_columns``
    order, cached per d.

    With lo = min(d, SPLIT_BITS) low data bits and h = d - lo high ones,
    row hi * 2**lo + lo_bits of the products is exactly
    ``signs[hi] * template[lo_bits]``. ``template`` (2**lo, C(d,2)) holds the
    rows whose high bits are 0: a low pair's product, a mixed pair's low
    spin, 1 for a high pair. ``signs`` (2**h, C(d,2)) holds the rows whose
    low bits are 0, the high part's +-1. At h = 0 the template is the whole
    table and ``signs`` one row of ones.
    """
    spins = basis_spin_table(d)
    a, b = _pair_columns(d)
    step = 1 << min(d, SPLIT_BITS)
    tables = []
    for rows in (spins[:step], spins[::step]):
        # written into C order: the gathered operands are column-major
        table = np.multiply(rows[:, a], rows[:, b], out=np.empty((len(rows), a.size)))
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables)


def exact_evaluation_bytes(scheme: EncodingScheme) -> int:
    """Estimated peak bytes of one exact evaluation: 112 per amplitude (three
    complex states -- a start trace's final state, its phased copy and a
    mixed copy, as the appended-layer grid holds them -- two dense diagonals
    and the phase's and separator's temporaries; an exact 2x2 landscape and
    a p=2 run at d=16 peaked at 95-103 per amplitude beyond the rest, at
    q=18..22), 4 MiB that numpy and BLAS take on first use (3.5 MB
    measured), plus ``basis_spin_table(d)``, the split
    ``pair_product_table(d)`` and the instance's two N x N float64 tables,
    ``weights`` and ``sym_weights``."""
    d, n = scheme.group_size, scheme.n_vars
    lo = min(d, SPLIT_BITS)
    pair_rows = (1 << lo) + (1 << (d - lo))
    return (112 * scheme.dim + (4 << 20) + 8 * (1 << d) * d
            + 8 * pair_rows * (d * (d - 1) // 2) + 16 * n * n)


def _stats_from_probs(scheme: EncodingScheme, probs: np.ndarray,
                      observed: np.ndarray | None = None) -> GroupStats:
    d = scheme.group_size
    grouped = probs.reshape(scheme.n_groups, 1 << d)
    p_label = grouped.sum(axis=1)
    if observed is None:
        observed = p_label > OBSERVED_EPS
    denom = np.where(observed, p_label, 1.0)

    spins = basis_spin_table(d)
    zbar_mat = (grouped @ spins) / denom[:, None]
    template, signs = pair_product_table(d)
    # one product per (label, high pattern) block, signed and summed
    blocks = grouped.reshape(-1, len(template)) @ template
    blocks = blocks.reshape(scheme.n_groups, len(signs), template.shape[1])
    corr_mat = np.multiply(blocks, signs, out=blocks).sum(axis=1)
    corr_mat /= denom[:, None]
    for mat in (zbar_mat, corr_mat):
        mat[~observed] = 0.0
        # the clip to [-1, 1], in place; exact for the finite values here
        np.maximum(mat, -1.0, out=mat)
        np.minimum(mat, 1.0, out=mat)

    return GroupStats(
        p_label=p_label,
        zbar=zbar_mat.ravel(),
        corr_matrix=corr_mat,
        observed=observed,
    )


def exact_group_stats(scheme: EncodingScheme, state: Statevector) -> GroupStats:
    """Statistics computed from the full amplitude vector."""
    if state.dim != scheme.dim:
        raise ValueError(f"state has {state.n_qubits} qubits, scheme needs {scheme.n_qubits}")
    return _stats_from_probs(scheme, state.probabilities())


def shot_group_stats(scheme: EncodingScheme, counts: np.ndarray) -> GroupStats:
    """Frequency-based statistics from a shot-count array.

    ``counts[k]`` is the number of shots that read basis index k, as
    ``Statevector.sample`` returns it; the shot budget is ``counts.sum()``.
    A label no shot read is unobserved.
    """
    counts = np.asarray(counts)
    if counts.shape != (scheme.dim,) or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"counts must be an integer array of shape ({scheme.dim},), "
                         f"got {counts.dtype} {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("negative shot count")
    n_shots = int(counts.sum())
    if n_shots < 1:
        raise ValueError(f"need at least one shot, got {n_shots}")
    observed = counts.reshape(scheme.n_groups, -1).sum(axis=1) > 0
    return _stats_from_probs(scheme, counts / n_shots, observed=observed)


def _group_weights(instance: SKInstance, scheme: EncodingScheme) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights inside each label's group of d consecutive variables:
    the (N/d, d, d) diagonal blocks of ``sym_weights`` and the (N/d, C(d,2))
    pair weights w_ab in ``data_pair_indices`` order. Built once per
    (instance, d) and kept in the instance's cache."""
    d = scheme.group_size
    return instance.cached(("group_weights", d), lambda inst: _build_group_weights(inst, d))


def _build_group_weights(instance: SKInstance, d: int) -> tuple[np.ndarray, np.ndarray]:
    labels = np.arange(instance.n_vars // d)
    blocks = instance.sym_weights.reshape(labels.size, d, labels.size, d)[labels, :, labels, :]
    a, b = _pair_columns(d)
    bases = d * labels[:, None]
    pairs = instance.weights[bases + a[None, :], bases + b[None, :]]
    for table in (blocks, pairs):
        table.setflags(write=False)
    return blocks, pairs


def _check_sizes(instance: SKInstance, scheme: EncodingScheme) -> None:
    if instance.n_vars != scheme.n_vars:
        raise ValueError(
            f"instance has {instance.n_vars} variables, scheme encodes {scheme.n_vars}"
        )


def estimate_cost(instance: SKInstance, scheme: EncodingScheme, stats: GroupStats) -> CostBreakdown:
    """Assemble the cost from group statistics.

    Intra-group pairs use the measured correlations; cross-group pairs use
    zbar_i * zbar_j. Terms owned by unobserved labels contribute zero.
    """
    _check_sizes(instance, scheme)
    _, intra_w = _group_weights(instance, scheme)
    intra = float(np.sum(intra_w * stats.corr_matrix))

    zbar = stats.zbar
    full = float(zbar @ instance.weights @ zbar)  # sum over all i<j of w zbar zbar
    d = scheme.group_size
    zbar_mat = zbar.reshape(scheme.n_groups, d)
    a, b = _pair_columns(d)
    intra_zz = float(np.sum(intra_w * (zbar_mat[:, a] * zbar_mat[:, b])))
    return CostBreakdown(intra=intra, inter=full - intra_zz)


def cross_group_fields(instance: SKInstance, scheme: EncodingScheme, stats: GroupStats) -> np.ndarray:
    """h_i = 1/2 sum over j in other groups of w_ij zbar_j, for every i.

    The full product reads the instance's cached ``sym_weights``; the
    same-group part it subtracts is one stacked product of the cached
    (N/d, d, d) diagonal blocks (``_group_weights``) with the
    groups' zbar columns, which gives the bits of a product per label.
    """
    _check_sizes(instance, scheme)
    blocks, _ = _group_weights(instance, scheme)
    full = instance.sym_weights @ stats.zbar
    same = np.matmul(blocks, stats.zbar.reshape(scheme.n_groups, scheme.group_size, 1))
    return 0.5 * (full - same.ravel())


@dataclass(frozen=True)
class HamiltonianTerm:
    """One commuting term coeff * P_label Z ... Z of the cost Hamiltonian."""

    label: int
    data_qubits: tuple[int, ...]  # one or two data-qubit indices
    coefficient: float


def _separator_setup(
    instance: SKInstance, scheme: EncodingScheme, stats: GroupStats
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intra-group pair weights (N/d, C(d,2)), cross-group fields (N/d, d) and
    the <P_l> normalization (N/d,), 1 for unobserved labels."""
    _check_sizes(instance, scheme)
    if stats.n_unobserved:
        log.debug("dropping Hamiltonian terms for %d unobserved label(s)", stats.n_unobserved)
    _, intra_w = _group_weights(instance, scheme)
    h_mat = cross_group_fields(instance, scheme, stats).reshape(scheme.n_groups, scheme.group_size)
    denom = np.where(stats.observed, stats.p_label, 1.0)
    return intra_w, h_mat, denom


def cost_hamiltonian_terms(
    instance: SKInstance, scheme: EncodingScheme, stats: GroupStats
) -> list[HamiltonianTerm]:
    """Symbolic term list of the state-dependent Hamiltonian.

    Coefficients carry the 1/<P_l> normalization. Terms owned by unobserved
    labels are dropped (with a debug message); zero-weight pair terms and
    zero-field one-body terms are skipped. Terms come label by label, pairs
    in ``data_pair_indices`` order before the one-body terms.
    """
    intra_w, h_mat, denom = _separator_setup(instance, scheme, stats)
    d = scheme.group_size
    targets = data_pair_indices(d) + [(a,) for a in range(d)]
    weights = np.concatenate((intra_w, h_mat), axis=1)
    coeffs = weights * (1.0 / denom)[:, None]
    labels, cols = np.nonzero((weights != 0.0) & stats.observed[:, None])
    return [
        HamiltonianTerm(label, targets[col], coeff)
        for label, col, coeff in zip(labels.tolist(), cols.tolist(), coeffs[labels, cols].tolist())
    ]


def build_cost_hamiltonian(
    instance: SKInstance, scheme: EncodingScheme, stats: GroupStats
) -> DiagonalOperator:
    """Materialize the state-dependent Hamiltonian as a dense diagonal."""
    intra_w, h_mat, denom = _separator_setup(instance, scheme, stats)
    d = scheme.group_size
    spins = basis_spin_table(d)
    template, signs = pair_product_table(d)
    labels = scheme.n_groups
    # columns (high pattern, label) of the signed weights, rows back in basis order
    signed = (signs[:, None, :] * intra_w[None, :, :]).reshape(len(signs) * labels, -1)
    pairs = (template @ signed.T).reshape(len(template), len(signs), labels)
    pairs = pairs.transpose(1, 0, 2).reshape(1 << d, labels)
    block = pairs + spins @ h_mat.T  # (2**d, N/d)
    block = block / denom[None, :]
    block[:, ~stats.observed] = 0.0
    return DiagonalOperator(scheme.n_qubits, block.T.ravel())
