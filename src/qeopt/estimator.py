"""Conditional measurement statistics, the quadratic cost, and the
state-dependent diagonal Hamiltonian.

Variables are read out by post-selecting shots on their group label:
``zbar_i = <P_l Z_di> / <P_l>`` and, within a group, ``corr_ij =
<P_l Z_di Z_dj> / <P_l>``. The cost splits into an intra-group part that
uses measured pair correlations and a cross-group part built from products
of single-spin means. The same statistics define the diagonal Hamiltonian
whose expectation reproduces the cost; its coefficients are normalized by
the current label probabilities, so the operator depends on the state it
was measured from.

Statistics and the diagonal read the spins s_a of a data pattern and the
pair products s_a * s_b, both in split form, cached per group size
(``pair_product_table``): a data pattern is a high part of
max(0, d - SPLIT_BITS) bits and a low part of min(d, SPLIT_BITS) bits, and
its row of spins (or products) is a +-1 sign row of the high part times a
template row of the low part, so no 2**d-row table is ever built. Up to d =
SPLIT_BITS the templates are the whole tables and the signs one row of
ones, whose multiply and one-block sum are exact, so the products are the
ones the dense tables gave. The dense diagonal is written into its output
array: the pair product in place, the field product as one state-sized
temporary added into it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from qeopt.encoding import EncodingScheme, pattern_spins
from qeopt.problem import SKInstance
from qeopt.simulator import DiagonalOperator, Statevector

log = logging.getLogger(__name__)

OBSERVED_EPS = 1e-12
# data bits the split tables' templates span; higher bits only flip signs
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


class SplitTables(NamedTuple):
    """Read-only split form of the (2**d, d) spins and the (2**d, C(d,2))
    pair products s_a * s_b of the data patterns, pair columns in
    ``_pair_columns`` order.

    With lo = min(d, SPLIT_BITS) low data bits and h = d - lo high ones,
    row hi * 2**lo + lo_bits of the spins is exactly
    ``spin_signs[hi] * spin_template[lo_bits]``, and likewise for the pairs.
    A template (2**lo rows) holds the rows whose high bits are 0: a low
    spin, 1 for a high one; a low pair's product, a mixed pair's low spin, 1
    for a high pair. The signs (2**h rows) hold the rows whose low bits are
    0, the high part's +-1. At h = 0 the templates are the whole tables and
    the signs one row of ones.
    """

    spin_template: np.ndarray
    spin_signs: np.ndarray
    pair_template: np.ndarray
    pair_signs: np.ndarray


@cache
def pair_product_table(d: int) -> SplitTables:
    """The split spin and pair-product tables of group size d, decoded by
    ``pattern_spins`` and cached per d."""
    lo = min(d, SPLIT_BITS)
    a, b = _pair_columns(d)
    tables = []
    # the template's patterns have high bits 0, the signs' low bits 0
    for patterns in (np.arange(1 << lo), np.arange(1 << (d - lo)) << lo):
        spins = pattern_spins(patterns, d)
        # written into C order: the gathered operands are column-major
        pairs = np.multiply(spins[:, a], spins[:, b], out=np.empty((len(spins), a.size)))
        tables += [spins, pairs]
    for table in tables:
        table.setflags(write=False)
    spin_template, pair_template, spin_signs, pair_signs = tables
    return SplitTables(spin_template, spin_signs, pair_template, pair_signs)


def exact_evaluation_bytes(scheme: EncodingScheme) -> int:
    """Estimated peak bytes of one exact evaluation: 88 per amplitude, 4 MiB
    that numpy and BLAS take on first use (3.5 MB measured), plus the split
    tables of ``pair_product_table(d)`` and the instance's two N x N float64
    tables, ``weights`` and ``sym_weights``.

    The appended-layer grid holds the most, 64 bytes per amplitude: the
    start's final state, its separator, the reused phased and mixed states
    and the probabilities. Building the start's separator on its first read
    in the grid holds as much: the three states, the separator and the
    field product's temporary (``build_cost_hamiltonian``). An exact 2x2
    landscape and a p=2 run grew the peak by 65-78 per amplitude beyond the
    rest, at q = 18..22 (d = 12 and 16); 88 keeps a margin over that.
    """
    d, n = scheme.group_size, scheme.n_vars
    lo = min(d, SPLIT_BITS)
    split_rows = (1 << lo) + (1 << (d - lo))
    return (88 * scheme.dim + (4 << 20)
            + 8 * split_rows * (d + d * (d - 1) // 2) + 16 * n * n)


def _signed_block_sums(blocks: np.ndarray, signs: np.ndarray, n_groups: int) -> np.ndarray:
    """Per label, the sum over high patterns hi of signs[hi] * blocks[label, hi];
    ``blocks`` holds the (label, high pattern) rows of a template product."""
    blocks = blocks.reshape(n_groups, len(signs), signs.shape[1])
    return np.multiply(blocks, signs, out=blocks).sum(axis=1)


def _stats_from_probs(scheme: EncodingScheme, probs: np.ndarray,
                      observed: np.ndarray | None = None) -> GroupStats:
    d = scheme.group_size
    grouped = probs.reshape(scheme.n_groups, 1 << d)
    p_label = grouped.sum(axis=1)
    if observed is None:
        observed = p_label > OBSERVED_EPS
    denom = np.where(observed, p_label, 1.0)

    tables = pair_product_table(d)
    # one product per (label, high pattern) block and table, signed and summed
    rows = grouped.reshape(-1, len(tables.spin_template))
    zbar_mat = _signed_block_sums(rows @ tables.spin_template, tables.spin_signs, scheme.n_groups)
    zbar_mat /= denom[:, None]
    corr_mat = _signed_block_sums(rows @ tables.pair_template, tables.pair_signs, scheme.n_groups)
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


def _separator_coefficients(
    instance: SKInstance, scheme: EncodingScheme, stats: GroupStats
) -> tuple[np.ndarray, np.ndarray]:
    """The separator's coefficients, each divided by <P_l> once: the intra-group
    pair weights (N/d, C(d,2)) and the cross-group fields (N/d, d). The rows of
    unobserved labels are 0."""
    _check_sizes(instance, scheme)
    if stats.n_unobserved:
        log.debug("dropping Hamiltonian terms for %d unobserved label(s)", stats.n_unobserved)
    _, intra_w = _group_weights(instance, scheme)
    h_mat = cross_group_fields(instance, scheme, stats).reshape(scheme.n_groups, scheme.group_size)
    p, observed = stats.p_label[:, None], stats.observed[:, None]
    return tuple(np.divide(w, p, out=np.zeros_like(w), where=observed) for w in (intra_w, h_mat))


def cost_hamiltonian_terms(
    instance: SKInstance, scheme: EncodingScheme, stats: GroupStats
) -> list[HamiltonianTerm]:
    """Symbolic term list of the state-dependent Hamiltonian: the nonzero
    coefficients of ``_separator_coefficients``.

    Terms owned by unobserved labels are dropped (with a debug message);
    zero-weight pair terms and zero-field one-body terms are skipped. Terms
    come label by label, pairs in ``data_pair_indices`` order before the
    one-body terms.
    """
    pairs, fields = _separator_coefficients(instance, scheme, stats)
    d = scheme.group_size
    targets = data_pair_indices(d) + [(a,) for a in range(d)]
    coeffs = np.concatenate((pairs, fields), axis=1)
    labels, cols = np.nonzero(coeffs)
    return [
        HamiltonianTerm(label, targets[col], coeff)
        for label, col, coeff in zip(labels.tolist(), cols.tolist(), coeffs[labels, cols].tolist())
    ]


def build_cost_hamiltonian(
    instance: SKInstance, scheme: EncodingScheme, stats: GroupStats
) -> DiagonalOperator:
    """Materialize the state-dependent Hamiltonian as a dense diagonal: the
    coefficients of ``_separator_coefficients`` times the split tables.

    The pair product is written into the output; the field product is one
    2**q float64 temporary, added into it.
    """
    pairs, fields = _separator_coefficients(instance, scheme, stats)
    tables = pair_product_table(scheme.group_size)
    labels, low = scheme.n_groups, len(tables.pair_template)
    block = np.empty((labels, scheme.dim // labels))
    # row label * 2**h + hi holds the entries of high pattern hi in the
    # label's row; its coefficients are the label's, signed by the high pattern
    rows = block.reshape(-1, low)
    signed = (pairs[:, None, :] * tables.pair_signs).reshape(len(rows), -1)
    np.matmul(signed, tables.pair_template.T, out=rows)
    rows += (fields[:, None, :] * tables.spin_signs).reshape(len(rows), -1) @ tables.spin_template.T
    return DiagonalOperator(scheme.n_qubits, block.ravel())
