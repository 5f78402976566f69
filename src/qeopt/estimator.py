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
def pair_product_table(d: int) -> np.ndarray:
    """(2**d, C(d,2)) read-only products s_a * s_b of the basis spin table, cached per d."""
    spins = basis_spin_table(d).astype(np.float64)
    pairs = data_pair_indices(d)
    table = np.empty((1 << d, len(pairs)))
    for idx, (a, b) in enumerate(pairs):
        table[:, idx] = spins[:, a] * spins[:, b]
    table.setflags(write=False)
    return table


def _stats_from_probs(scheme: EncodingScheme, probs: np.ndarray,
                      observed: np.ndarray | None = None) -> GroupStats:
    d = scheme.group_size
    grouped = probs.reshape(scheme.n_groups, 1 << d)
    p_label = grouped.sum(axis=1)
    if observed is None:
        observed = p_label > OBSERVED_EPS
    denom = np.where(observed, p_label, 1.0)

    spins = basis_spin_table(d).astype(np.float64)
    zbar_mat = (grouped @ spins) / denom[:, None]
    corr_mat = (grouped @ pair_product_table(d)) / denom[:, None]
    zbar_mat[~observed] = 0.0
    corr_mat[~observed] = 0.0
    np.clip(zbar_mat, -1.0, 1.0, out=zbar_mat)
    np.clip(corr_mat, -1.0, 1.0, out=corr_mat)

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


def _intra_weight_matrix(instance: SKInstance, scheme: EncodingScheme) -> np.ndarray:
    """(N/d, C(d,2)) weights w_ij of the intra-group pairs."""
    d = scheme.group_size
    a, b = _pair_columns(d)
    bases = d * np.arange(scheme.n_groups)[:, None]
    return instance.weights[bases + a[None, :], bases + b[None, :]]


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
    intra_w = _intra_weight_matrix(instance, scheme)
    intra = float(np.sum(intra_w * stats.corr_matrix))

    zbar = stats.zbar
    full = float(zbar @ instance.weights @ zbar)  # sum over all i<j of w zbar zbar
    d = scheme.group_size
    zbar_mat = zbar.reshape(scheme.n_groups, d)
    a, b = _pair_columns(d)
    intra_zz = float(np.sum(intra_w * (zbar_mat[:, a] * zbar_mat[:, b])))
    return CostBreakdown(intra=intra, inter=full - intra_zz)


def cross_group_fields(instance: SKInstance, scheme: EncodingScheme, stats: GroupStats) -> np.ndarray:
    """h_i = 1/2 sum over j in other groups of w_ij zbar_j, for every i."""
    _check_sizes(instance, scheme)
    w_sym = instance.sym_weights
    zbar = stats.zbar
    full = w_sym @ zbar
    d = scheme.group_size
    zbar_mat = zbar.reshape(scheme.n_groups, d)
    same = np.zeros(scheme.n_vars)
    for label in range(scheme.n_groups):
        sl = slice(d * label, d * (label + 1))
        same[sl] = w_sym[sl, sl] @ zbar_mat[label]
    return 0.5 * (full - same)


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
    intra_w = _intra_weight_matrix(instance, scheme)
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
    spins = basis_spin_table(d).astype(np.float64)
    block = pair_product_table(d) @ intra_w.T + spins @ h_mat.T  # (2**d, N/d)
    block = block / denom[None, :]
    block[:, ~stats.observed] = 0.0
    return DiagonalOperator(scheme.n_qubits, block.T.ravel())
