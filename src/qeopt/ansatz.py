"""Layered variational circuit whose phase separator is rebuilt per layer.

Each layer applies exp(i gamma H[psi]) with H measured from the previous
layer's state, then the symmetry-breaking bias exp(i gamma' sum_i Z_i) over
the register, then the transverse-field mixer exp(i beta sum X) on all
qubits. In shot mode the statistics come from sampling the state after each
layer. On hardware a measurement collapses the state, so layer k's
statistics need a fresh execution of the prefix with the earlier phase
separators frozen, and a p-layer run costs p + 1 circuit executions. The
simulated state never collapses, so both modes carry one statevector
forward through the p layers and read the statistics between them.

An exact trace is also a start. Exact-mode callers that evaluate many
parameter points on one problem -- the optimizer, landscapes, gamma scans --
run the ansatz once with no layers, which gives |+> and its statistics, and
pass that trace as ``start``. A run from a start continues from a copy of
its final state and reuses its statistics and its ``separator``, the next
layer's phase separator, built on first read. Every reused value equals,
bit for bit, the value a run from |+> recomputes. Shot mode samples layer 0
per seed and takes no start.

A grid over one layer appended to a start -- the exact single-layer
landscape and the optimizer's appended-layer grid -- goes through
``appended_layer_grid``, which applies the phase and the bias once per
(gamma, gamma') pair and mixes a copy of that state for every beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from qeopt.encoding import EncodingScheme, pattern_spins
from qeopt.estimator import (
    GroupStats,
    build_cost_hamiltonian,
    estimate_cost,
    exact_group_stats,
    shot_group_stats,
)
from qeopt.problem import SKInstance
from qeopt.problem import cost as classical_cost
from qeopt.rng import stream
from qeopt.simulator import DiagonalOperator, Statevector, init_plus


@dataclass(frozen=True)
class LayerParams:
    beta: float
    gamma: float
    gamma_bias: float = 0.0


@dataclass(frozen=True)
class AnsatzTrace:
    """Record of one ansatz execution: the layers run, the statistics of
    layers 0..p and the cost assembled from the last of them. Exact mode keeps
    the final state, shot mode the last layer's shot counts. Every array is
    read-only."""

    instance: SKInstance
    scheme: EncodingScheme
    params: tuple[LayerParams, ...]
    layer_stats: tuple[GroupStats, ...]
    final_cost: float
    final_state: Statevector | None = None
    final_counts: np.ndarray | None = None  # (2**q,) shot counts of the last layer

    @cached_property
    def separator(self) -> DiagonalOperator:
        """The phase separator of the next layer, built on first read."""
        return build_cost_hamiltonian(self.instance, self.scheme, self.layer_stats[-1])


def apply_layer(
    state: Statevector,
    hamiltonian: DiagonalOperator,
    layer: LayerParams,
) -> Statevector:
    """exp(i beta H_x) exp(i gamma' H_z) exp(i gamma H) applied in place.

    The bias field H_z = sum_i Z_i runs over the whole register. Restricting
    it to the data qubits leaves the worked 4-variable example stuck at cost
    -2 for any depth up to 5 (the uniform data field acts trivially on the
    zero-magnetization ground-state patterns), so the register-wide field is
    load-bearing for symmetry breaking at small depth.
    """
    state.apply_diagonal_phase(hamiltonian, layer.gamma, layer.gamma_bias)
    return state.apply_mixer(layer.beta)


def run_ansatz(
    instance: SKInstance,
    scheme: EncodingScheme,
    params: list[LayerParams],
    mode: str = "exact",
    n_shots: int | None = None,
    seed: int = 0,
    start: AnsatzTrace | None = None,
) -> AnsatzTrace:
    """Execute the full ansatz, recording per-layer statistics and the final
    cost; with no layers, the trace of |+>.

    ``start`` (exact mode only) is an exact trace of the same instance and
    scheme whose layers are the first layers of ``params``; the run resumes
    after them and returns the trace a run from |+> returns.
    """
    if instance.n_vars != scheme.n_vars:
        raise ValueError(
            f"instance has {instance.n_vars} variables, scheme encodes {scheme.n_vars}"
        )
    if mode not in ("exact", "shots"):
        raise ValueError(f"mode must be 'exact' or 'shots', got {mode!r}")
    shots = mode == "shots"
    if shots and (n_shots is None or n_shots < 1):
        raise ValueError("shot mode needs n_shots >= 1")

    params = tuple(params)
    if start is None:
        state, layer_stats = init_plus(scheme.n_qubits), []
    else:
        _check_start(start, instance, scheme, params, shots)
        state, layer_stats = start.final_state.copy(), list(start.layer_stats)
    counts = None
    first = len(layer_stats)
    for k in range(first, len(params) + 1):
        if k:
            hamiltonian = (start.separator if k == first
                           else build_cost_hamiltonian(instance, scheme, layer_stats[-1]))
            apply_layer(state, hamiltonian, params[k - 1])
        if shots:
            counts = state.sample(n_shots, seed=seed, key=("ansatz-layer", k))
            stats = shot_group_stats(scheme, counts)
        else:
            stats = exact_group_stats(scheme, state)
        for array in (stats.p_label, stats.zbar, stats.corr_matrix, stats.observed):
            array.setflags(write=False)
        layer_stats.append(stats)
    for array in (state.amps, counts):
        if array is not None:
            array.setflags(write=False)
    return AnsatzTrace(
        instance=instance,
        scheme=scheme,
        params=params,
        layer_stats=tuple(layer_stats),
        final_cost=estimate_cost(instance, scheme, layer_stats[-1]).total,
        final_state=None if shots else state,
        final_counts=counts,
    )


def _check_start(start: AnsatzTrace, instance: SKInstance, scheme: EncodingScheme,
                 params: tuple[LayerParams, ...], shots: bool) -> None:
    if shots:
        raise ValueError("a start is an exact-mode trace; shot mode samples layer 0 per seed")
    if start.final_state is None:
        raise ValueError("a shot trace has no state to continue from")
    if start.instance is not instance or start.scheme != scheme:
        raise ValueError("the start belongs to a different instance or scheme")
    k = len(start.params)
    if params[:k] != start.params:
        raise ValueError(f"the first {k} layer(s) of params must be the start's frozen layers")


def appended_layer_grid(
    start: AnsatzTrace,
    betas: np.ndarray,
    gammas: np.ndarray,
    biases: np.ndarray,
) -> np.ndarray:
    """Exact cost of the start's layers plus one more layer, over the
    (beta, gamma, gamma') grid.

    Entry [i, j, k] equals ``run_ansatz(instance, scheme, list(start.params)
    + [LayerParams(betas[i], gammas[j], biases[k])], start=start).final_cost``
    bit for bit: each point runs the same kernels on the same bits. The phase
    and the bias of a (gamma, gamma') pair run once, on the start's final
    state copied into one reused state; each beta mixes that phased state
    copied into a second reused state.
    """
    axes = [np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (betas, gammas, biases)]
    if start.final_state is None:
        raise ValueError("a shot trace has no state to continue from")
    betas, gammas, biases = axes
    instance, scheme = start.instance, start.scheme
    costs = np.empty((betas.size, gammas.size, biases.size))
    phased, mixed = start.final_state.copy(), start.final_state.copy()
    for j, gamma in enumerate(gammas):
        for k, bias in enumerate(biases):
            np.copyto(phased.amps, start.final_state.amps)
            phased.apply_diagonal_phase(start.separator, gamma, bias)
            for i, beta in enumerate(betas):
                np.copyto(mixed.amps, phased.amps)
                stats = exact_group_stats(scheme, mixed.apply_mixer(beta))
                costs[i, j, k] = estimate_cost(instance, scheme, stats).total
    return costs


def landscape(
    instance: SKInstance,
    scheme: EncodingScheme,
    betas: np.ndarray,
    gammas: np.ndarray,
    gamma_bias: float = 0.0,
    mode: str = "exact",
    n_shots: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Single-layer cost over a (beta, gamma) grid at fixed bias angle.

    In shot mode row r of the grid at ``seed`` s is row 0 of the grid at
    seed s + r, so a grid split into row blocks, each started at seed
    s + (its first row), gives the whole grid's values.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    if betas.size == 0 or gammas.size == 0:
        raise ValueError("parameter grids must be nonempty")
    if mode == "exact":
        grid = appended_layer_grid(run_ansatz(instance, scheme, []), betas, gammas, [gamma_bias])
        return grid.reshape(betas.size, gammas.size)
    grid = np.empty((betas.size, gammas.size))
    for bi, beta in enumerate(betas):
        for gi, gamma in enumerate(gammas):
            grid[bi, gi] = run_ansatz(
                instance,
                scheme,
                [LayerParams(beta, gamma, gamma_bias)],
                mode=mode,
                n_shots=n_shots,
                seed=_point_seed(seed, bi, gi),
            ).final_cost
    return grid


def _point_seed(seed: int, bi: int, gi: int) -> int:
    return ((seed + bi) * 1_000_003 + gi) & 0x7FFFFFFF


def extract_solution(trace: AnsatzTrace, seed: int = 0) -> tuple[np.ndarray, float]:
    """Round the final state to a spin string.

    Candidate A takes sign(zbar_i), ties broken by a seeded coin. Candidate B
    takes the modal data pattern per label from the final probabilities
    (exact) or the last layer's shot counts (shots), and a seeded random
    pattern for a label that no shot read. The candidate with the lower
    classical cost wins.
    """
    rng = stream(seed, "rounding")
    scheme = trace.scheme
    stats = trace.layer_stats[-1]
    coin = rng.integers(0, 2, size=scheme.n_vars) * 2 - 1
    cand_a = np.where(stats.zbar > 0, 1, np.where(stats.zbar < 0, -1, coin)).astype(np.int8)

    d = scheme.group_size
    final = trace.final_counts
    if final is None:
        final = trace.final_state.probabilities()
    grouped = final.reshape(scheme.n_groups, 1 << d)
    cand_b = pattern_spins(grouped.argmax(axis=1), d).astype(np.int8)
    empty = grouped.sum(axis=1) == 0
    cand_b[empty] = rng.integers(0, 2, size=(int(empty.sum()), d)) * 2 - 1
    cand_b = cand_b.ravel()

    cost_a = classical_cost(trace.instance, cand_a)
    cost_b = classical_cost(trace.instance, cand_b)
    return (cand_a, cost_a) if cost_a <= cost_b else (cand_b, cost_b)
