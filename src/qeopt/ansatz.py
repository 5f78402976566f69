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

A prefix (``AnsatzPrefix``) is the exact state after k >= 0 frozen layers,
its per-layer statistics and the phase separator of layer k + 1. At |+>
(k = 0) all three depend only on the instance and the scheme, so exact-mode
callers that evaluate many parameter points on one problem -- the optimizer,
landscapes, gamma scans, the appended-layer grid with k = p - 1 -- build one
prefix with ``prepare_prefix`` and pass it to ``run_ansatz`` as ``start``.
The run then continues from a copy of the prefix state, and every value it
reuses equals, bit for bit, the value a run from |+> recomputes. Shot mode
samples layer 0 per seed and takes no prefix.

A grid over one layer appended to a prefix -- the exact single-layer
landscape (k = 0) and the optimizer's appended-layer grid -- goes through
``appended_layer_grid``, which applies the phase and the bias once per
(gamma, gamma') pair and mixes a copy of that state for every beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qeopt.encoding import EncodingScheme, basis_spin_table
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

    def __post_init__(self):
        for v in (self.beta, self.gamma, self.gamma_bias):
            if not math.isfinite(v):
                raise ValueError(f"layer parameters must be finite, got {self}")


@dataclass(frozen=True)
class AnsatzPrefix:
    """Exact state after the frozen ``layers`` (none: |+>), the statistics of
    layers 0..k and the phase separator of the next layer. Its arrays are
    read-only; ``run_ansatz`` works on a copy of the state."""

    instance: SKInstance
    scheme: EncodingScheme
    layers: tuple[LayerParams, ...]
    state: Statevector
    layer_stats: tuple[GroupStats, ...]
    separator: DiagonalOperator


@dataclass
class AnsatzTrace:
    """Record of a single ansatz execution: the statistics of layers 0..p and
    the cost assembled from the last of them. Exact mode keeps the final
    state, shot mode the last layer's shot counts."""

    instance: SKInstance
    scheme: EncodingScheme
    layer_stats: list[GroupStats]
    final_cost: float
    final_state: Statevector | None = None
    final_counts: np.ndarray | None = None  # (2**q,) shot counts of the last layer


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
    return _phase_and_bias(state, hamiltonian, layer.gamma, layer.gamma_bias).apply_mixer(
        layer.beta)


def _phase_and_bias(state: Statevector, hamiltonian: DiagonalOperator, gamma: float,
                    gamma_bias: float) -> Statevector:
    """The first two factors of a layer, exp(i gamma' H_z) exp(i gamma H), in place."""
    state.apply_diagonal_phase(hamiltonian, gamma)
    if gamma_bias != 0.0:
        state.apply_bias(gamma_bias)
    return state


def run_ansatz(
    instance: SKInstance,
    scheme: EncodingScheme,
    params: list[LayerParams],
    mode: str = "exact",
    n_shots: int | None = None,
    seed: int = 0,
    start: AnsatzPrefix | None = None,
) -> AnsatzTrace:
    """Execute the full ansatz, recording per-layer statistics and the final cost.

    ``start`` (exact mode only) is a prefix of the same instance and scheme
    whose frozen layers are the first layers of ``params``; the run resumes
    after them and returns the trace a run from |+> returns.
    """
    if instance.n_vars != scheme.n_vars:
        raise ValueError(
            f"instance has {instance.n_vars} variables, scheme encodes {scheme.n_vars}"
        )
    if not params:
        raise ValueError("need at least one layer")
    if mode not in ("exact", "shots"):
        raise ValueError(f"mode must be 'exact' or 'shots', got {mode!r}")
    shots = mode == "shots"
    if shots and (n_shots is None or n_shots < 1):
        raise ValueError("shot mode needs n_shots >= 1")

    if start is None:
        state, layer_stats, separator = init_plus(scheme.n_qubits), [], None
    else:
        _check_start(start, instance, scheme, params, shots)
        state, layer_stats = start.state.copy(), list(start.layer_stats)
        separator = start.separator
    counts = None
    first = len(layer_stats)
    for k in range(first, len(params) + 1):
        if k:
            hamiltonian = (separator if k == first
                           else build_cost_hamiltonian(instance, scheme, layer_stats[-1]))
            apply_layer(state, hamiltonian, params[k - 1])
        if shots:
            counts = state.sample(n_shots, seed=seed, key=("ansatz-layer", k))
            stats = shot_group_stats(scheme, counts)
        else:
            stats = exact_group_stats(scheme, state)
        layer_stats.append(stats)
    return AnsatzTrace(
        instance=instance,
        scheme=scheme,
        layer_stats=layer_stats,
        final_cost=estimate_cost(instance, scheme, layer_stats[-1]).total,
        final_state=None if shots else state,
        final_counts=counts,
    )


def _check_start(start: AnsatzPrefix, instance: SKInstance, scheme: EncodingScheme,
                 params: list[LayerParams], shots: bool) -> None:
    if shots:
        raise ValueError("a prefix is an exact-mode start; shot mode samples layer 0 per seed")
    if start.instance is not instance or start.scheme != scheme:
        raise ValueError("the prefix belongs to a different instance or scheme")
    k = len(start.layers)
    if tuple(params[:k]) != start.layers:
        raise ValueError(f"the first {k} layer(s) of params must be the prefix's frozen layers")


def prepare_prefix(
    instance: SKInstance,
    scheme: EncodingScheme,
    layers: tuple[LayerParams, ...] | list[LayerParams] = (),
) -> AnsatzPrefix:
    """The exact prefix after the frozen ``layers``: |+> and its statistics
    when there are none, else the final state of one ``run_ansatz`` call."""
    layers = tuple(layers)
    if layers:
        trace = run_ansatz(instance, scheme, list(layers))
        state, layer_stats = trace.final_state, tuple(trace.layer_stats)
    else:
        state = init_plus(scheme.n_qubits)
        layer_stats = (exact_group_stats(scheme, state),)
    separator = build_cost_hamiltonian(instance, scheme, layer_stats[-1])
    state.amps.setflags(write=False)
    for stats in layer_stats:
        for array in (stats.p_label, stats.zbar, stats.corr_matrix, stats.observed):
            array.setflags(write=False)
    return AnsatzPrefix(instance, scheme, layers, state, layer_stats, separator)


def appended_layer_grid(
    start: AnsatzPrefix,
    betas: np.ndarray,
    gammas: np.ndarray,
    biases: np.ndarray,
) -> np.ndarray:
    """Exact cost of the prefix's frozen layers plus one more layer, over the
    (beta, gamma, gamma') grid.

    Entry [i, j, k] equals ``run_ansatz(instance, scheme, list(start.layers)
    + [LayerParams(betas[i], gammas[j], biases[k])], start=start).final_cost``
    bit for bit: each point runs the same kernels on the same bits. The phase
    and the bias of a (gamma, gamma') pair run once, on one copy of the prefix
    state; each beta mixes its own copy of that phased state.
    """
    axes = [np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (betas, gammas, biases)]
    if not all(np.all(np.isfinite(a)) for a in axes):
        raise ValueError("layer parameters must be finite")
    betas, gammas, biases = axes
    instance, scheme = start.instance, start.scheme
    costs = np.empty((betas.size, gammas.size, biases.size))
    for j, gamma in enumerate(gammas):
        for k, bias in enumerate(biases):
            phased = _phase_and_bias(start.state.copy(), start.separator, gamma, bias)
            for i, beta in enumerate(betas):
                stats = exact_group_stats(scheme, phased.copy().apply_mixer(beta))
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
        grid = appended_layer_grid(prepare_prefix(instance, scheme), betas, gammas, [gamma_bias])
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
    (exact) or the last layer's shot counts (shots). The candidate with the
    lower classical cost wins.
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
    spins = basis_spin_table(d)
    cand_b = np.empty(scheme.n_vars, dtype=np.int8)
    for label in range(scheme.n_groups):
        if grouped[label].sum() > 0:
            pattern = int(np.argmax(grouped[label]))
            cand_b[d * label : d * (label + 1)] = spins[pattern]
        else:
            cand_b[d * label : d * (label + 1)] = rng.integers(0, 2, size=d) * 2 - 1

    cost_a = classical_cost(trace.instance, cand_a)
    cost_b = classical_cost(trace.instance, cand_b)
    return (cand_a, cost_a) if cost_a <= cost_b else (cand_b, cost_b)
