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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qeopt.encoding import EncodingScheme, basis_spin_table
from qeopt.estimator import (
    CostBreakdown,
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
            if not np.isfinite(v):
                raise ValueError(f"layer parameters must be finite, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.beta, self.gamma, self.gamma_bias])


@dataclass
class AnsatzTrace:
    """Per-layer record of a single ansatz execution (layer 0 included)."""

    instance: SKInstance
    scheme: EncodingScheme
    params: list[LayerParams]
    mode: str  # "exact" or "shots"
    layer_stats: list[GroupStats]
    layer_costs: list[CostBreakdown]
    final_state: Statevector | None = None
    final_counts: np.ndarray | None = None  # (2**q,) shot counts of the last layer

    @property
    def final_cost(self) -> float:
        return self.layer_costs[-1].total


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
    state.apply_diagonal_phase(hamiltonian, layer.gamma)
    if layer.gamma_bias != 0.0:
        for qubit in range(state.n_qubits):
            state.apply_rz(qubit, -2.0 * layer.gamma_bias)
    state.apply_mixer(layer.beta)
    return state


def run_ansatz(
    instance: SKInstance,
    scheme: EncodingScheme,
    params: list[LayerParams],
    mode: str = "exact",
    n_shots: int | None = None,
    seed: int = 0,
) -> AnsatzTrace:
    """Execute the full ansatz and record per-layer statistics and costs."""
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

    state = init_plus(scheme.n_qubits)
    layer_stats: list[GroupStats] = []
    layer_costs: list[CostBreakdown] = []
    counts = None
    for k in range(len(params) + 1):
        if k:
            hamiltonian = build_cost_hamiltonian(instance, scheme, layer_stats[-1])
            apply_layer(state, hamiltonian, params[k - 1])
        if shots:
            counts = state.sample(n_shots, seed=seed, key=("ansatz-layer", k))
            stats = shot_group_stats(scheme, counts)
        else:
            stats = exact_group_stats(scheme, state)
        layer_stats.append(stats)
        layer_costs.append(estimate_cost(instance, scheme, stats))
    return AnsatzTrace(
        instance=instance,
        scheme=scheme,
        params=list(params),
        mode=mode,
        layer_stats=layer_stats,
        layer_costs=layer_costs,
        final_state=None if shots else state,
        final_counts=counts,
    )


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
    """Single-layer cost over a (beta, gamma) grid at fixed bias angle."""
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    if betas.size == 0 or gammas.size == 0:
        raise ValueError("parameter grids must be nonempty")
    grid = np.empty((betas.size, gammas.size))
    for bi, beta in enumerate(betas):
        for gi, gamma in enumerate(gammas):
            trace = run_ansatz(
                instance,
                scheme,
                [LayerParams(beta, gamma, gamma_bias)],
                mode=mode,
                n_shots=n_shots,
                seed=_point_seed(seed, bi, gi),
            )
            grid[bi, gi] = trace.final_cost
    return grid


def _point_seed(seed: int, bi: int, gi: int) -> int:
    return (seed * 1_000_003 + bi * 1009 + gi) & 0x7FFFFFFF


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
    final = trace.final_state.probabilities() if trace.mode == "exact" else trace.final_counts
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
