"""Encoding entanglement, the decomposition baseline, and shot-noise scaling.

The data-qubit entropy of an encoded string needs no statevector: tracing
out the label register leaves a classical mixture over the distinct group
patterns, so the entropy is that of the pattern multiplicity distribution.
The decomposition baseline solves each d-variable intra-group subproblem
exactly and sums the optima; its asymptotic approximation ratio follows
r*(p) sqrt(d/N) with externally supplied r*(p) constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qeopt.ansatz import LayerParams, run_ansatz
from qeopt.encoding import EncodingScheme, make_scheme
from qeopt.estimator import estimate_cost, shot_group_stats
from qeopt.problem import SKInstance, brute_force_optimum
from qeopt.rng import stream

@dataclass(frozen=True)
class EntropyProfile:
    group_sizes: tuple[int, ...]
    mean_entropy: np.ndarray  # bits, one entry per group size


@dataclass(frozen=True)
class BaselineTable:
    """Approximation ratios r*(p) of the size-d reference ansatz, supplied
    from external literature.

    Context: the asymptotic ground-state cost is C*(N) ~ -P N^(3/2) + a N^w
    with P the Parisi constant and finite-size constants w = 5/6, a ~ 0.7;
    the baseline bound keeps only the leading term, and this package never
    fits the corrections.
    """

    r_star: dict[int, float]

    def __post_init__(self):
        for p, r in self.r_star.items():
            if p < 1:
                raise ValueError(f"r* depths must be >= 1, got p={p}")
            if not 0 < r <= 1:
                raise ValueError(f"r*(p={p}) must be in (0, 1], got {r}")


def data_entropy(scheme: EncodingScheme, spins: np.ndarray, lambdas: np.ndarray | None = None) -> float:
    """Entanglement entropy (bits) of the data register for an encoded string.

    Equal group patterns merge in the reduced state, so the entropy is
    -sum q_k log2 q_k over the merged |lambda|^2 weights. Never exceeds
    min(d, log2(N/d)).
    """
    spins = np.asarray(spins)
    if spins.shape != (scheme.n_vars,):
        raise ValueError(f"expected {scheme.n_vars} spins, got {spins.shape}")
    if lambdas is None:
        weights = np.full(scheme.n_groups, 1.0 / scheme.n_groups)
    else:
        lambdas = np.asarray(lambdas)
        if lambdas.shape != (scheme.n_groups,):
            raise ValueError(f"expected {scheme.n_groups} amplitudes, got {lambdas.shape}")
        weights = np.abs(lambdas) ** 2
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("group amplitudes must be normalized")

    patterns = (spins < 0).reshape(scheme.n_groups, scheme.group_size)
    packed = np.packbits(patterns, axis=1)
    _, inverse = np.unique(packed, axis=0, return_inverse=True)
    merged = np.bincount(inverse, weights=weights)
    merged = merged[merged > 0]
    entropy = float(-np.sum(merged * np.log2(merged)))

    bound = min(scheme.group_size, scheme.n_label_qubits)
    if entropy > bound + 1e-9:
        raise AssertionError(f"entropy {entropy} exceeds Schmidt bound {bound}")
    return entropy


def entropy_profile(
    n_vars: int,
    group_sizes: list[int],
    n_samples: int = 100,
    seed: int = 0,
) -> EntropyProfile:
    """Mean data entropy over uniformly random strings, uniform lambdas."""
    means = []
    for d in group_sizes:
        scheme = make_scheme(n_vars, d)
        rng = stream(seed, "entropy", d)
        total = 0.0
        for _ in range(n_samples):
            spins = rng.integers(0, 2, size=n_vars) * 2 - 1
            total += data_entropy(scheme, spins)
        means.append(total / n_samples)
    return EntropyProfile(group_sizes=tuple(group_sizes), mean_entropy=np.array(means))


def baseline_ratio(p: int, n_vars: int, group_size: int, table: BaselineTable) -> float:
    """Asymptotic decomposition-ansatz ratio r*(p) sqrt(d/N)."""
    if p not in table.r_star:
        raise KeyError(f"no r* entry for p={p}; table has {sorted(table.r_star)}")
    return table.r_star[p] * math.sqrt(group_size / n_vars)


def decomposed_baseline_exact(instance: SKInstance, scheme: EncodingScheme) -> float:
    """Sum of exact optima of the intra-group subproblems.

    The exact limit of the label-untouched ansatz: cross-group weights are
    discarded, each group is solved independently, the costs add.
    """
    if instance.n_vars != scheme.n_vars:
        raise ValueError("instance and scheme sizes must match")
    d = scheme.group_size
    total = 0.0
    for label in range(scheme.n_groups):
        sl = slice(d * label, d * (label + 1))
        sub = instance.weights[sl, sl]
        if d == 1:
            continue  # single-variable groups carry no intra cost
        sub_inst = SKInstance(n_vars=d, weights=sub, weight_kind=instance.weight_kind,
                              seed=instance.seed)
        total += brute_force_optimum(sub_inst).best_cost
    return total


@dataclass(frozen=True)
class ShotNoiseResult:
    shot_counts: tuple[int, ...]
    mean_abs_error: np.ndarray
    stderr: np.ndarray
    exact_cost: float

    def loglog_slope(self) -> float:
        """Fitted decay exponent of the error against the shot budget."""
        xs = np.log10(np.asarray(self.shot_counts, dtype=float))
        ys = np.log10(self.mean_abs_error)
        slope, _ = np.polyfit(xs, ys, 1)
        return float(slope)


def shot_noise_study(
    instance: SKInstance,
    scheme: EncodingScheme,
    params: list[LayerParams] | tuple[LayerParams, ...],
    shot_counts: list[int],
    replicas: int = 20,
    seed: int = 0,
) -> ShotNoiseResult:
    """Sampling error of the estimated cost against the exact final state.

    The exact-mode final state for the fixed parameters is sampled
    ``replicas`` times per shot budget; each replica's cost estimate is
    compared with the exact expectation.
    """
    if replicas < 2:
        raise ValueError("need at least two replicas for a standard error")
    trace = run_ansatz(instance, scheme, list(params), mode="exact")
    state = trace.final_state
    exact = trace.final_cost

    means, errs = [], []
    for n_shots in shot_counts:
        abs_errors = []
        for rep in range(replicas):
            counts = state.sample(n_shots, seed=seed, key=("shot-noise", n_shots, rep))
            stats = shot_group_stats(scheme, counts)
            estimate = estimate_cost(instance, scheme, stats).total
            abs_errors.append(abs(estimate - exact))
        abs_errors = np.array(abs_errors)
        means.append(abs_errors.mean())
        errs.append(abs_errors.std(ddof=1) / math.sqrt(replicas))
    return ShotNoiseResult(
        shot_counts=tuple(shot_counts),
        mean_abs_error=np.array(means),
        stderr=np.array(errs),
        exact_cost=exact,
    )
