"""Sherrington-Kirkpatrick instances, classical cost, and ground-truth optima.

The cost is C(z) = sum_{i<j} w_ij z_i z_j with z_i in {+1, -1}. Weights are
drawn either uniformly from {+1, -1} or i.i.d. standard normal. Exact optima
come from brute-force enumeration (N <= BRUTE_FORCE_CAP = 24); larger sizes
use an in-repo multi-start tabu descent with fixed budgets: TABU_RESTARTS
restarts, a tabu tenure of TABU_TENURE moves, and a stop once no restart has
improved for 8 sweeps, within a budget of TABU_MAX_SWEEPS * N flips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from qeopt.rng import stream

BRUTE_FORCE_CAP = 24
TABU_RESTARTS, TABU_MAX_SWEEPS, TABU_TENURE = 64, 64, 8

WEIGHT_KINDS = ("pm1", "gaussian")


@dataclass(frozen=True)
class SKInstance:
    """Fully connected instance with strictly-upper-triangular weights.

    ``sym_weights`` is built on first use and kept read-only. ``cached`` keeps
    other tables derived from the weights for the instance's lifetime; the
    estimator keeps its per-group-size weight tables there, so each is built
    once per (instance, group size).
    """

    n_vars: int
    weights: np.ndarray  # (N, N), zero on and below the diagonal
    weight_kind: str
    seed: int
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.n_vars, self.n_vars):
            raise ValueError(f"weights must be ({self.n_vars}, {self.n_vars}), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w[np.tril_indices(self.n_vars)] != 0.0):
            raise ValueError("weights must be strictly upper triangular")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @cached_property
    def sym_weights(self) -> np.ndarray:
        """(N, N) read-only w + w^T."""
        sym = self.weights + self.weights.T
        sym.setflags(write=False)
        return sym

    def cached(self, key, build):
        """``build(self)``, computed on the first call with ``key`` and kept."""
        if key not in self._tables:
            self._tables[key] = build(self)
        return self._tables[key]


@dataclass(frozen=True)
class OptimumRecord:
    best_cost: float
    minimizers: frozenset[tuple[int, ...]]
    method: str  # "brute_force" | "local_search"


def generate_sk(n_vars: int, kind: str = "pm1", seed: int = 0) -> SKInstance:
    """Draw a random instance, deterministic given (N, kind, seed)."""
    if n_vars < 2:
        raise ValueError(f"need at least 2 variables, got {n_vars}")
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"weight kind must be one of {WEIGHT_KINDS}, got {kind!r}")
    rng = stream(seed, "sk", kind, n_vars)
    n_pairs = n_vars * (n_vars - 1) // 2
    if kind == "pm1":
        vals = rng.integers(0, 2, size=n_pairs) * 2.0 - 1.0
    else:
        vals = rng.standard_normal(n_pairs)
    w = np.zeros((n_vars, n_vars))
    w[np.triu_indices(n_vars, k=1)] = vals
    return SKInstance(n_vars=n_vars, weights=w, weight_kind=kind, seed=seed)


def example_instance_n4() -> SKInstance:
    """The fixed 4-variable instance used throughout tests and the CLI.

    Ground states are (1,-1,1,-1) and (-1,1,-1,1) with cost -4.
    """
    w = np.zeros((4, 4))
    w[0, 1], w[0, 2], w[0, 3] = 1.0, -1.0, 1.0
    w[1, 2], w[1, 3] = -1.0, -1.0
    w[2, 3] = 1.0
    return SKInstance(n_vars=4, weights=w, weight_kind="pm1", seed=-1)


def pad_instance(instance: SKInstance, group_size: int) -> SKInstance:
    """The instance with zero-weight dummy variables appended up to the
    smallest N' = d * 2**k >= N (itself when N' = N); they change no cost."""
    if group_size > instance.n_vars:
        raise ValueError(f"group size {group_size} exceeds variable count {instance.n_vars}")
    n_vars = group_size << (-(-instance.n_vars // group_size) - 1).bit_length()
    if n_vars == instance.n_vars:
        return instance
    w = np.zeros((n_vars, n_vars))
    w[: instance.n_vars, : instance.n_vars] = instance.weights
    return SKInstance(n_vars=n_vars, weights=w, weight_kind=instance.weight_kind, seed=instance.seed)


def cost(instance: SKInstance, spins: np.ndarray) -> float:
    """C(z) = sum_{i<j} w_ij z_i z_j."""
    z = np.asarray(spins, dtype=np.float64)
    if z.shape != (instance.n_vars,):
        raise ValueError(f"expected {instance.n_vars} spins, got shape {z.shape}")
    return float(z @ instance.weights @ z)


def approximation_ratio(c: float, c_star: float) -> float:
    """r = C / C*; requires C* < 0 (SK optima are negative). A zero cost
    gives +0.0, not the -0.0 of 0.0 / C*."""
    if not c_star < 0:
        raise ValueError(f"approximation ratio needs C* < 0, got {c_star}")
    return c / c_star + 0.0


def brute_force_optimum(instance: SKInstance) -> OptimumRecord:
    """Exact C* and the complete minimizer set by enumeration.

    Exploits the global flip symmetry: only strings with z_0 = +1 are
    enumerated and each minimizer contributes its negation as well.
    """
    n = instance.n_vars
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at N={BRUTE_FORCE_CAP}, got N={n}")

    w = instance.weights
    best = np.inf
    winners: list[np.ndarray] = []
    half = 1 << (n - 1)
    chunk = 1 << 18
    for start in range(0, half, chunk):
        idx = np.arange(start, min(start + chunk, half), dtype=np.int64)
        # z_0 = +1 fixed; remaining n-1 spins from the bits of idx, one
        # column at a time, then 1 - 2 * bit in place (exact for bits 0, 1)
        z = np.empty((len(idx), n), dtype=np.float64)
        z[:, 0] = 1.0
        for col in range(1, n):
            z[:, col] = (idx >> (n - 1 - col)) & 1
        z[:, 1:] *= -2.0
        z[:, 1:] += 1.0
        costs = np.einsum("bi,ij,bj->b", z, w, z, optimize=True)
        c_min = costs.min()
        if c_min < best:
            best = c_min
            winners = [z[costs == c_min]]
        elif c_min == best:
            winners.append(z[costs == c_min])

    mins: set[tuple[int, ...]] = set()
    for block in winners:
        for row in block:
            t = tuple(int(v) for v in row)
            mins.add(t)
            mins.add(tuple(-v for v in t))
    return OptimumRecord(best_cost=float(best), minimizers=frozenset(mins), method="brute_force")


def local_search_optimum(instance: SKInstance, seed: int = 0) -> OptimumRecord:
    """Multi-start single-flip tabu descent, ``TABU_RESTARTS`` restarts
    advanced in lockstep.

    Each restart makes best-improvement flips with a tabu list of length
    ``TABU_TENURE`` and an aspiration override when a move beats that
    restart's incumbent. The search stops once no restart's incumbent has
    improved for 8 sweeps (8 * N moves), and after ``TABU_MAX_SWEEPS * N``
    moves at the latest. A cost improves when it falls by more than
    1e-12 * max(1, sum |w_ij|), which bounds the drift of the running costs
    (sum |w_ij| bounds |C(z)|); pm1 costs are integers and the threshold is
    below 1. The minimizer is returned with z_0 = +1, as
    ``brute_force_optimum`` enumerates it. Deterministic given the seed.
    Calibrated to match brute force on N <= 24 with these budgets.
    """
    n = instance.n_vars
    w_sym = instance.sym_weights
    rng = stream(seed, "tabu")
    r = TABU_RESTARTS

    z = rng.integers(0, 2, size=(r, n)) * 2.0 - 1.0
    fields = z @ w_sym  # (R, N) local fields
    costs = 0.5 * np.einsum("rn,rn->r", z, fields)
    tabu_until = np.zeros((r, n), dtype=np.int64)
    inc_costs = costs.copy()
    inc_z = z.copy()
    rows = np.arange(r)
    last_improved = 0
    tol = 1e-12 * max(1.0, float(np.abs(instance.weights).sum()))

    for move in range(TABU_MAX_SWEEPS * n):
        # stall exit at 8 sweeps, ~2x the largest pm1 gap between improvements (4.3 N)
        if move - last_improved > 8 * n:
            break
        gains = -2.0 * z * fields
        allowed = tabu_until <= move
        # aspiration: a tabu flip is allowed if it improves the incumbent
        allowed |= costs[:, None] + gains < inc_costs[:, None] - tol
        candidates = np.where(allowed, gains, np.inf)
        picks = np.argmin(candidates, axis=1)
        gain = candidates[rows, picks]
        movable = np.isfinite(gain)
        if not movable.any():
            break
        rr = rows[movable]
        ii = picks[movable]
        z[rr, ii] = -z[rr, ii]
        fields[rr] += 2.0 * z[rr, ii, None] * w_sym[ii]
        costs[rr] += gain[movable]
        tabu_until[rr, ii] = move + TABU_TENURE
        improved = rr[costs[rr] < inc_costs[rr] - tol]
        if improved.size:
            inc_costs[improved] = costs[improved]
            inc_z[improved] = z[improved]
            last_improved = move

    best = int(np.argmin(inc_costs))
    best_z = inc_z[best] * inc_z[best, 0]
    # re-evaluate to shed incremental float drift; negation keeps the bits
    best_cost = cost(instance, best_z)
    return OptimumRecord(
        best_cost=best_cost,
        minimizers=frozenset({tuple(int(v) for v in best_z)}),
        method="local_search",
    )


def ground_truth(instance: SKInstance, seed: int = 0) -> OptimumRecord:
    """Brute force when feasible, tabu search otherwise."""
    if instance.n_vars <= BRUTE_FORCE_CAP:
        return brute_force_optimum(instance)
    return local_search_optimum(instance, seed=seed)
