"""Variational parameter search, cross-size transfer, and concentration runs.

The search is a basin-hopping loop: Gaussian perturbation of the incumbent
(wrapped into the parameter box), Nelder-Mead local refinement, accept
on improvement. The box is ``BOUNDS``: beta in [0, pi), gamma and gamma'
in [-pi, pi); Nelder-Mead stops at tolerance ``LOCAL_TOL``.
Optimal gamma coefficients shrink like d/N^(3/2), which both sets the hop
scale for gamma and gives the rescaling rule for reusing parameters across
problem sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize as sciopt

from qeopt.ansatz import LayerParams, appended_layer_grid, prepare_prefix, run_ansatz
from qeopt.encoding import EncodingScheme
from qeopt.problem import OptimumRecord, SKInstance, approximation_ratio
from qeopt.rng import stream


# (beta, gamma, gamma') box of every layer; each angle wraps with the box width
BOUNDS = ((0.0, math.pi), (-math.pi, math.pi), (-math.pi, math.pi))
LOCAL_TOL = 1e-6  # Nelder-Mead fatol and xatol


@dataclass(frozen=True)
class OptimizerConfig:
    n_hops: int = 20
    max_local_evals: int = 200
    freeze_gamma_bias: bool = False
    initial: tuple[LayerParams, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_hops < 0 or self.max_local_evals < 1:
            raise ValueError("optimizer budgets must be positive")


@dataclass(frozen=True)
class OptimResult:
    best_params: tuple[LayerParams, ...]
    best_cost: float
    eval_count: int
    history: tuple[float, ...]  # best cost after each accepted hop


def gamma_scale_hint(scheme: EncodingScheme) -> float:
    """Characteristic size of good gamma values, ~ d / N^(3/2)."""
    n, d = scheme.n_vars, scheme.group_size
    return min(math.pi / 2, 4.0 * d / n**1.5)


class _CostFunction:
    """Flattened-parameter view of the exact-mode ansatz cost.

    The layers form a (p, 3) array of (beta, gamma, gamma') rows; the search
    sees its first ``width`` columns row by row, so a frozen gamma' (width 2)
    stays at the initial guess, or 0. Every evaluation starts from one
    zero-layer prefix.
    """

    def __init__(self, instance, scheme, p, config):
        self.instance = instance
        self.scheme = scheme
        self.start = prepare_prefix(instance, scheme)
        self.p = p
        self.config = config
        self.eval_count = 0
        self.best_x: np.ndarray | None = None
        self.best_cost = math.inf
        self.width = 2 if config.freeze_gamma_bias else 3
        self.n_params = self.width * p
        self.layers = np.zeros((p, 3))
        if config.initial is not None:
            self.layers[:, 2] = [lp.gamma_bias for lp in config.initial]
        self.lows = np.array([lo for lo, _ in BOUNDS[: self.width]])
        self.highs = np.array([hi for _, hi in BOUNDS[: self.width]])

    def pack(self, params: list[LayerParams]) -> np.ndarray:
        rows = np.array([(lp.beta, lp.gamma, lp.gamma_bias) for lp in params])
        return rows[:, : self.width].ravel()

    def unpack(self, x: np.ndarray) -> list[LayerParams]:
        layers = self.layers.copy()
        layers[:, : self.width] = np.reshape(x, (self.p, self.width))
        return [LayerParams(*row) for row in layers]

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Map parameters back into the box using their periodicity."""
        x = np.reshape(x, (self.p, self.width))
        return (self.lows + np.mod(x - self.lows, self.highs - self.lows)).ravel()

    def bounds_list(self) -> list[tuple[float, float]]:
        return list(BOUNDS[: self.width]) * self.p

    def hop_scales(self) -> np.ndarray:
        gamma = max(0.5 * gamma_scale_hint(self.scheme), 1e-3)
        return np.tile((0.3, gamma, 0.3)[: self.width], self.p)

    def __call__(self, x: np.ndarray) -> float:
        self.eval_count += 1
        trace = run_ansatz(self.instance, self.scheme, self.unpack(np.asarray(x)), mode="exact",
                           start=self.start)
        cost = trace.final_cost
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_x = np.array(x, dtype=np.float64)
        return cost


def _local_refine(fn: _CostFunction, x0: np.ndarray) -> None:
    sciopt.minimize(
        fn,
        np.clip(x0, np.tile(fn.lows, fn.p), np.tile(fn.highs, fn.p)),
        method="Nelder-Mead",
        bounds=fn.bounds_list(),
        options={"maxfev": fn.config.max_local_evals, "fatol": LOCAL_TOL, "xatol": LOCAL_TOL},
    )


def _presearch(fn: _CostFunction) -> np.ndarray:
    """Coarse deterministic grid of repeated layers to seed the first local
    search: the first lowest cost in (beta, gamma, gamma') order wins."""
    hint = gamma_scale_hint(fn.scheme)
    betas = np.concatenate([[0.1, 0.2], np.linspace(0.0, math.pi, 9)[1:-1]])
    gammas = np.concatenate([[0.0], hint * np.array([-2, -1, -0.5, -0.25, 0.25, 0.5, 1, 2])])
    biases = [0.0] if fn.width == 2 else [-0.8, -0.4, 0.0, 0.4, 0.8]
    for beta, gamma, bias in itertools.product(betas, gammas, biases):
        fn(fn.pack([LayerParams(beta, gamma, bias)] * fn.p))
    return fn.best_x.copy()


def optimize(
    instance: SKInstance,
    scheme: EncodingScheme,
    p: int,
    config: OptimizerConfig | None = None,
) -> OptimResult:
    """Basin-hopping search over the p-layer parameters in exact mode."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    config = config or OptimizerConfig()
    if config.initial is not None and len(config.initial) != p:
        raise ValueError(f"initial guess has {len(config.initial)} layers, need {p}")
    fn = _CostFunction(instance, scheme, p, config)

    if config.initial is not None:
        x_raw = fn.pack(list(config.initial))
        fn(x_raw)  # pin the warm-start cost so the result can never be worse
        x0 = fn.wrap(x_raw)
    else:
        x0 = _presearch(fn)

    rng = stream(config.seed, "hops")
    if config.max_local_evals > 1:
        _local_refine(fn, x0)
    history = [fn.best_cost]
    scales = fn.hop_scales()
    for _ in range(config.n_hops):
        candidate = fn.wrap(fn.best_x + scales * rng.standard_normal(fn.n_params))
        before = fn.best_cost
        _local_refine(fn, candidate)
        if fn.best_cost < before:
            history.append(fn.best_cost)

    return OptimResult(
        best_params=tuple(fn.unpack(fn.best_x)),
        best_cost=fn.best_cost,
        eval_count=fn.eval_count,
        history=tuple(history),
    )


def _best_appended_layer(
    instance: SKInstance,
    scheme: EncodingScheme,
    prev: tuple[LayerParams, ...],
    config: OptimizerConfig,
) -> LayerParams:
    """Coarse grid over one extra layer with the earlier layers frozen.

    The grid contains the all-zero layer, so seeding from the result keeps
    the previous depth's cost attainable. The frozen layers run once, and
    ``appended_layer_grid`` continues every grid point from their final
    state. The first lowest cost in (beta, gamma, gamma') order wins.
    """
    hint = gamma_scale_hint(scheme)
    betas = np.concatenate([[0.0, 0.1, 0.2], np.linspace(0.0, math.pi, 9)[1:-1]])
    gammas = np.concatenate([[0.0], hint * np.array([-2, -1, -0.5, 0.5, 1, 2])])
    biases = [0.0] if config.freeze_gamma_bias else [-0.4, 0.0, 0.4]

    costs = appended_layer_grid(prepare_prefix(instance, scheme, prev), betas, gammas, biases)
    i, j, k = np.unravel_index(np.argmin(costs), costs.shape)
    return LayerParams(betas[i], gammas[j], biases[k])


def warm_start_schedule(
    instance: SKInstance,
    scheme: EncodingScheme,
    p_max: int,
    config: OptimizerConfig | None = None,
) -> dict[int, OptimResult]:
    """Optimize p = 1..p_max, seeding each depth with the previous optimum
    plus a grid-searched extra layer (the all-zero layer is in the grid, so
    the p-1 cost is always attainable)."""
    config = config or OptimizerConfig()
    results: dict[int, OptimResult] = {}
    for p in range(1, p_max + 1):
        if p > 1:
            prev = results[p - 1].best_params
            appended = _best_appended_layer(instance, scheme, prev, config)
            config = replace(config, initial=prev + (appended,))
        results[p] = optimize(instance, scheme, p, config)
    return results


def transfer_params(
    params: tuple[LayerParams, ...] | list[LayerParams],
    from_shape: tuple[int, int],
    to_shape: tuple[int, int],
) -> tuple[LayerParams, ...]:
    """Rescale gamma by (d1/d0) (N0/N1)^(3/2); beta and gamma' carry over."""
    n0, d0 = from_shape
    n1, d1 = to_shape
    factor = (d1 / d0) * (n0 / n1) ** 1.5
    return tuple(LayerParams(lp.beta, lp.gamma * factor, lp.gamma_bias) for lp in params)


def concentration_experiment(
    instances: list[SKInstance],
    scheme: EncodingScheme,
    params: tuple[LayerParams, ...] | list[LayerParams],
    ground_truths: list[OptimumRecord],
) -> np.ndarray:
    """Approximation ratios of frozen parameters over an ensemble, one per
    instance, against the callers' already-solved optima."""
    if not instances:
        raise ValueError("need at least one instance")
    if len(ground_truths) != len(instances):
        raise ValueError("ground_truths must match instances one-to-one")
    ratios = []
    for inst, record in zip(instances, ground_truths):
        if inst.n_vars != scheme.n_vars:
            raise ValueError("ensemble instances must match the scheme size")
        cost = run_ansatz(inst, scheme, list(params), mode="exact").final_cost
        ratios.append(approximation_ratio(cost, record.best_cost))
    return np.array(ratios)


def optimize_gamma_scale(
    instance: SKInstance,
    scheme: EncodingScheme,
    donor_params: tuple[LayerParams, ...] | list[LayerParams],
) -> float:
    """Best common multiplier theta for the donor gamma values.

    Beta and gamma' stay at the donor values; every layer's gamma is scaled
    by the same theta. The scan covers positive rescalings over three
    decades (the size-transfer law is a positive rescaling). The coarse
    winner is refined with a bounded scalar search.
    """
    scan = np.geomspace(0.02, 50.0, 81)
    start = prepare_prefix(instance, scheme)

    def cost_at(theta: float) -> float:
        scaled = [LayerParams(lp.beta, theta * lp.gamma, lp.gamma_bias) for lp in donor_params]
        return run_ansatz(instance, scheme, scaled, mode="exact", start=start).final_cost

    values = np.array([cost_at(t) for t in scan])
    k = int(np.argmin(values))
    lo = scan[max(0, k - 1)]
    hi = scan[min(len(scan) - 1, k + 1)]
    if lo == hi:
        return float(scan[k])
    res = sciopt.minimize_scalar(cost_at, bounds=(min(lo, hi), max(lo, hi)), method="bounded",
                                 options={"xatol": 1e-6})
    return float(res.x) if res.fun <= values[k] else float(scan[k])


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    prefactor: float
    residuals: np.ndarray
    low_confidence: bool


def fit_gamma_scaling(points: list[tuple[int, int, float]]) -> ScalingFit:
    """Least-squares fit of log|theta| against log(d / N^(3/2)).

    ``points`` holds (N, d, theta_opt) records; the expected exponent is 1.
    Fewer than three points still fit but are flagged low-confidence.
    """
    if len(points) < 2:
        raise ValueError("need at least two (N, d, theta) points")
    xs = np.array([math.log(d / n**1.5) for n, d, _ in points])
    if np.allclose(xs, xs[0]):
        raise ValueError("degenerate grid: all points share d / N^(3/2)")
    thetas = np.array([abs(t) for _, _, t in points])
    if np.any(thetas <= 0):
        raise ValueError("theta values must be nonzero")
    ys = np.log(thetas)
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    return ScalingFit(
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
        residuals=residuals,
        low_confidence=len(points) < 3,
    )
