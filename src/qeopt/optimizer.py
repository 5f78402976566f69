"""Variational parameter search, cross-size transfer, and gamma scaling.

The search is a basin-hopping loop: Gaussian perturbation of the incumbent
(wrapped into the parameter box), Nelder-Mead local refinement, accept
on improvement. The box is ``BOUNDS``: beta in [0, pi), gamma and gamma'
in [-pi, pi); Nelder-Mead stops at tolerance ``LOCAL_TOL``.
Optimal gamma coefficients shrink like d/N^(3/2), which both sets the hop
scale for gamma and gives the rescaling rule for reusing parameters across
problem sizes.
The one local search, ``_nelder_mead``, repeats the float steps of SciPy
1.17's bounded Nelder-Mead for the options used here; the lock-step test in
``tests/test_optimizer.py`` compares every evaluated point with SciPy's.
Both searches, ``optimize`` and ``optimize_gamma_scale``, keep their books in
one record, ``_Evaluations``: each point is run once and counted at every
call, and the first point of lowest cost is the result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from qeopt.ansatz import LayerParams, appended_layer_grid, run_ansatz
from qeopt.encoding import EncodingScheme
from qeopt.problem import SKInstance
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


class _Evaluations:
    """The record of one search's exact evaluations.

    ``layers(x)`` maps a point to its ``LayerParams``. Every point runs once,
    continuing the zero-layer trace ``start``; a point asked for again is
    served from ``costs`` (keyed by its Python floats, so +0.0 and -0.0 are
    one point) and still counted in ``eval_count``, as SciPy's nfev counts
    it. ``best_x`` and ``best_cost`` hold the first point of lowest cost.
    """

    def __init__(self, instance, scheme, layers):
        self.instance = instance
        self.scheme = scheme
        self.layers = layers
        self.start = run_ansatz(instance, scheme, [])
        self.eval_count = 0
        self.costs: dict[tuple[float, ...], float] = {}
        self.best_x: np.ndarray | None = None
        self.best_cost = math.inf

    def __call__(self, x: np.ndarray) -> float:
        self.eval_count += 1
        key = tuple(x.tolist())
        if key not in self.costs:
            trace = run_ansatz(self.instance, self.scheme, self.layers(x), mode="exact",
                               start=self.start)
            self.costs[key] = trace.final_cost
            if trace.final_cost < self.best_cost:
                self.best_cost = trace.final_cost
                self.best_x = np.array(x, dtype=np.float64)
        return self.costs[key]


class _CostFunction:
    """Flattened-parameter layout of the exact-mode ansatz cost.

    The layers form a (p, 3) array of (beta, gamma, gamma') rows; the search
    sees its first ``width`` columns row by row, so a frozen gamma' (width 2)
    stays at the initial guess, or 0.
    """

    def __init__(self, scheme, p, config):
        self.scheme = scheme
        self.p = p
        self.width = 2 if config.freeze_gamma_bias else 3
        self.n_params = self.width * p
        self.layers = np.zeros((p, 3))
        if config.initial is not None:
            self.layers[:, 2] = [lp.gamma_bias for lp in config.initial]
        lo, hi = np.array(BOUNDS[: self.width]).T
        self.box = (np.tile(lo, p), np.tile(hi, p))

    def pack(self, params: list[LayerParams]) -> np.ndarray:
        rows = np.array([(lp.beta, lp.gamma, lp.gamma_bias) for lp in params])
        return rows[:, : self.width].ravel()

    def unpack(self, x: np.ndarray) -> list[LayerParams]:
        layers = self.layers.copy()
        layers[:, : self.width] = np.reshape(x, (self.p, self.width))
        return [LayerParams(*row) for row in layers]

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Map parameters back into the box using their periodicity."""
        lb, ub = self.box
        return lb + np.mod(x - lb, ub - lb)

    def hop_scales(self) -> np.ndarray:
        gamma = max(0.5 * gamma_scale_hint(self.scheme), 1e-3)
        return np.tile((0.3, gamma, 0.3)[: self.width], self.p)


class _BudgetSpent(Exception):
    """An evaluation was asked for after the last one the budget allows."""


def _nelder_mead(func, x0: np.ndarray, lb: np.ndarray, ub: np.ndarray, maxfev: int) -> None:
    """Minimize ``func`` from ``x0`` with Nelder-Mead clipped to [lb, ub].

    The steps, the clipping, the sorts and the stop on ``maxfev`` evaluations
    or on ``LOCAL_TOL`` in x and f are those of SciPy's non-adaptive
    ``minimize(method="Nelder-Mead", bounds=...)``, float operation for float
    operation, so the same points are evaluated in the same order. ``x0``
    must lie in the box; the caller reads the result from ``func``.
    """
    n = len(x0)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return func(x)

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # each vertex moves one coordinate by 5%, or to 0.00025 from 0; a vertex
    # past ub is reflected inside rather than clipped onto its neighbours
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > ub, 2 * ub - sim, sim), lb, ub)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = by_value(sim, fsim)
    sim, fsim = by_value(sim, fsim)

    while calls < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= LOCAL_TOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= LOCAL_TOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip(2 * xbar - sim[-1], lb, ub)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], lb, ub)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lb, ub)
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # contract inside
                    xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lb, ub)
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lb, ub)
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)


def _presearch(layout: _CostFunction, fn: _Evaluations) -> np.ndarray:
    """Coarse deterministic grid of repeated layers to seed the first local
    search: the first lowest cost in (beta, gamma, gamma') order wins."""
    hint = gamma_scale_hint(layout.scheme)
    betas = np.concatenate([[0.1, 0.2], np.linspace(0.0, math.pi, 9)[1:-1]])
    gammas = np.concatenate([[0.0], hint * np.array([-2, -1, -0.5, -0.25, 0.25, 0.5, 1, 2])])
    biases = [0.0] if layout.width == 2 else [-0.8, -0.4, 0.0, 0.4, 0.8]
    for beta, gamma, bias in itertools.product(betas, gammas, biases):
        fn(layout.pack([LayerParams(beta, gamma, bias)] * layout.p))
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
    layout = _CostFunction(scheme, p, config)
    fn = _Evaluations(instance, scheme, layout.unpack)

    if config.initial is not None:
        x_raw = layout.pack(list(config.initial))
        fn(x_raw)  # pin the warm-start cost so the result can never be worse
        x0 = layout.wrap(x_raw)
    else:
        x0 = _presearch(layout, fn)

    rng = stream(config.seed, "hops")
    if config.max_local_evals > 1:
        _nelder_mead(fn, x0, *layout.box, config.max_local_evals)
    history = [fn.best_cost]
    scales = layout.hop_scales()
    for _ in range(config.n_hops):
        candidate = layout.wrap(fn.best_x + scales * rng.standard_normal(layout.n_params))
        before = fn.best_cost
        _nelder_mead(fn, candidate, *layout.box, config.max_local_evals)
        if fn.best_cost < before:
            history.append(fn.best_cost)

    return OptimResult(
        best_params=tuple(layout.unpack(fn.best_x)),
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

    costs = appended_layer_grid(run_ansatz(instance, scheme, list(prev)), betas, gammas, biases)
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


def optimize_gamma_scale(
    instance: SKInstance,
    scheme: EncodingScheme,
    donor_params: tuple[LayerParams, ...] | list[LayerParams],
) -> float:
    """Best common multiplier theta for the donor gamma values.

    Beta and gamma' stay at the donor values; every layer's gamma is scaled
    by the same theta. A geometric scan covers positive rescalings over
    three decades (the size-transfer law is a positive rescaling). A
    one-dimensional Nelder-Mead, with the search's own budget and tolerance,
    refines the scan winner between its two scan neighbours; a theta that
    the scan or the refinement has already run is not run again. The result
    is the lowest-cost theta evaluated; the first one found wins a tie.
    """
    scan = np.geomspace(0.02, 50.0, 81)
    fn = _Evaluations(instance, scheme, lambda x: [
        LayerParams(lp.beta, x[0] * lp.gamma, lp.gamma_bias) for lp in donor_params])
    k = int(np.argmin([fn(theta) for theta in scan[:, None]]))
    bracket = scan[[max(0, k - 1)]], scan[[min(len(scan) - 1, k + 1)]]
    _nelder_mead(fn, scan[[k]], *bracket, OptimizerConfig().max_local_evals)
    return float(fn.best_x[0])


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    prefactor: float
    residuals: np.ndarray


def fit_gamma_scaling(points: list[tuple[int, int, float]]) -> ScalingFit:
    """Least-squares fit of log|theta| against log(d / N^(3/2)).

    ``points`` holds (N, d, theta_opt) records; the expected exponent is 1.
    Two points already fit, with no residual to judge the fit by.
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
    )
