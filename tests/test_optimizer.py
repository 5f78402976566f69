import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize as sciopt

from qeopt import optimizer
from qeopt.ansatz import LayerParams, run_ansatz
from qeopt.encoding import make_scheme
from qeopt.optimizer import (
    OptimizerConfig,
    fit_gamma_scaling,
    gamma_scale_hint,
    optimize,
    optimize_gamma_scale,
    transfer_params,
    warm_start_schedule,
)
from qeopt.problem import generate_sk
from qeopt.rng import stream


class TestOptimize:
    def test_fixture_p1_frozen_bias_finds_landscape_optimum(self, n4_instance, n4_scheme):
        config = OptimizerConfig(freeze_gamma_bias=True, n_hops=5, seed=1)
        result = optimize(n4_instance, n4_scheme, 1, config)
        assert result.best_cost == pytest.approx(-2.0, abs=1e-6)

    def test_zero_budget_returns_initial_guess_cost(self, n4_instance, n4_scheme):
        initial = (LayerParams(0.4, 0.1, 0.0),)
        config = OptimizerConfig(n_hops=0, max_local_evals=1, initial=initial, seed=0)
        result = optimize(n4_instance, n4_scheme, 1, config)
        from qeopt.ansatz import run_ansatz

        direct = run_ansatz(n4_instance, n4_scheme, list(initial)).final_cost
        assert result.best_cost == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_never_worse_than_initial(self, n4_instance, n4_scheme, seed):
        rng = np.random.default_rng(seed)
        initial = (LayerParams(*rng.uniform(-1, 1, 3)),)
        config = OptimizerConfig(n_hops=2, max_local_evals=40, initial=initial, seed=seed)
        result = optimize(n4_instance, n4_scheme, 1, config)
        from qeopt.ansatz import run_ansatz

        assert result.best_cost <= run_ansatz(n4_instance, n4_scheme, list(initial)).final_cost + 1e-12

    def test_deterministic(self, n4_instance, n4_scheme):
        config = OptimizerConfig(n_hops=3, max_local_evals=60, seed=7)
        a = optimize(n4_instance, n4_scheme, 1, config)
        b = optimize(n4_instance, n4_scheme, 1, config)
        assert a.best_cost == b.best_cost
        assert a.best_params == b.best_params
        assert a.eval_count == b.eval_count

    def test_history_is_monotone(self, n4_instance, n4_scheme):
        config = OptimizerConfig(n_hops=6, max_local_evals=80, seed=3)
        result = optimize(n4_instance, n4_scheme, 2, config)
        history = np.array(result.history)
        assert (np.diff(history) <= 1e-12).all()
        assert result.best_cost == history[-1]

    def test_warm_start_monotone_in_p(self, n4_instance, n4_scheme):
        sched = warm_start_schedule(
            n4_instance, n4_scheme, 3, OptimizerConfig(n_hops=4, seed=5)
        )
        costs = [sched[p].best_cost for p in (1, 2, 3)]
        assert costs[1] <= costs[0] + 1e-9
        assert costs[2] <= costs[1] + 1e-9

    def test_schedule_solves_no_ground_truth(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the optimizer must not solve for C*")

        monkeypatch.setattr("qeopt.problem.ground_truth", refuse)
        inst = generate_sk(32, "pm1", seed=3)
        sched = warm_start_schedule(inst, make_scheme(32, 4), 2,
                                    OptimizerConfig(n_hops=1, max_local_evals=20, seed=1))
        assert sorted(sched) == [1, 2]
        assert not hasattr(optimizer, "ground_truth")

    @pytest.mark.parametrize("shape, inst_seed, p, config", [
        ((16, 4), 2, 2, OptimizerConfig(n_hops=1, max_local_evals=40, seed=3)),
        ((16, 4), 2, 2, OptimizerConfig(n_hops=1, max_local_evals=40, freeze_gamma_bias=True,
                                        seed=3)),
        # Nelder-Mead revisits a point that is not the incumbent
        ((8, 2), 0, 1, OptimizerConfig(n_hops=2, max_local_evals=60, seed=0)),
    ], ids=["free", "frozen", "8x2-revisit"])
    def test_cold_search_runs_no_point_twice(self, monkeypatch, shape, inst_seed, p, config):
        # a point asked for again (the first Nelder-Mead vertex is the
        # presearch winner) is served from its cost but still counted, as
        # SciPy's nfev counts it
        scheme = make_scheme(*shape)
        inst = generate_sk(shape[0], "pm1", seed=inst_seed)
        runs, asked = [], []

        def counted(instance, scheme, params, **kwargs):
            runs.append(tuple(params))
            return run_ansatz(instance, scheme, params, **kwargs)

        def recorded(fn, x, call=optimizer._Evaluations.__call__):
            asked.append(tuple(x))
            return call(fn, x)

        monkeypatch.setattr(optimizer, "run_ansatz", counted)
        monkeypatch.setattr(optimizer._Evaluations, "__call__", recorded)
        result = optimize(inst, scheme, p, config)
        evaluated = [params for params in runs if params]
        assert len(set(evaluated)) == len(evaluated) == len(set(asked))
        served_again = len(asked) - len(set(asked))
        assert served_again >= 1
        assert result.eval_count == len(evaluated) + served_again


class TestTransfer:
    def test_doubling_n_divides_gamma_by_two_sqrt_two(self):
        params = (LayerParams(0.5, 0.08, 0.1),)
        out = transfer_params(params, (64, 4), (128, 4))
        assert out[0].gamma == pytest.approx(0.08 / 2**1.5)
        assert out[0].beta == 0.5
        assert out[0].gamma_bias == 0.1

    def test_identity_transfer(self):
        params = (LayerParams(0.5, 0.08, 0.1), LayerParams(0.2, -0.01, 0.0))
        assert transfer_params(params, (64, 4), (64, 4)) == params

    def test_quadrupling_n_doubling_d(self):
        params = (LayerParams(0.5, 0.08, 0.1),)
        out = transfer_params(params, (64, 4), (256, 8))
        assert out[0].gamma == pytest.approx(0.08 * 2 * (1 / 4) ** 1.5)  # = 0.08 / 4

    @settings(max_examples=20)
    @given(st.floats(-1, 1), st.sampled_from([(16, 2), (64, 4), (128, 4), (256, 8)]),
           st.sampled_from([(16, 2), (64, 4), (128, 4), (256, 8)]))
    def test_invertible(self, gamma, shape_a, shape_b):
        params = (LayerParams(0.3, gamma, -0.2),)
        back = transfer_params(transfer_params(params, shape_a, shape_b), shape_b, shape_a)
        assert back[0].gamma == pytest.approx(gamma, abs=1e-12)


class TestGammaScaling:
    def test_synthetic_exact_fit(self):
        points = [(n, d, 3.7 * d / n**1.5) for n in (16, 32, 64) for d in (2, 4)]
        fit = fit_gamma_scaling(points)
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.7, rel=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_two_points_still_fit(self):
        fit = fit_gamma_scaling([(16, 2, 1.0), (64, 2, 0.125)])
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_gamma_scaling([(16, 2, 1.0), (16, 2, 1.1)])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_gamma_scaling([(16, 2, 1.0)])

    def test_optimize_gamma_scale_recovers_unit_ratio(self, n4_instance, n4_scheme):
        # donor = the instance itself: theta = 1 must be (near) optimal
        donor = (LayerParams(3 * math.pi / 8, math.pi / 8, 0.0),)
        theta = optimize_gamma_scale(n4_instance, n4_scheme, donor)
        assert theta == pytest.approx(1.0, abs=0.05)

    def test_scale_hint_decreases_with_n(self):
        assert gamma_scale_hint(make_scheme(64, 4)) < gamma_scale_hint(make_scheme(16, 4))


class TestConfigValidation:
    def test_bad_budgets(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n_hops=-1)
        with pytest.raises(ValueError):
            OptimizerConfig(max_local_evals=0)

    def test_initial_length_checked(self, n4_instance, n4_scheme):
        config = OptimizerConfig(initial=(LayerParams(0, 0, 0),))
        with pytest.raises(ValueError, match="layers"):
            optimize(n4_instance, n4_scheme, 2, config)


class TestNelderMeadBox:
    """Every Nelder-Mead start already lies in the closed box, so none is clipped."""

    # at N = d = 4 the hint is capped at pi/2, so the presearch grid reaches
    # gamma = +-pi, and this instance's presearch picks gamma = -pi
    @pytest.mark.parametrize("frozen", [False, True], ids=["free-bias", "frozen-bias"])
    @pytest.mark.parametrize("n, d, kind, seed", [(4, 4, "gaussian", 28), (4, 2, "pm1", 6),
                                                  (16, 4, "pm1", 20)], ids=["4x4", "4x2", "16x4"])
    def test_every_start_lies_in_the_box(self, monkeypatch, n, d, kind, seed, frozen):
        scheme = make_scheme(n, d)
        inst = generate_sk(n, kind, seed=seed)
        starts = []
        nelder_mead = optimizer._nelder_mead

        def recording_nelder_mead(func, x0, lb, ub, maxfev):
            starts.append((x0.copy(), lb.copy(), ub.copy()))
            nelder_mead(func, x0, lb, ub, maxfev)

        monkeypatch.setattr(optimizer, "_nelder_mead", recording_nelder_mead)
        config = OptimizerConfig(n_hops=3, max_local_evals=30, freeze_gamma_bias=frozen, seed=n)
        for p in (1, 2):
            optimize(inst, scheme, p, config)
        warm_start_schedule(inst, scheme, 3, config)
        assert len(starts) == (2 + 3) * (1 + config.n_hops)
        for x0, lb, ub in starts:
            assert np.all(lb <= x0) and np.all(x0 <= ub), (x0, lb, ub)
        if n == d:
            assert gamma_scale_hint(scheme) == math.pi / 2
            assert starts[0][0][1] == starts[0][1][1] == -math.pi

    @settings(max_examples=200)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6),
           st.booleans())
    @example([-1e-300, np.nextafter(-math.pi, -4.0)] * 3, False)
    def test_wrap_lands_in_the_box(self, values, frozen):
        # a value a hair below a lower bound wraps onto the upper bound, which
        # is still in the closed box that Nelder-Mead is given
        config = OptimizerConfig(freeze_gamma_bias=frozen)
        layout = optimizer._CostFunction(make_scheme(4, 2), 2, config)
        x = layout.wrap(np.array(values[: layout.n_params]))
        lb, ub = layout.box
        assert np.all(lb <= x) and np.all(x <= ub)


def recorder(func):
    """``func`` and the list of copies of the points it is called at."""
    points = []

    def recording(x):
        points.append(np.copy(x))
        return func(x)

    return recording, points


def bowl(x):
    return float(np.sum((np.arange(1, len(x) + 1) * (x - 0.4)) ** 2) + x[0] * x[-1])


def rosenbrock(x):
    return float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


class TestLockStepWithSciPy:
    """The in-repo search evaluates SciPy's points, in SciPy's order, bit for bit."""

    @pytest.mark.parametrize("func, x0, lb, ub, maxfev", [
        (bowl, [1.0, -0.5, 2.0], [0.0, -math.pi, -math.pi], [math.pi, math.pi, math.pi], 2000),
        (bowl, [0.97 * math.pi, 1.0], [0.0, -math.pi], [math.pi, math.pi], 2000),
        (bowl, [0.0, 0.5, 0.0, -1.0], [0.0] + [-math.pi] * 3, [math.pi] * 4, 2000),
        (bowl, [0.3, 0.2, 0.1, -0.1], [0.0] + [-math.pi] * 3, [math.pi] * 4, 3),
        (lambda x: 1.5, [0.3, 0.2, -0.1], [0.0] + [-math.pi] * 2, [math.pi] * 3, 12),
        (lambda x: math.floor(8 * bowl(x)) / 8, [1.0, -0.5, 2.0], [0.0, -math.pi, -math.pi],
         [math.pi] * 3, 2000),
        (rosenbrock, [-1.2, 1.0, 0.5], [-math.pi] * 3, [math.pi] * 3, 2000),
        (lambda x: math.cos(2.0 * x[0]), [1.65], [1.35], [1.65], 200),
        (lambda x: (x[0] - 0.97) ** 2 * (1.0 + x[0]), [1.0], [0.9], [1.1], 200),
    ], ids=["converges", "reflected-start", "zero-coordinates", "budget-below-simplex",
            "constant-ends-in-shrink", "terraced-ties", "rosenbrock", "1d-start-on-ub",
            "1d-inside"])
    def test_nelder_mead(self, func, x0, lb, ub, maxfev):
        x0, lb, ub = np.array(x0), np.array(lb), np.array(ub)
        ours, our_points = recorder(func)
        optimizer._nelder_mead(ours, x0, lb, ub, maxfev)
        theirs, their_points = recorder(func)
        sciopt.minimize(theirs, x0, method="Nelder-Mead", bounds=sciopt.Bounds(lb, ub),
                        options={"maxfev": maxfev, "xatol": optimizer.LOCAL_TOL,
                                 "fatol": optimizer.LOCAL_TOL})
        assert len(our_points) == len(their_points) <= maxfev
        assert all(np.array_equal(a, b) for a, b in zip(our_points, their_points))
        if maxfev >= 200:  # stopped on tolerance, not on the budget
            assert len(our_points) < maxfev


# criterion 11's donor (the N=64, d=4, p=3 schedule), rounded to five significant digits
CRITERION_11_DONOR = (LayerParams(1.7719, 0.00073865, 2.4483),
                      LayerParams(2.9579, -0.0052862, 1.2025),
                      LayerParams(0.13166, 0.0077494, -0.43318))


def _scaled_donor_cost(instance, scheme, donor, theta):
    scaled = [LayerParams(lp.beta, theta * lp.gamma, lp.gamma_bias) for lp in donor]
    return run_ansatz(instance, scheme, scaled).final_cost


def _scan_then_bounded_brent(instance, scheme, donor):
    """The gamma-scale search that the Nelder-Mead refinement replaced: the
    same scan, then SciPy's bounded Brent on the same bracket; ties go to Brent."""
    cost_at = partial(_scaled_donor_cost, instance, scheme, donor)
    scan = np.geomspace(0.02, 50.0, 81)
    values = np.array([cost_at(t) for t in scan])
    k = int(np.argmin(values))
    res = sciopt.minimize_scalar(cost_at, bounds=(scan[max(0, k - 1)], scan[min(80, k + 1)]),
                                 method="bounded", options={"xatol": 1e-6})
    return float(res.x) if res.fun <= values[k] else float(scan[k])


class TestGammaScaleAgreement:
    """The Nelder-Mead refinement lands where the bounded Brent search did."""

    @pytest.mark.parametrize("shape", [(n, d) for n in (16, 32, 64) for d in (2, 4)],
                             ids=lambda s: "%dx%d" % s)
    def test_matches_scan_then_bounded_brent(self, shape):
        n, d = shape
        scheme = make_scheme(n, d)
        inst = generate_sk(n, "pm1", seed=400 + 31 * n + 7 * d)
        theta = optimize_gamma_scale(inst, scheme, CRITERION_11_DONOR)
        theta_ref = _scan_then_bounded_brent(inst, scheme, CRITERION_11_DONOR)
        cost = partial(_scaled_donor_cost, inst, scheme, CRITERION_11_DONOR)
        # 10x both searches' x tolerance; the cost is second order at a smooth minimum
        assert abs(theta - theta_ref) <= 1e-5
        assert cost(theta) <= cost(theta_ref) + 1e-9 * abs(cost(theta_ref))

    def test_no_theta_runs_twice(self, monkeypatch):
        # the refinement's first vertex is the scan winner, a vertex clipped onto
        # a bracket end is a scan point, and Nelder-Mead can revisit a point
        scheme = make_scheme(16, 4)
        inst = generate_sk(16, "pm1", seed=400 + 31 * 16 + 7 * 4)
        runs = []

        def counted(instance, scheme, params, **kwargs):
            runs.append(tuple(params))
            return run_ansatz(instance, scheme, params, **kwargs)

        monkeypatch.setattr(optimizer, "run_ansatz", counted)
        optimize_gamma_scale(inst, scheme, CRITERION_11_DONOR)
        scaled = [params for params in runs if params]
        assert len(scaled) > 81
        assert len(set(scaled)) == len(scaled)


# ---------------------------------------------------------------------------
# Reference copy of the stride-based parameter layout, grid loops and search
# loop that the (p, 3) layout replaced, with the box, tolerance and hop scale
# spelled out as they were.
class _StrideCostFunction:
    def __init__(self, instance, scheme, p, config):
        self.instance, self.scheme, self.p, self.config = instance, scheme, p, config
        self.eval_count = 0
        self.best_x = None
        self.best_cost = math.inf
        self.frozen_bias = config.freeze_gamma_bias
        self.n_params = (2 if self.frozen_bias else 3) * p
        self.bias_values = np.zeros(p)
        if config.initial is not None:
            self.bias_values = np.array([lp.gamma_bias for lp in config.initial])

    def pack(self, params):
        if self.frozen_bias:
            return np.array([v for lp in params for v in (lp.beta, lp.gamma)])
        return np.array([v for lp in params for v in (lp.beta, lp.gamma, lp.gamma_bias)])

    def unpack(self, x):
        if self.frozen_bias:
            return [LayerParams(x[2 * k], x[2 * k + 1], self.bias_values[k]) for k in range(self.p)]
        return [LayerParams(x[3 * k], x[3 * k + 1], x[3 * k + 2]) for k in range(self.p)]

    def wrap(self, x):
        x = np.array(x, dtype=np.float64)
        stride = 2 if self.frozen_bias else 3
        x[0::stride] = np.mod(x[0::stride], math.pi)
        for off in range(1, stride):
            x[off::stride] = np.mod(x[off::stride] + math.pi, 2 * math.pi) - math.pi
        return x

    def bounds_list(self):
        per_layer = [(0.0, math.pi), (-math.pi, math.pi)]
        if not self.frozen_bias:
            per_layer.append((-math.pi, math.pi))
        return per_layer * self.p

    def hop_scales(self):
        hop_scale = 1.0
        angle = 0.3 * hop_scale
        gamma = hop_scale * max(0.5 * gamma_scale_hint(self.scheme), 1e-3)
        per_layer = [angle, gamma] if self.frozen_bias else [angle, gamma, angle]
        return np.array(per_layer * self.p)

    def __call__(self, x):
        self.eval_count += 1
        cost = run_ansatz(self.instance, self.scheme, self.unpack(np.asarray(x)), mode="exact").final_cost
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_x = np.array(x, dtype=np.float64)
        return cost


def _stride_presearch(fn):
    hint = gamma_scale_hint(fn.scheme)
    betas = np.concatenate([[0.1, 0.2], np.linspace(0.0, math.pi, 9)[1:-1]])
    gammas = np.concatenate([[0.0], hint * np.array([-2, -1, -0.5, -0.25, 0.25, 0.5, 1, 2])])
    biases = [0.0] if fn.frozen_bias else [-0.8, -0.4, 0.0, 0.4, 0.8]
    best_x, best_cost = None, math.inf
    for beta in betas:
        for gamma in gammas:
            for bias in biases:
                x = fn.pack([LayerParams(beta, gamma, bias)] * fn.p)
                cost = fn(x)
                if cost < best_cost:
                    best_cost, best_x = cost, x
    return best_x


def _loop_appended_layer(instance, scheme, prev, config):
    hint = gamma_scale_hint(scheme)
    betas = np.concatenate([[0.0, 0.1, 0.2], np.linspace(0.0, math.pi, 9)[1:-1]])
    gammas = np.concatenate([[0.0], hint * np.array([-2, -1, -0.5, 0.5, 1, 2])])
    biases = [0.0] if config.freeze_gamma_bias else [-0.4, 0.0, 0.4]
    best_layer, best_cost = LayerParams(0.0, 0.0, 0.0), math.inf
    for beta in betas:
        for gamma in gammas:
            for bias in biases:
                layer = LayerParams(beta, gamma, bias)
                cost = run_ansatz(instance, scheme, list(prev) + [layer], mode="exact").final_cost
                if cost < best_cost:
                    best_cost, best_layer = cost, layer
    return best_layer


def _stride_optimize(instance, scheme, p, config):
    fn = _StrideCostFunction(instance, scheme, p, config)
    if config.initial is not None:
        x_raw = fn.pack(list(config.initial))
        fn(x_raw)
        x0 = fn.wrap(x_raw)
    else:
        x0 = _stride_presearch(fn)

    def refine(x):
        bounds = fn.bounds_list()
        x = np.clip(x, [lo for lo, _ in bounds], [hi for _, hi in bounds])
        sciopt.minimize(fn, x, method="Nelder-Mead", bounds=bounds,
                        options={"maxfev": config.max_local_evals, "fatol": 1e-6, "xatol": 1e-6})

    rng = stream(config.seed, "hops")
    history = []
    if config.max_local_evals > 1:
        refine(x0)
    history.append(fn.best_cost)
    scales = fn.hop_scales()
    for _ in range(config.n_hops):
        candidate = fn.wrap(fn.best_x + scales * rng.standard_normal(fn.n_params))
        before = fn.best_cost
        refine(candidate)
        if fn.best_cost < before:
            history.append(fn.best_cost)
    return tuple(fn.unpack(fn.best_x)), fn.best_cost, fn.eval_count, tuple(history)


def _stride_warm_start(instance, scheme, p_max, config):
    results = {}
    for p in range(1, p_max + 1):
        if p > 1:
            prev = results[p - 1][0]
            config = replace(config, initial=prev + (_loop_appended_layer(instance, scheme, prev, config),))
        results[p] = _stride_optimize(instance, scheme, p, config)
    return results


def as_array(layers):
    return np.array([(lp.beta, lp.gamma, lp.gamma_bias) for lp in layers])


def assert_same_result(new, old):
    params, cost, evals, history = old
    assert np.array_equal(as_array(new.best_params), as_array(params))
    assert new.best_cost == cost
    assert new.eval_count == evals
    assert np.array_equal(new.history, history)


class TestAgreementWithStrideLayout:
    @pytest.mark.parametrize("frozen", [False, True], ids=["free-bias", "frozen-bias"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_layout_helpers(self, p, frozen):
        scheme = make_scheme(16, 4)
        inst = generate_sk(16, "pm1", seed=2)
        rng = np.random.default_rng(10 * p + frozen)
        initial = tuple(LayerParams(*v) for v in rng.uniform(-1, 1, (p, 3)))
        for config in (OptimizerConfig(freeze_gamma_bias=frozen),
                       OptimizerConfig(freeze_gamma_bias=frozen, initial=initial)):
            new = optimizer._CostFunction(scheme, p, config)
            old = _StrideCostFunction(inst, scheme, p, config)
            assert new.n_params == old.n_params
            layers = [LayerParams(*v) for v in rng.uniform(-4, 4, (p, 3))]
            assert np.array_equal(new.pack(layers), old.pack(layers))
            x = rng.uniform(-20, 20, old.n_params)
            x[::2] = np.round(x[::2])  # hit the wrap boundaries too
            assert np.array_equal(as_array(new.unpack(x)), as_array(old.unpack(x)))
            assert np.array_equal(new.wrap(x), old.wrap(x))
            assert list(zip(*new.box)) == old.bounds_list()
            assert np.array_equal(new.hop_scales(), old.hop_scales())

    @pytest.mark.parametrize("frozen", [False, True], ids=["free-bias", "frozen-bias"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_grid_searches(self, n4_instance, n4_scheme, p, frozen):
        config = OptimizerConfig(freeze_gamma_bias=frozen)
        layout = optimizer._CostFunction(n4_scheme, p, config)
        new = optimizer._Evaluations(n4_instance, n4_scheme, layout.unpack)
        old = _StrideCostFunction(n4_instance, n4_scheme, p, config)
        assert np.array_equal(optimizer._presearch(layout, new), _stride_presearch(old))
        assert (new.eval_count, new.best_cost) == (old.eval_count, old.best_cost)
        assert np.array_equal(new.best_x, old.best_x)
        prev = tuple(LayerParams(0.3 * k, 0.2, -0.1 * k) for k in range(1, p))
        assert (optimizer._best_appended_layer(n4_instance, n4_scheme, prev, config)
                == _loop_appended_layer(n4_instance, n4_scheme, prev, config))

    @pytest.mark.parametrize("frozen", [False, True], ids=["free-bias", "frozen-bias"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_optimize(self, n4_instance, n4_scheme, p, frozen):
        config = OptimizerConfig(n_hops=3, max_local_evals=40, freeze_gamma_bias=frozen, seed=p)
        assert_same_result(optimize(n4_instance, n4_scheme, p, config),
                           _stride_optimize(n4_instance, n4_scheme, p, config))

    @pytest.mark.parametrize("frozen", [False, True], ids=["free-bias", "frozen-bias"])
    def test_warm_start_schedule(self, frozen):
        scheme = make_scheme(16, 4)
        inst = generate_sk(16, "gaussian", seed=5)
        config = OptimizerConfig(n_hops=2, max_local_evals=40, freeze_gamma_bias=frozen, seed=4)
        new = warm_start_schedule(inst, scheme, 3, config)
        old = _stride_warm_start(inst, scheme, 3, config)
        assert sorted(new) == sorted(old) == [1, 2, 3]
        for p in new:
            assert_same_result(new[p], old[p])


# ---------------------------------------------------------------------------
def _run_from_plus(*args, start=None, **kwargs):
    """run_ansatz with the prefix dropped: every evaluation recomputes from |+>."""
    return run_ansatz(*args, **kwargs)


class TestPrefixAgreement:
    """The prefix-reusing search returns what the full recomputation returns, bit for bit."""

    @pytest.mark.parametrize("frozen", [False, True], ids=["free-bias", "frozen-bias"])
    @pytest.mark.parametrize("shape", [(16, 4), (64, 4)], ids=lambda s: "%dx%d" % s)
    def test_appended_layer_grid(self, shape, frozen):
        n, d = shape
        scheme = make_scheme(n, d)
        inst = generate_sk(n, "gaussian", seed=n + frozen)
        config = OptimizerConfig(freeze_gamma_bias=frozen)
        rng = np.random.default_rng(n)
        for k in (1, 2):
            prev = tuple(LayerParams(*v) for v in rng.uniform(-0.5, 0.5, (k, 3)))
            assert (optimizer._best_appended_layer(inst, scheme, prev, config)
                    == _loop_appended_layer(inst, scheme, prev, config))

    @pytest.mark.parametrize("frozen", [False, True], ids=["free-bias", "frozen-bias"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_optimize(self, monkeypatch, p, frozen):
        scheme = make_scheme(16, 4)
        inst = generate_sk(16, "pm1", seed=p)
        config = OptimizerConfig(n_hops=2, max_local_evals=40, freeze_gamma_bias=frozen, seed=p)
        new = optimize(inst, scheme, p, config)
        monkeypatch.setattr(optimizer, "run_ansatz", _run_from_plus)
        old = optimize(inst, scheme, p, config)
        assert_same_result(new, (old.best_params, old.best_cost, old.eval_count, old.history))

    @pytest.mark.parametrize("frozen", [False, True], ids=["free-bias", "frozen-bias"])
    @pytest.mark.parametrize("shape", [(16, 4), (64, 4)], ids=lambda s: "%dx%d" % s)
    def test_warm_start_schedule(self, monkeypatch, shape, frozen):
        n, d = shape
        scheme = make_scheme(n, d)
        inst = generate_sk(n, "gaussian", seed=n + 1)
        config = OptimizerConfig(n_hops=2, max_local_evals=40, freeze_gamma_bias=frozen, seed=3)
        new = warm_start_schedule(inst, scheme, 3, config)
        monkeypatch.setattr(optimizer, "run_ansatz", _run_from_plus)
        old = warm_start_schedule(inst, scheme, 3, config)
        assert sorted(new) == sorted(old) == [1, 2, 3]
        for p in new:
            assert_same_result(new[p], (old[p].best_params, old[p].best_cost,
                                        old[p].eval_count, old[p].history))

    @pytest.mark.parametrize("shape", [(4, 2), (16, 4), (64, 4)], ids=lambda s: "%dx%d" % s)
    def test_optimize_gamma_scale(self, monkeypatch, shape):
        n, d = shape
        scheme = make_scheme(n, d)
        inst = generate_sk(n, "pm1", seed=n)
        donor = (LayerParams(0.4, 0.1, 0.05), LayerParams(0.3, -0.2, 0.0))
        new = optimize_gamma_scale(inst, scheme, donor)
        monkeypatch.setattr(optimizer, "run_ansatz", _run_from_plus)
        assert new == optimize_gamma_scale(inst, scheme, donor)
