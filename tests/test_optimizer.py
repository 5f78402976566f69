import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as sciopt

from qeopt import optimizer
from qeopt.ansatz import LayerParams, run_ansatz
from qeopt.encoding import make_scheme
from qeopt.optimizer import (
    OptimizerConfig,
    concentration_experiment,
    fit_gamma_scaling,
    gamma_scale_hint,
    optimize,
    optimize_gamma_scale,
    transfer_params,
    warm_start_schedule,
)
from qeopt.problem import generate_sk, ground_truth
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


class TestConcentration:
    def test_single_instance_ensemble(self, n4_instance, n4_scheme):
        params = (LayerParams(3 * math.pi / 8, math.pi / 8, 0.0),)
        ratios = concentration_experiment([n4_instance], n4_scheme, params,
                                          [ground_truth(n4_instance)])
        assert ratios.shape == (1,)
        assert ratios[0] == pytest.approx(0.5, abs=1e-9)

    def test_ensemble_ratio_statistics(self):
        scheme = make_scheme(16, 4)
        instances = [generate_sk(16, "pm1", seed=s) for s in range(4)]
        params = (LayerParams(0.4, 0.1, 0.3), LayerParams(0.3, 0.05, -0.1))
        records = [ground_truth(inst, seed=s) for s, inst in enumerate(instances)]
        ratios = concentration_experiment(instances, scheme, params, records)
        assert ratios.shape == (4,)
        assert (ratios <= 1.0 + 1e-9).all()
        assert ratios.std() > 0

    def test_size_mismatch_rejected(self, n4_instance):
        scheme = make_scheme(8, 2)
        params = (LayerParams(0, 0, 0),)
        record = ground_truth(n4_instance)
        with pytest.raises(ValueError, match="scheme size"):
            concentration_experiment([n4_instance], scheme, params, [record])
        with pytest.raises(ValueError, match="one-to-one"):
            concentration_experiment([n4_instance] * 2, scheme, params, [record])


class TestGammaScaling:
    def test_synthetic_exact_fit(self):
        points = [(n, d, 3.7 * d / n**1.5) for n in (16, 32, 64) for d in (2, 4)]
        fit = fit_gamma_scaling(points)
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.7, rel=1e-12)
        assert not fit.low_confidence
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_two_points_flagged_low_confidence(self):
        fit = fit_gamma_scaling([(16, 2, 1.0), (64, 2, 0.125)])
        assert fit.low_confidence

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
            new = optimizer._CostFunction(inst, scheme, p, config)
            old = _StrideCostFunction(inst, scheme, p, config)
            assert new.n_params == old.n_params
            layers = [LayerParams(*v) for v in rng.uniform(-4, 4, (p, 3))]
            assert np.array_equal(new.pack(layers), old.pack(layers))
            x = rng.uniform(-20, 20, old.n_params)
            x[::2] = np.round(x[::2])  # hit the wrap boundaries too
            assert np.array_equal(as_array(new.unpack(x)), as_array(old.unpack(x)))
            assert np.array_equal(new.wrap(x), old.wrap(x))
            assert new.bounds_list() == old.bounds_list()
            assert np.array_equal(new.hop_scales(), old.hop_scales())

    @pytest.mark.parametrize("frozen", [False, True], ids=["free-bias", "frozen-bias"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_grid_searches(self, n4_instance, n4_scheme, p, frozen):
        config = OptimizerConfig(freeze_gamma_bias=frozen)
        new = optimizer._CostFunction(n4_instance, n4_scheme, p, config)
        old = _StrideCostFunction(n4_instance, n4_scheme, p, config)
        assert np.array_equal(optimizer._presearch(new), _stride_presearch(old))
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
