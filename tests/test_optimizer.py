import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeopt.ansatz import LayerParams
from qeopt.encoding import make_scheme
from qeopt.optimizer import (
    ConcentrationResult,
    OptimizerConfig,
    concentration_experiment,
    fit_gamma_scaling,
    gamma_scale_hint,
    optimize,
    optimize_gamma_scale,
    transfer_params,
    warm_start_schedule,
)
from qeopt.problem import generate_sk


class TestOptimize:
    def test_fixture_p1_frozen_bias_finds_landscape_optimum(self, n4_instance, n4_scheme):
        config = OptimizerConfig(freeze_gamma_bias=True, n_hops=5, seed=1)
        result = optimize(n4_instance, n4_scheme, 1, config, c_star=-4.0)
        assert result.best_cost == pytest.approx(-2.0, abs=1e-6)
        assert result.ratio == pytest.approx(0.5, abs=1e-6)

    def test_zero_budget_returns_initial_guess_cost(self, n4_instance, n4_scheme):
        initial = (LayerParams(0.4, 0.1, 0.0),)
        config = OptimizerConfig(n_hops=0, max_local_evals=1, initial=initial, seed=0)
        result = optimize(n4_instance, n4_scheme, 1, config, c_star=-4.0)
        from qeopt.ansatz import run_ansatz

        direct = run_ansatz(n4_instance, n4_scheme, list(initial)).final_cost
        assert result.best_cost == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_never_worse_than_initial(self, n4_instance, n4_scheme, seed):
        rng = np.random.default_rng(seed)
        initial = (LayerParams(*rng.uniform(-1, 1, 3)),)
        config = OptimizerConfig(n_hops=2, max_local_evals=40, initial=initial, seed=seed)
        result = optimize(n4_instance, n4_scheme, 1, config, c_star=-4.0)
        from qeopt.ansatz import run_ansatz

        assert result.best_cost <= run_ansatz(n4_instance, n4_scheme, list(initial)).final_cost + 1e-12

    def test_deterministic(self, n4_instance, n4_scheme):
        config = OptimizerConfig(n_hops=3, max_local_evals=60, seed=7)
        a = optimize(n4_instance, n4_scheme, 1, config, c_star=-4.0)
        b = optimize(n4_instance, n4_scheme, 1, config, c_star=-4.0)
        assert a.best_cost == b.best_cost
        assert a.best_params == b.best_params
        assert a.eval_count == b.eval_count

    def test_history_is_monotone(self, n4_instance, n4_scheme):
        config = OptimizerConfig(n_hops=6, max_local_evals=80, seed=3)
        result = optimize(n4_instance, n4_scheme, 2, config, c_star=-4.0)
        history = np.array(result.history)
        assert (np.diff(history) <= 1e-12).all()
        assert result.best_cost == history[-1]

    def test_warm_start_monotone_in_p(self, n4_instance, n4_scheme):
        sched = warm_start_schedule(
            n4_instance, n4_scheme, 3, OptimizerConfig(n_hops=4, seed=5), c_star=-4.0
        )
        costs = [sched[p].best_cost for p in (1, 2, 3)]
        assert costs[1] <= costs[0] + 1e-9
        assert costs[2] <= costs[1] + 1e-9


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
        result = concentration_experiment([n4_instance], n4_scheme, params)
        assert isinstance(result, ConcentrationResult)
        assert result.ratios.shape == (1,)
        assert result.mean == pytest.approx(0.5, abs=1e-9)
        assert result.stderr == 0.0
        assert result.c_star_methods == ("brute_force",)

    def test_ensemble_ratio_statistics(self):
        scheme = make_scheme(16, 4)
        instances = [generate_sk(16, "pm1", seed=s) for s in range(4)]
        params = (LayerParams(0.4, 0.1, 0.3), LayerParams(0.3, 0.05, -0.1))
        result = concentration_experiment(instances, scheme, params)
        assert result.ratios.shape == (4,)
        assert (result.ratios <= 1.0 + 1e-9).all()
        assert result.stderr > 0

    def test_size_mismatch_rejected(self, n4_instance):
        scheme = make_scheme(8, 2)
        with pytest.raises(ValueError):
            concentration_experiment([n4_instance], scheme, (LayerParams(0, 0, 0),))


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
            OptimizerConfig(local_tol=0.0)

    def test_initial_length_checked(self, n4_instance, n4_scheme):
        config = OptimizerConfig(initial=(LayerParams(0, 0, 0),))
        with pytest.raises(ValueError, match="layers"):
            optimize(n4_instance, n4_scheme, 2, config, c_star=-4.0)
