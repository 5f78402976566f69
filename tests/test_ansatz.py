import numpy as np
import pytest
from encoding_oracle import encode_target
from hypothesis import given, settings
from hypothesis import strategies as st

import qeopt.ansatz
from qeopt.ansatz import (
    AnsatzTrace,
    LayerParams,
    appended_layer_grid,
    apply_layer,
    extract_solution,
    landscape,
    run_ansatz,
)
from qeopt.encoding import make_scheme
from qeopt.estimator import (
    build_cost_hamiltonian,
    estimate_cost,
    exact_group_stats,
    shot_group_stats,
)
from qeopt.problem import cost, generate_sk
from qeopt.simulator import Statevector, init_plus


def plain_qaoa_costs(instance, params):
    """Independent oracle: standard one-qubit-per-variable circuit.

    Implemented with einsum tensor contractions (a different mechanism from
    the package simulator) and the classical cost diagonal from enumeration.
    """
    n = instance.n_vars
    diag = np.empty(1 << n)
    for k in range(1 << n):
        z = 1 - 2 * ((k >> np.arange(n - 1, -1, -1)) & 1)
        diag[k] = cost(instance, z)
    psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex).reshape((2,) * n)
    costs = [float(np.sum(diag * np.abs(psi.ravel()) ** 2))]
    for lp in params:
        psi = (np.exp(1j * lp.gamma * diag) * psi.ravel()).reshape((2,) * n)
        rx = np.array(
            [[np.cos(lp.beta), 1j * np.sin(lp.beta)], [1j * np.sin(lp.beta), np.cos(lp.beta)]]
        )  # exp(i beta X)
        for axis in range(n):
            psi = np.moveaxis(np.einsum("ab,b...->a...", rx, np.moveaxis(psi, axis, 0)), 0, axis)
        costs.append(float(np.sum(diag * np.abs(psi.ravel()) ** 2)))
    return costs


class TestLandscapeIdentity:
    def test_matches_closed_form_on_the_fixture(self, n4_instance, n4_scheme):
        betas = np.linspace(0, np.pi, 33)
        gammas = np.linspace(-np.pi, np.pi, 33)
        grid = landscape(n4_instance, n4_scheme, betas, gammas, gamma_bias=0.0)
        reference = 2.0 * np.outer(np.sin(4 * betas), np.sin(4 * gammas))
        assert np.abs(grid - reference).max() < 1e-9

    def test_zero_gamma_column_vanishes(self, n4_instance, n4_scheme):
        grid = landscape(n4_instance, n4_scheme, np.linspace(0, np.pi, 7), np.array([0.0]))
        np.testing.assert_allclose(grid, 0.0, atol=1e-12)

    def test_shot_mode_within_sampling_error(self, n4_instance, n4_scheme):
        betas = np.array([3 * np.pi / 8, 0.7])
        gammas = np.array([np.pi / 8, -0.4])
        exact = landscape(n4_instance, n4_scheme, betas, gammas)
        noisy = landscape(
            n4_instance, n4_scheme, betas, gammas, mode="shots", n_shots=10_000, seed=7
        )
        # binomial error through the cost assembly: ~ N_terms / sqrt(shots)
        assert np.abs(noisy - exact).max() < 5 * 6 / np.sqrt(10_000)

    @pytest.mark.parametrize("mode", ["exact", "shots"])
    def test_rows_from_a_later_seed(self, mode):
        # row r at seed s is row 0 at seed s + r, so row blocks reassemble the grid
        scheme = make_scheme(16, 4)
        instance = generate_sk(16, "gaussian", seed=3)
        betas, gammas = np.linspace(0, np.pi, 5), np.linspace(-1, 1, 3)
        full = landscape(instance, scheme, betas, gammas, gamma_bias=0.1, mode=mode,
                         n_shots=200, seed=11)
        for a in range(1, betas.size):
            rows = landscape(instance, scheme, betas[a:], gammas, gamma_bias=0.1, mode=mode,
                             n_shots=200, seed=11 + a)
            assert np.array_equal(rows, full[a:])

    def test_empty_grid_rejected(self, n4_instance, n4_scheme):
        with pytest.raises(ValueError):
            landscape(n4_instance, n4_scheme, np.array([]), np.array([0.1]))


class TestOptimalPoint:
    def test_final_state_and_statistics(self, n4_instance, n4_scheme):
        trace = run_ansatz(n4_instance, n4_scheme, [LayerParams(3 * np.pi / 8, np.pi / 8)])
        probs = trace.final_state.probabilities()
        np.testing.assert_allclose(probs[[0b001, 0b010, 0b101, 0b110]], 0.25, atol=1e-9)
        assert trace.final_cost == pytest.approx(-2.0, abs=1e-9)
        stats = trace.layer_stats[-1]
        np.testing.assert_allclose(stats.zbar, 0.0, atol=1e-9)
        assert stats.corr_matrix[0, 0] == pytest.approx(-1.0, abs=1e-9)
        assert stats.corr_matrix[1, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_all_zero_parameters_keep_layer0_cost(self, n4_instance, n4_scheme):
        trace = run_ansatz(n4_instance, n4_scheme, [LayerParams(0, 0, 0)] * 2)
        layer0 = estimate_cost(n4_instance, n4_scheme, trace.layer_stats[0]).total
        assert layer0 == pytest.approx(0.0, abs=1e-12)
        assert trace.final_cost == pytest.approx(0.0, abs=1e-12)

    def test_trace_has_p_plus_one_records(self, n4_instance, n4_scheme):
        trace = run_ansatz(n4_instance, n4_scheme, [LayerParams(0.3, 0.1, 0.05)] * 3)
        assert len(trace.layer_stats) == 4

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["exact", "shots"])
    def test_one_cost_assembly_per_run(self, monkeypatch, n4_instance, n4_scheme, mode, p):
        calls = []

        def counted(*args):
            calls.append(args)
            return estimate_cost(*args)

        monkeypatch.setattr(qeopt.ansatz, "estimate_cost", counted)
        trace = run_ansatz(n4_instance, n4_scheme, [LayerParams(0.3, 0.1, 0.05)] * p,
                           mode=mode, n_shots=200, seed=1)
        assert len(calls) == 1
        assert calls[0][2] is trace.layer_stats[-1]


class TestDNReduction:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_plain_qaoa_per_layer(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([4, 6, 8]))
        inst = generate_sk(n, "gaussian", seed=seed)
        scheme = make_scheme(n, n)
        params = [
            LayerParams(float(rng.uniform(0, np.pi)), float(rng.uniform(-0.5, 0.5)), 0.0)
            for _ in range(int(rng.integers(1, 4)))
        ]
        trace = run_ansatz(inst, scheme, params)
        expected = plain_qaoa_costs(inst, params)
        got = [estimate_cost(inst, scheme, stats).total for stats in trace.layer_stats]
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestSymmetry:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000))
    def test_zbar_vanishes_without_bias(self, seed):
        rng = np.random.default_rng(seed)
        inst = generate_sk(8, "pm1", seed=seed)
        scheme = make_scheme(8, 2)
        params = [
            LayerParams(float(rng.uniform(0, np.pi)), float(rng.uniform(-1, 1)), 0.0)
            for _ in range(2)
        ]
        trace = run_ansatz(inst, scheme, params)
        for stats in trace.layer_stats:
            np.testing.assert_allclose(stats.zbar, 0.0, atol=1e-9)

    def test_cost_never_beats_ground_state(self, n4_instance, n4_scheme):
        rng = np.random.default_rng(4)
        for _ in range(20):
            params = [
                LayerParams(
                    float(rng.uniform(0, np.pi)),
                    float(rng.uniform(-1, 1)),
                    float(rng.uniform(-1, 1)),
                )
                for _ in range(2)
            ]
            trace = run_ansatz(n4_instance, n4_scheme, params)
            assert trace.final_cost >= -4.0 - 1e-9


class TestShotMode:
    def test_expected_cost_approaches_exact(self, n4_instance, n4_scheme):
        params = [LayerParams(3 * np.pi / 8, np.pi / 8)]
        exact = run_ansatz(n4_instance, n4_scheme, params).final_cost
        costs = [
            run_ansatz(
                n4_instance, n4_scheme, params, mode="shots", n_shots=10_000, seed=s
            ).final_cost
            for s in range(10)
        ]
        assert abs(np.mean(costs) - exact) < 0.05

    def test_shot_trace_carries_counts_and_per_layer_stats(self, n4_instance, n4_scheme):
        trace = run_ansatz(
            n4_instance, n4_scheme, [LayerParams(0.5, 0.2, 0.1)] * 2, mode="shots",
            n_shots=500, seed=1,
        )
        assert trace.final_state is None
        assert trace.final_counts.shape == (n4_scheme.dim,)
        assert trace.final_counts.sum() == 500
        assert len(trace.layer_stats) == 3
        for stats in trace.layer_stats:  # shot frequencies are multiples of 1/500
            np.testing.assert_allclose(stats.p_label * 500, np.round(stats.p_label * 500), atol=1e-9)

    def test_shot_mode_deterministic(self, n4_instance, n4_scheme):
        runs = [
            run_ansatz(
                n4_instance, n4_scheme, [LayerParams(0.5, 0.2, 0.1)], mode="shots",
                n_shots=400, seed=42,
            ).final_cost
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_needs_shot_count(self, n4_instance, n4_scheme):
        with pytest.raises(ValueError):
            run_ansatz(n4_instance, n4_scheme, [LayerParams(0, 0, 0)], mode="shots")


def reference_exact_run(instance, scheme, params):
    """The per-layer exact loop as it ran before both modes shared one pass."""
    state = init_plus(scheme.n_qubits)
    stats = exact_group_stats(scheme, state)
    layer_stats = [stats]
    layer_costs = [estimate_cost(instance, scheme, stats)]
    for layer in params:
        apply_layer(state, build_cost_hamiltonian(instance, scheme, stats), layer)
        stats = exact_group_stats(scheme, state)
        layer_stats.append(stats)
        layer_costs.append(estimate_cost(instance, scheme, stats))
    return layer_stats, layer_costs, None


def reference_shot_run(instance, scheme, params, n_shots, seed):
    """The hardware protocol: every layer's statistics come from a fresh run
    of the prefix from |+> with the earlier phase separators frozen."""
    frozen, layer_stats, layer_costs, counts = [], [], [], None
    for k in range(len(params) + 1):
        state = init_plus(scheme.n_qubits)
        for j in range(k):
            apply_layer(state, frozen[j], params[j])
        counts = state.sample(n_shots, seed=seed, key=("ansatz-layer", k))
        stats = shot_group_stats(scheme, counts)
        layer_stats.append(stats)
        layer_costs.append(estimate_cost(instance, scheme, stats))
        frozen.append(build_cost_hamiltonian(instance, scheme, stats))
    return layer_stats, layer_costs, counts


class TestForwardPassAgreement:
    """One carried-forward state reproduces both earlier per-mode loops bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(4, 2), (16, 4), (64, 4)], ids=lambda s: "%dx%d" % s)
    @pytest.mark.parametrize("mode", ["exact", "shots"])
    def test_bit_identical_to_reference(self, mode, shape, p):
        n, d = shape
        scheme = make_scheme(n, d)
        instance = generate_sk(n, "gaussian", seed=n + p)
        rng = np.random.default_rng(100 * n + p)
        params = [
            LayerParams(
                float(rng.uniform(0, np.pi)),
                float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(-0.5, 0.5)),
            )
            for _ in range(p)
        ]
        if mode == "exact":
            trace = run_ansatz(instance, scheme, params)
            ref_stats, ref_costs, ref_counts = reference_exact_run(instance, scheme, params)
        else:
            trace = run_ansatz(instance, scheme, params, mode="shots", n_shots=500, seed=9)
            ref_stats, ref_costs, ref_counts = reference_shot_run(
                instance, scheme, params, 500, 9
            )
        if mode == "exact":
            assert trace.final_counts is None and ref_counts is None
        else:
            assert np.array_equal(trace.final_counts, ref_counts)
        assert len(trace.layer_stats) == len(ref_stats) == p + 1
        assert trace.final_cost == estimate_cost(instance, scheme, trace.layer_stats[-1]).total
        for k in range(p + 1):
            assert estimate_cost(instance, scheme, trace.layer_stats[k]).total == ref_costs[k].total
            got, want = trace.layer_stats[k], ref_stats[k]
            assert np.array_equal(got.p_label, want.p_label)
            assert np.array_equal(got.zbar, want.zbar)
            assert np.array_equal(got.corr_matrix, want.corr_matrix)


def random_layers(rng, p):
    return [LayerParams(float(rng.uniform(0, np.pi)), float(rng.uniform(-0.5, 0.5)),
                        float(rng.uniform(-0.5, 0.5))) for _ in range(p)]


def assert_same_stats(got, want):
    assert np.array_equal(got.p_label, want.p_label)
    assert np.array_equal(got.zbar, want.zbar)
    assert np.array_equal(got.corr_matrix, want.corr_matrix)
    assert np.array_equal(got.observed, want.observed)


def assert_same_trace(got, want):
    assert got.final_cost == want.final_cost
    assert np.array_equal(got.final_state.amps, want.final_state.amps)
    assert got.final_counts is None and want.final_counts is None
    assert len(got.layer_stats) == len(want.layer_stats)
    for got_stats, want_stats in zip(got.layer_stats, want.layer_stats):
        assert_same_stats(got_stats, want_stats)


class TestPrefixAgreement:
    """A run resumed from an exact trace returns the trace of the run from |+>, bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(4, 2), (16, 4), (64, 4)], ids=lambda s: "%dx%d" % s)
    def test_bit_identical_to_run_from_plus(self, shape, p):
        n, d = shape
        scheme = make_scheme(n, d)
        instance = generate_sk(n, "gaussian", seed=3 * n + p)
        rng = np.random.default_rng(10 * n + p)
        for _ in range(3):
            params = random_layers(rng, p)
            want = run_ansatz(instance, scheme, params)
            for k in range(p + 1):
                start = run_ansatz(instance, scheme, params[:k])
                assert start.params == tuple(params[:k])
                assert len(start.layer_stats) == k + 1
                for got_stats, want_stats in zip(start.layer_stats, want.layer_stats):
                    assert_same_stats(got_stats, want_stats)
                separator = build_cost_hamiltonian(instance, scheme, want.layer_stats[k])
                assert np.array_equal(start.separator.entries, separator.entries)
                before = start.final_state.amps.copy()
                assert_same_trace(run_ansatz(instance, scheme, params, start=start), want)
                assert np.array_equal(start.final_state.amps, before)

    def test_one_prefix_serves_many_points(self):
        scheme = make_scheme(16, 4)
        instance = generate_sk(16, "pm1", seed=8)
        start = run_ansatz(instance, scheme, [])
        rng = np.random.default_rng(8)
        for p in (1, 2, 3, 1, 2):
            params = random_layers(rng, p)
            assert_same_trace(run_ansatz(instance, scheme, params, start=start),
                              run_ansatz(instance, scheme, params))

    def test_prefix_is_read_only(self, n4_instance, n4_scheme):
        start = run_ansatz(n4_instance, n4_scheme, [LayerParams(0.3, 0.2, 0.1)])
        assert not start.final_state.amps.flags.writeable
        assert start.separator is start.separator  # built once, on first read
        assert not start.separator.entries.flags.writeable
        for stats in start.layer_stats:
            for array in (stats.p_label, stats.zbar, stats.corr_matrix, stats.observed):
                assert not array.flags.writeable

    def test_shot_trace_is_read_only(self, n4_instance, n4_scheme):
        trace = run_ansatz(n4_instance, n4_scheme, [LayerParams(0.3, 0.2, 0.1)] * 2,
                           mode="shots", n_shots=100, seed=2)
        assert not trace.final_counts.flags.writeable
        for stats in trace.layer_stats:
            for array in (stats.p_label, stats.zbar, stats.corr_matrix, stats.observed):
                assert not array.flags.writeable

    def test_no_layers_gives_the_plus_trace(self, n4_instance, n4_scheme):
        plus = init_plus(n4_scheme.n_qubits)
        trace = run_ansatz(n4_instance, n4_scheme, [])
        assert trace.params == () and len(trace.layer_stats) == 1
        assert np.array_equal(trace.final_state.amps, plus.amps)
        assert_same_stats(trace.layer_stats[0], exact_group_stats(n4_scheme, plus))
        assert trace.final_cost == estimate_cost(n4_instance, n4_scheme,
                                                 trace.layer_stats[0]).total

    def test_no_layers_in_shot_mode_samples_layer_0(self, n4_instance, n4_scheme):
        trace = run_ansatz(n4_instance, n4_scheme, [], mode="shots", n_shots=300, seed=6)
        counts = init_plus(n4_scheme.n_qubits).sample(300, seed=6, key=("ansatz-layer", 0))
        assert np.array_equal(trace.final_counts, counts)
        assert_same_stats(trace.layer_stats[0], shot_group_stats(n4_scheme, counts))

    @pytest.mark.parametrize("shape", [(4, 2), (16, 4)], ids=lambda s: "%dx%d" % s)
    def test_landscape_matches_independent_runs(self, shape):
        n, d = shape
        scheme = make_scheme(n, d)
        instance = generate_sk(n, "gaussian", seed=n)
        betas, gammas = np.linspace(0, np.pi, 4), np.linspace(-1, 1, 5)
        grid = landscape(instance, scheme, betas, gammas, gamma_bias=0.2)
        for bi, beta in enumerate(betas):
            for gi, gamma in enumerate(gammas):
                trace = run_ansatz(instance, scheme, [LayerParams(beta, gamma, 0.2)])
                assert grid[bi, gi] == trace.final_cost

    def test_other_instance_rejected(self, n4_scheme):
        start = run_ansatz(generate_sk(4, "pm1", seed=1), n4_scheme, [])
        with pytest.raises(ValueError, match="different instance"):
            run_ansatz(generate_sk(4, "pm1", seed=2), n4_scheme, [LayerParams(0.3, 0.2)],
                       start=start)

    def test_other_scheme_rejected(self):
        instance = generate_sk(8, "pm1", seed=1)
        start = run_ansatz(instance, make_scheme(8, 2), [])
        with pytest.raises(ValueError, match="different instance or scheme"):
            run_ansatz(instance, make_scheme(8, 4), [LayerParams(0.3, 0.2)], start=start)

    def test_shot_mode_rejected(self, n4_instance, n4_scheme):
        start = run_ansatz(n4_instance, n4_scheme, [])
        with pytest.raises(ValueError, match="shot mode"):
            run_ansatz(n4_instance, n4_scheme, [LayerParams(0.3, 0.2)], mode="shots",
                       n_shots=100, start=start)

    def test_shot_trace_rejected_as_start(self, n4_instance, n4_scheme):
        start = run_ansatz(n4_instance, n4_scheme, [], mode="shots", n_shots=100)
        with pytest.raises(ValueError, match="shot trace"):
            run_ansatz(n4_instance, n4_scheme, [LayerParams(0.3, 0.2)], start=start)
        with pytest.raises(ValueError, match="shot trace"):
            appended_layer_grid(start, [0.3], [0.2], [0.0])

    def test_params_must_extend_the_frozen_layers(self, n4_instance, n4_scheme):
        frozen = [LayerParams(0.3, 0.2, 0.1), LayerParams(0.5, -0.1, 0.0)]
        start = run_ansatz(n4_instance, n4_scheme, frozen)
        for params in ([frozen[0]], [frozen[1], frozen[0], frozen[1]],
                       [frozen[0], LayerParams(0.5, -0.1, 0.01), frozen[1]]):
            with pytest.raises(ValueError, match="frozen layers"):
                run_ansatz(n4_instance, n4_scheme, params, start=start)


class TestAppendedLayerGrid:
    """One phase and bias per (gamma, gamma') pair gives every per-point run's cost, bit for bit."""

    @staticmethod
    def per_point(start, betas, gammas, biases):
        grid = np.empty((len(betas), len(gammas), len(biases)))
        for i, beta in enumerate(betas):
            for j, gamma in enumerate(gammas):
                for k, bias in enumerate(biases):
                    params = list(start.params) + [LayerParams(beta, gamma, bias)]
                    grid[i, j, k] = run_ansatz(start.instance, start.scheme, params,
                                               start=start).final_cost
        return grid

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_per_point_runs(self, k):
        scheme = make_scheme(16, 4)
        instance = generate_sk(16, "gaussian", seed=20 + k)
        rng = np.random.default_rng(k)
        start = run_ansatz(instance, scheme, random_layers(rng, k))
        betas, gammas = np.linspace(0, np.pi, 4), np.linspace(-1, 1, 5)
        biases = [-0.4, 0.0, 0.4]
        grid = appended_layer_grid(start, betas, gammas, biases)
        assert grid.shape == (4, 5, 3)
        assert np.array_equal(grid, self.per_point(start, betas, gammas, biases))

    def test_matches_per_point_runs_at_q18(self):
        scheme = make_scheme(64, 16)
        instance = generate_sk(64, "pm1", seed=4)
        start = run_ansatz(instance, scheme, [])
        betas, gammas, biases = [0.3, 1.1], [-0.05, 0.02], [0.2]
        grid = appended_layer_grid(start, betas, gammas, biases)
        assert np.array_equal(grid, self.per_point(start, betas, gammas, biases))

    def test_prefix_state_untouched(self, n4_instance, n4_scheme):
        start = run_ansatz(n4_instance, n4_scheme, [LayerParams(0.3, 0.2, 0.1)])
        before = start.final_state.amps.copy()
        appended_layer_grid(start, [0.2, 0.4], [0.1], [0.0, 0.3])
        assert np.array_equal(start.final_state.amps, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", range(3))
    def test_non_finite_angle_rejected(self, n4_instance, n4_scheme, axis, bad):
        axes = [[0.1, 0.2], [0.3], [0.0]]
        axes[axis] = axes[axis] + [bad]
        with pytest.raises(ValueError, match="finite"):
            appended_layer_grid(run_ansatz(n4_instance, n4_scheme, []), *axes)

    @pytest.mark.parametrize("mode", ["exact", "shots"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_landscape_rejects_non_finite_angles(self, n4_instance, n4_scheme, mode, bad):
        ok = np.array([0.1, 0.2])
        for betas, gammas, bias in ((np.array([0.1, bad]), ok, 0.0), (ok, np.array([bad]), 0.0),
                                    (ok, ok, bad)):
            with pytest.raises(ValueError, match="finite"):
                landscape(n4_instance, n4_scheme, betas, gammas, gamma_bias=bias, mode=mode,
                          n_shots=100)

    def test_landscape_rejects_other_sized_scheme(self, n4_instance):
        with pytest.raises(ValueError, match="scheme encodes 8"):
            landscape(n4_instance, make_scheme(8, 2), np.array([0.1]), np.array([0.2]))


class TestExtractSolution:
    def test_recovers_encoded_string(self, n4_instance, n4_scheme):
        z = np.array([1, -1, -1, 1])
        state = Statevector(3, encode_target(n4_scheme, z))
        stats = exact_group_stats(n4_scheme, state)
        trace = AnsatzTrace(
            instance=n4_instance,
            scheme=n4_scheme,
            params=(),
            layer_stats=(stats,),
            final_cost=estimate_cost(n4_instance, n4_scheme, stats).total,
            final_state=state,
        )
        got, got_cost = extract_solution(trace)
        np.testing.assert_array_equal(got, z)
        assert got_cost == cost(n4_instance, z)

    def test_symmetric_state_tie_break_is_deterministic(self, n4_instance, n4_scheme):
        trace = run_ansatz(n4_instance, n4_scheme, [LayerParams(3 * np.pi / 8, np.pi / 8)])
        a = extract_solution(trace, seed=5)
        b = extract_solution(trace, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1] == -4.0  # modal patterns per label read the ground state

    def test_shot_mode_solution(self, n4_instance, n4_scheme):
        trace = run_ansatz(
            n4_instance, n4_scheme, [LayerParams(3 * np.pi / 8, np.pi / 8)],
            mode="shots", n_shots=2000, seed=3,
        )
        _, got_cost = extract_solution(trace)
        assert got_cost == -4.0
