import numpy as np
import pytest
from encoding_oracle import encode_target
from hypothesis import given, settings
from hypothesis import strategies as st

import qeopt.ansatz
from qeopt.ansatz import (
    AnsatzTrace,
    LayerParams,
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


class TestExtractSolution:
    def test_recovers_encoded_string(self, n4_instance, n4_scheme):
        z = np.array([1, -1, -1, 1])
        state = Statevector(3, encode_target(n4_scheme, z))
        stats = exact_group_stats(n4_scheme, state)
        trace = AnsatzTrace(
            instance=n4_instance,
            scheme=n4_scheme,
            layer_stats=[stats],
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
