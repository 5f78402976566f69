import logging

import numpy as np
import pytest
from encoding_oracle import encode_target
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeopt.encoding import basis_spin_table, make_scheme
from qeopt.estimator import (
    HamiltonianTerm,
    _intra_weight_matrix,
    _stats_from_probs,
    build_cost_hamiltonian,
    cost_hamiltonian_terms,
    cross_group_fields,
    data_pair_indices,
    estimate_cost,
    exact_group_stats,
    pair_product_table,
    shot_group_stats,
)
from qeopt.problem import SKInstance, cost, generate_sk
from qeopt.rng import stream
from qeopt.simulator import DiagonalOperator, Statevector, init_plus


def random_state(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


class TestExactStats:
    def test_plus_state(self, n4_scheme):
        stats = exact_group_stats(n4_scheme, init_plus(3))
        np.testing.assert_allclose(stats.p_label, 0.5)
        np.testing.assert_allclose(stats.zbar, 0.0, atol=1e-14)
        assert stats.observed.all()

    def test_encoded_string_has_definite_values(self, n4_scheme):
        rng = np.random.default_rng(8)
        z = rng.choice([-1, 1], size=4)
        state = Statevector(3, encode_target(n4_scheme, z))
        stats = exact_group_stats(n4_scheme, state)
        np.testing.assert_allclose(stats.zbar, z, atol=1e-12)
        assert stats.corr_matrix[0, 0] == pytest.approx(z[0] * z[1])
        assert stats.corr_matrix[1, 0] == pytest.approx(z[2] * z[3])

    def test_supp_bell_pattern(self, n4_scheme):
        # c0 = c3 = 1/sqrt(2): zbar vanishes, corr(0,1) = +1
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[3] = 2**-0.5
        stats = exact_group_stats(n4_scheme, Statevector(3, amps))
        assert stats.zbar[0] == pytest.approx(0.0, abs=1e-14)
        assert stats.zbar[1] == pytest.approx(0.0, abs=1e-14)
        assert stats.corr_matrix[0, 0] == pytest.approx(1.0)
        assert not stats.observed[1]

    def test_unobserved_label_flagged_and_zeroed(self, n4_scheme):
        amps = np.zeros(8, dtype=complex)
        amps[1] = 1.0  # support only on label 0
        stats = exact_group_stats(n4_scheme, Statevector(3, amps))
        assert stats.observed[0] and not stats.observed[1]
        assert stats.n_unobserved == 1
        np.testing.assert_array_equal(stats.zbar[2:], 0.0)
        assert stats.corr_matrix[1, 0] == 0.0


class TestShotStats:
    def test_concentrated_counts(self, n4_scheme):
        counts = np.zeros(8, dtype=np.int64)
        counts[0b001] = 50
        stats = shot_group_stats(n4_scheme, counts)
        np.testing.assert_allclose(stats.zbar[:2], [1, -1])
        assert stats.corr_matrix[0, 0] == pytest.approx(-1.0)
        assert not stats.observed[1]

    def test_malformed_counts_rejected(self, n4_scheme):
        for counts in (
            np.full(4, 5),  # a 2-qubit histogram for a 3-qubit scheme
            np.full((2, 4), 5),  # right size, wrong shape
            np.full(8, 0.5),  # frequencies, not counts
            np.array([6, -1, 0, 0, 0, 0, 0, 0]),  # sums to 5, one count negative
            np.zeros(8, dtype=np.int64),  # no shots
        ):
            with pytest.raises(ValueError):
                shot_group_stats(n4_scheme, counts)

    def test_converges_to_exact(self, n4_instance, n4_scheme):
        from qeopt.ansatz import LayerParams, run_ansatz

        trace = run_ansatz(n4_instance, n4_scheme, [LayerParams(0.9, 0.3, 0.2)])
        exact = exact_group_stats(n4_scheme, trace.final_state)
        counts = trace.final_state.sample(10_000, seed=3)
        shots = shot_group_stats(n4_scheme, counts)
        np.testing.assert_allclose(shots.zbar, exact.zbar, atol=0.05)
        np.testing.assert_allclose(shots.corr_matrix, exact.corr_matrix, atol=0.05)

    def test_conditionally_unbiased_pair_correlation(self, n4_scheme):
        rng = np.random.default_rng(17)
        state = random_state(rng, 3)
        exact = exact_group_stats(n4_scheme, state)
        reps = 200
        values = np.empty(reps)
        for rep in range(reps):
            counts = state.sample(1000, seed=rep, key=("unbiased",))
            stats = shot_group_stats(n4_scheme, counts)
            assert stats.observed.all()  # 1000 shots, both labels near 1/2
            values[rep] = stats.corr_matrix[0, 0]
        se = values.std(ddof=1) / np.sqrt(reps)
        assert abs(values.mean() - exact.corr_matrix[0, 0]) < max(3 * se, 1e-12)


def reference_dict_sample(state, n_shots, seed, key):
    """Shot counts as a {basis index: count} dict, as sampling returned them
    before the count array was kept."""
    probs = np.clip(state.probabilities(), 0.0, None)
    counts = stream(seed, "sample", *key).multinomial(n_shots, probs / probs.sum())
    return {int(k): int(counts[k]) for k in np.nonzero(counts)[0]}


def reference_dict_stats(scheme, counts, n_shots):
    """The dict loop that rebuilt the frequency array for the shot statistics."""
    freq = np.zeros(scheme.dim)
    for index, count in counts.items():
        freq[index] = count / n_shots
    grouped_counts = freq.reshape(scheme.n_groups, -1).sum(axis=1)
    return _stats_from_probs(scheme, freq, observed=grouped_counts > 0)


class TestCountArrayAgreement:
    """Count arrays give the statistics the dict path gave, bit for bit."""

    @pytest.mark.parametrize("n_shots", [7, 500, 20_000])
    @pytest.mark.parametrize("shape", [(4, 2), (16, 4), (64, 4)], ids=lambda s: "%dx%d" % s)
    def test_bit_identical_to_dict_path(self, shape, n_shots):
        n, d = shape
        scheme = make_scheme(n, d)
        state = random_state(np.random.default_rng(n + n_shots), scheme.n_qubits)
        key = ("agreement", n_shots)
        counts = state.sample(n_shots, seed=3, key=key)
        ref_counts = reference_dict_sample(state, n_shots, 3, key)
        assert {k: int(counts[k]) for k in np.nonzero(counts)[0]} == ref_counts
        got = shot_group_stats(scheme, counts)
        want = reference_dict_stats(scheme, ref_counts, n_shots)
        assert np.array_equal(got.p_label, want.p_label)
        assert np.array_equal(got.zbar, want.zbar)
        assert np.array_equal(got.corr_matrix, want.corr_matrix)
        assert np.array_equal(got.observed, want.observed)


def reference_pair_list_cost(instance, scheme, stats):
    """estimate_cost with the pair index arrays rebuilt from data_pair_indices per call."""
    d = scheme.group_size
    pairs = data_pair_indices(d)
    if pairs:
        bases = d * np.arange(scheme.n_groups)[:, None]
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        intra_w = instance.weights[bases + a[None, :], bases + b[None, :]]
        zbar_mat = stats.zbar.reshape(scheme.n_groups, d)
        intra_zz = float(np.sum(intra_w * (zbar_mat[:, a] * zbar_mat[:, b])))
    else:
        intra_w = np.zeros((scheme.n_groups, 0))
        intra_zz = 0.0
    intra = float(np.sum(intra_w * stats.corr_matrix))
    full = float(stats.zbar @ instance.weights @ stats.zbar)
    return intra_w, intra, full - intra_zz


class TestPairTables:
    """The per-d cached pair tables give the values the per-call pair lists gave."""

    @pytest.mark.parametrize("shape", [(8, 1), (8, 2), (16, 4), (64, 4), (64, 16)],
                             ids=lambda s: "%dx%d" % s)
    def test_bit_identical_to_pair_list_path(self, shape):
        n, d = shape
        scheme = make_scheme(n, d)
        inst = generate_sk(n, "gaussian", seed=n + d)
        stats = exact_group_stats(scheme, random_state(np.random.default_rng(d), scheme.n_qubits))
        intra_w, intra, inter = reference_pair_list_cost(inst, scheme, stats)
        assert np.array_equal(_intra_weight_matrix(inst, scheme), intra_w)
        got = estimate_cost(inst, scheme, stats)
        assert (got.intra, got.inter) == (intra, inter)
        spins = basis_spin_table(d).astype(np.float64)
        table = pair_product_table(d)
        assert pair_product_table(d) is table and not table.flags.writeable
        for k, (a, b) in enumerate(data_pair_indices(d)):
            assert np.array_equal(table[:, k], spins[:, a] * spins[:, b])


class TestCost:
    def test_d_equals_n_reduces_to_plain_expectation(self):
        n = 4
        inst = generate_sk(n, "pm1", seed=2)
        scheme = make_scheme(n, n)
        rng = np.random.default_rng(0)
        state = random_state(rng, n)
        stats = exact_group_stats(scheme, state)
        got = estimate_cost(inst, scheme, stats).total
        # direct <sum w Z Z> via the classical diagonal
        diag = np.empty(1 << n)
        for k in range(1 << n):
            z = np.array([1 - 2 * ((k >> (n - 1 - i)) & 1) for i in range(n)])
            diag[k] = cost(inst, z)
        assert got == pytest.approx(state.expectation_diagonal(DiagonalOperator(n, diag)), abs=1e-9)

    def test_fixture_final_state_cost(self, n4_instance, n4_scheme):
        # hand-built optimal state: (|0>+|1>) x (|01>+|10>) / 2
        amps = np.zeros(8, dtype=complex)
        amps[[0b001, 0b010, 0b101, 0b110]] = 0.5
        stats = exact_group_stats(n4_scheme, Statevector(3, amps))
        breakdown = estimate_cost(n4_instance, n4_scheme, stats)
        assert breakdown.total == pytest.approx(-2.0)
        assert breakdown.intra == pytest.approx(-2.0)
        assert breakdown.inter == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_encoded_strings_reproduce_classical_cost(self, seed):
        rng = np.random.default_rng(seed)
        n, d = [(4, 2), (8, 2), (8, 4), (16, 4)][seed % 4]
        inst = generate_sk(n, "gaussian", seed=seed)
        scheme = make_scheme(n, d)
        z = rng.choice([-1, 1], size=n)
        amps = encode_target(scheme, z)
        stats = exact_group_stats(scheme, Statevector(scheme.n_qubits, amps))
        assert estimate_cost(inst, scheme, stats).total == pytest.approx(cost(inst, z), abs=1e-9)


class TestHamiltonian:
    def test_plus_state_operator_of_the_worked_example(self, n4_instance, n4_scheme):
        stats = exact_group_stats(n4_scheme, init_plus(3))
        ham = build_cost_hamiltonian(n4_instance, n4_scheme, stats)
        np.testing.assert_allclose(ham.entries, [2, -2, -2, 2, 2, -2, -2, 2])

    def test_zero_zbar_has_no_one_body_terms(self, n4_instance, n4_scheme):
        stats = exact_group_stats(n4_scheme, init_plus(3))
        terms = cost_hamiltonian_terms(n4_instance, n4_scheme, stats)
        assert all(len(t.data_qubits) == 2 for t in terms)
        assert len(terms) == 2
        coeffs = {t.label: t.coefficient for t in terms}
        assert coeffs[0] == pytest.approx(2.0)  # w01 / (1/2)
        assert coeffs[1] == pytest.approx(2.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_expectation_identity(self, seed):
        """<psi|H[psi]|psi> equals the assembled cost, q <= 8."""
        rng = np.random.default_rng(seed)
        n, d = [(4, 2), (8, 2), (8, 4), (16, 4), (8, 8)][seed % 5]
        inst = generate_sk(n, "gaussian", seed=seed + 1)
        scheme = make_scheme(n, d)
        state = random_state(rng, scheme.n_qubits)
        stats = exact_group_stats(scheme, state)
        ham = build_cost_hamiltonian(inst, scheme, stats)
        assert state.expectation_diagonal(ham) == pytest.approx(
            estimate_cost(inst, scheme, stats).total, abs=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(4, 2), (8, 2), (8, 4), (16, 2), (16, 4), (8, 8)]),
        st.sampled_from(["pm1", "gaussian"]),
        st.integers(0, 10_000),
        st.booleans(),
    )
    @example((8, 2), "gaussian", 3, True)
    def test_terms_match_dense_diagonal(self, shape, kind, seed, drop_label):
        """The term list, expanded over the basis, is the dense diagonal."""
        n, d = shape
        inst = generate_sk(n, kind, seed=seed)
        scheme = make_scheme(n, d)
        rng = np.random.default_rng(seed)
        amps = random_state(rng, scheme.n_qubits).amps.reshape(scheme.n_groups, 1 << d)
        if drop_label and scheme.n_groups > 1:
            amps[rng.integers(scheme.n_groups)] = 0.0
        state = Statevector(scheme.n_qubits, amps.ravel() / np.linalg.norm(amps))
        stats = exact_group_stats(scheme, state)
        assert stats.n_unobserved == (1 if drop_label and scheme.n_groups > 1 else 0)

        terms = cost_hamiltonian_terms(inst, scheme, stats)
        dense = build_cost_hamiltonian(inst, scheme, stats).entries
        pattern = np.arange(1 << d)
        rebuilt = np.zeros((scheme.n_groups, 1 << d))
        for term in terms:
            z = np.ones(1 << d)
            for dq in term.data_qubits:
                z *= 1 - 2 * ((pattern >> (d - 1 - dq)) & 1)
            rebuilt[term.label] += term.coefficient * z
        scale = np.abs(dense).max()
        assert np.abs(rebuilt.ravel() - dense).max() <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(4, 2), (8, 2), (8, 4), (16, 2), (16, 4), (8, 8)]),
        st.sampled_from(["pm1", "gaussian"]),
        st.integers(0, 10_000),
        st.booleans(),
        st.booleans(),
    )
    @example((8, 2), "gaussian", 3, True, False)
    @example((8, 4), "pm1", 5, True, True)
    def test_terms_match_reference_loop(self, shape, kind, seed, drop_label, sparse):
        """The vectorized term list equals the per-label loop it replaced:
        same labels, targets and order, coefficients ==."""
        n, d = shape
        inst = generate_sk(n, kind, seed=seed)
        rng = np.random.default_rng(seed)
        if sparse:  # zero weights exercise the skipped terms
            inst = SKInstance(n, np.where(rng.random((n, n)) < 0.5, 0.0, inst.weights),
                              inst.weight_kind, inst.seed)
        scheme = make_scheme(n, d)
        amps = random_state(rng, scheme.n_qubits).amps.reshape(scheme.n_groups, 1 << d)
        if drop_label and scheme.n_groups > 1:
            amps[rng.integers(scheme.n_groups)] = 0.0
        state = Statevector(scheme.n_qubits, amps.ravel() / np.linalg.norm(amps))
        stats = exact_group_stats(scheme, state)

        pairs = data_pair_indices(d)
        intra_w = _intra_weight_matrix(inst, scheme)
        h = cross_group_fields(inst, scheme, stats)
        want = []
        for label in range(scheme.n_groups):
            if not stats.observed[label]:
                continue
            inv_p = 1.0 / stats.p_label[label]
            for idx, (a, b) in enumerate(pairs):
                w = intra_w[label, idx]
                if w != 0.0:
                    want.append(HamiltonianTerm(label, (a, b), w * inv_p))
            for a in range(d):
                hi = h[d * label + a]
                if hi != 0.0:
                    want.append(HamiltonianTerm(label, (a,), hi * inv_p))
        assert cost_hamiltonian_terms(inst, scheme, stats) == want

    def test_unobserved_label_terms_dropped(self, n4_instance, n4_scheme, caplog):
        amps = np.zeros(8, dtype=complex)
        amps[0b001] = 1.0
        stats = exact_group_stats(n4_scheme, Statevector(3, amps))
        assert stats.n_unobserved == 1
        with caplog.at_level(logging.DEBUG):
            ham = build_cost_hamiltonian(n4_instance, n4_scheme, stats)
        assert "unobserved" in caplog.text
        np.testing.assert_array_equal(ham.entries[4:], 0.0)

    def test_size_mismatch_rejected(self, n4_instance):
        scheme = make_scheme(8, 2)
        stats = exact_group_stats(scheme, init_plus(scheme.n_qubits))
        with pytest.raises(ValueError):
            estimate_cost(n4_instance, scheme, stats)
