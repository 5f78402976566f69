import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qeopt.simulator
from qeopt.encoding import make_scheme
from qeopt.simulator import DiagonalOperator, Statevector, init_plus

I2 = np.eye(2)
RX = lambda t: np.array([[np.cos(t / 2), -1j * np.sin(t / 2)], [-1j * np.sin(t / 2), np.cos(t / 2)]])
RZ = lambda p: np.diag([np.exp(-1j * p / 2), np.exp(1j * p / 2)])
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)


def kron_embed_1q(u, qubit, n):
    """Oracle: explicit Kronecker construction, qubit 0 = most significant."""
    out = np.array([[1.0]], dtype=complex)
    for k in range(n):
        out = np.kron(out, u if k == qubit else I2)
    return out


def kron_embed_2q(u4, q1, q2, n):
    """Oracle for a 2-qubit gate on adjacent-or-not wires via permutations."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    s1, s2 = n - 1 - q1, n - 1 - q2
    for col in range(dim):
        b1, b2 = (col >> s1) & 1, (col >> s2) & 1
        base = col & ~(1 << s1) & ~(1 << s2)
        for loc in range(4):
            n1, n2 = loc >> 1, loc & 1
            row = base | (n1 << s1) | (n2 << s2)
            full[row, col] += u4[loc, (b1 << 1) | b2]
    return full


def random_state(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


def copying_apply_1q(amps, qubit, u):
    """The single-qubit kernel as it was: both half-states copied before the update."""
    q = amps.size.bit_length() - 1
    view = amps.reshape(1 << qubit, 2, 1 << (q - 1 - qubit))
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :].copy()
    view[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
    view[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1


class TestInitPlus:
    def test_single_qubit(self):
        np.testing.assert_allclose(init_plus(1).amps, [2**-0.5, 2**-0.5])

    def test_three_qubits_uniform(self):
        np.testing.assert_allclose(init_plus(3).amps, np.full(8, 8**-0.5))

    def test_label_probability_is_d_over_n(self):
        for n, d in [(4, 2), (8, 2), (16, 4)]:
            scheme = make_scheme(n, d)
            probs = init_plus(scheme.n_qubits).probabilities()
            grouped = probs.reshape(scheme.n_groups, -1).sum(axis=1)
            np.testing.assert_allclose(grouped, d / n)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            init_plus(27)
        with pytest.raises(ValueError):
            init_plus(0)


class TestGateExamples:
    def test_rx_pi_on_zero(self):
        state = Statevector(1).apply_rx(0, np.pi)
        np.testing.assert_allclose(state.amps, [0, -1j], atol=1e-15)

    def test_iswap_on_01(self):
        state = Statevector(2, np.array([0, 1, 0, 0], dtype=complex)).apply_iswap(0, 1)
        np.testing.assert_allclose(state.amps, [0, 0, 1j, 0], atol=1e-15)

    def test_rz_phase_on_zero(self):
        state = Statevector(1).apply_rz(0, 0.7)
        np.testing.assert_allclose(state.amps, [np.exp(-1j * 0.35), 0], atol=1e-15)

    def test_iswap_needs_distinct_qubits(self):
        with pytest.raises(IndexError):
            Statevector(2).apply_iswap(1, 1)

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError):
            Statevector(2).apply_rx(2, 0.1)


class TestGateOracle:
    """Every gate agrees with its dense matrix applied by Kronecker embedding."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rx_rz(self, n):
        rng = np.random.default_rng(n)
        for qubit in range(n):
            theta = rng.uniform(-np.pi, np.pi)
            state = random_state(rng, n)
            expected = kron_embed_1q(RX(theta), qubit, n) @ state.amps
            np.testing.assert_allclose(state.copy().apply_rx(qubit, theta).amps, expected, atol=1e-12)
            expected = kron_embed_1q(RZ(theta), qubit, n) @ state.amps
            np.testing.assert_allclose(state.copy().apply_rz(qubit, theta).amps, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_iswap_both_orientations(self, n):
        rng = np.random.default_rng(10 + n)
        for q1 in range(n):
            for q2 in range(n):
                if q1 == q2:
                    continue
                state = random_state(rng, n)
                expected = kron_embed_2q(ISWAP, q1, q2, n) @ state.amps
                np.testing.assert_allclose(
                    state.copy().apply_iswap(q1, q2).amps, expected, atol=1e-12
                )

    def test_x_gate(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 3)
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = kron_embed_1q(X, 1, 3) @ state.amps
        np.testing.assert_allclose(state.copy().apply_x(1).amps, expected, atol=1e-14)


class TestCopyFreeKernel:
    """apply_rx, the mixer's in-place pass on one qubit, gives the copying
    two-by-two kernel's amplitudes bit for bit (compared as integers, since
    float equality takes -0.0 for 0.0)."""

    @staticmethod
    def check(rng, n):
        for qubit in range(n):
            for theta in [0.0, np.pi / 2, -np.pi / 2, np.pi, rng.uniform(-4 * np.pi, 4 * np.pi)]:
                state = random_state(rng, n)
                want = state.amps.copy()
                copying_apply_1q(want, qubit, RX(theta))
                state.apply_rx(qubit, theta)
                assert np.array_equal(state.amps.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bit_identical_to_copying_kernel(self, monkeypatch, n):
        # blocks of 8 amplitudes: from q = 4 on, the early qubits pair rows across blocks
        monkeypatch.setattr(qeopt.simulator, "BLOCK_QUBITS", 3)
        self.check(np.random.default_rng(n), n)

    @pytest.mark.parametrize("n", [15, 16])
    def test_bit_identical_at_the_real_block_size(self, n):
        assert qeopt.simulator.BLOCK_QUBITS == 14
        self.check(np.random.default_rng(n), n)


def looped_mixer(amps, beta):
    """The mixer as it was: the two-by-two Rx(-2 beta) update on qubit 0, 1, ..., q-1."""
    for qubit in range(amps.size.bit_length() - 1):
        copying_apply_1q(amps, qubit, RX(-2.0 * beta))


def halves_rz(amps, qubit, phi):
    """Rz as it was: one scalar multiply per half."""
    q = amps.size.bit_length() - 1
    view = amps.reshape(1 << qubit, 2, 1 << (q - 1 - qubit))
    view[:, 0, :] *= np.exp(-1j * phi / 2)
    view[:, 1, :] *= np.exp(1j * phi / 2)


def mixer_betas(rng):
    return [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 1e-9, 50.0, rng.uniform(-4, 4)]


class TestBlockedKernels:
    """The blocked mixer and the broadcast Rz give the looped kernels' bits."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_mixer_with_small_blocks(self, monkeypatch, n):
        # blocks of 8 amplitudes: every state from q = 4 on has passes across blocks
        monkeypatch.setattr(qeopt.simulator, "BLOCK_QUBITS", 3)
        rng = np.random.default_rng(100 + n)
        for beta in mixer_betas(rng):
            state = random_state(rng, n)
            want = state.amps.copy()
            looped_mixer(want, beta)
            state.apply_mixer(beta)
            assert np.array_equal(state.amps.view(np.float64), want.view(np.float64))

    def test_mixer_at_the_real_block_size(self):
        assert qeopt.simulator.BLOCK_QUBITS == 14
        rng = np.random.default_rng(15)
        for beta in mixer_betas(rng):
            state = random_state(rng, 15)
            want = state.amps.copy()
            looped_mixer(want, beta)
            state.apply_mixer(beta)
            assert np.array_equal(state.amps.view(np.float64), want.view(np.float64))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_rz_one_broadcast_multiply(self, n):
        rng = np.random.default_rng(200 + n)
        for qubit in range(n):
            for phi in [0.0, 1e-9, -0.8, 50.0, np.pi, rng.uniform(-7, 7)]:
                state = random_state(rng, n)
                want = state.amps.copy()
                halves_rz(want, qubit, phi)
                state.apply_rz(qubit, phi)
                assert np.array_equal(state.amps.view(np.float64), want.view(np.float64))

    def test_rz_on_one_qubit_within_a_rounding(self):
        # numpy multiplies a one-element array in place without a fused
        # multiply-add and a two-element array with one, so on the
        # two-amplitude state alone each product may round differently;
        # every scheme has q >= 2 and compile verification 2q >= 4
        rng = np.random.default_rng(1)
        for phi in [0.0, 1e-9, -0.8, 50.0, np.pi, rng.uniform(-7, 7)]:
            state = random_state(rng, 1)
            want = state.amps.copy()
            halves_rz(want, 0, phi)
            state.apply_rz(0, phi)
            np.testing.assert_allclose(state.amps, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [16, 18])
    def test_mixer_scratch_stays_below_the_looped_kernels(self, n):
        # the looped kernel's temporaries peaked at 1.53-1.63x the state's bytes
        state = init_plus(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state.apply_mixer(0.3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * state.amps.nbytes


class TestMixer:
    def test_zero_angle_is_identity(self):
        state = init_plus(3)
        before = state.amps.copy()
        state.apply_mixer(0.0)
        np.testing.assert_array_equal(state.amps, before)

    def test_half_pi_flips_all_bits(self):
        q = 3
        state = Statevector(q).apply_mixer(np.pi / 2)
        expected = np.zeros(8, dtype=complex)
        expected[-1] = 1j**q  # exp(i pi X / 2) = iX per qubit
        np.testing.assert_allclose(state.amps, expected, atol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2))
    def test_additive_in_beta(self, b1, b2):
        rng = np.random.default_rng(5)
        state = random_state(rng, 3)
        once = state.copy().apply_mixer(b1 + b2)
        twice = state.copy().apply_mixer(b1).apply_mixer(b2)
        np.testing.assert_allclose(once.amps, twice.amps, atol=1e-12)


class TestDiagonal:
    def test_zero_gamma_identity(self):
        state = init_plus(2)
        before = state.amps.copy()
        state.apply_diagonal_phase(DiagonalOperator(2, np.array([1.0, 2.0, 3.0, 4.0])), 0.0)
        np.testing.assert_array_equal(state.amps, before)

    def test_constant_diagonal_is_global_phase(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 3)
        probs = state.probabilities()
        state.apply_diagonal_phase(DiagonalOperator(3, np.full(8, 2.5)), 0.63)
        np.testing.assert_allclose(state.probabilities(), probs, atol=1e-14)

    def test_fixture_layer_reaches_the_four_outcomes(self):
        # diagonal {+-2} pattern of the 4-variable example at its optimum
        entries = np.array([2, -2, -2, 2, 2, -2, -2, 2], dtype=float)
        state = init_plus(3)
        state.apply_diagonal_phase(DiagonalOperator(3, entries), np.pi / 8)
        state.apply_mixer(3 * np.pi / 8)
        probs = state.probabilities()
        np.testing.assert_allclose(probs[[0b001, 0b010, 0b101, 0b110]], 0.25, atol=1e-12)
        np.testing.assert_allclose(probs[[0b000, 0b011, 0b100, 0b111]], 0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        diag = DiagonalOperator(3, np.ones(8))
        with pytest.raises(ValueError, match="3 qubits"):
            init_plus(2).apply_diagonal_phase(diag, 0.1)
        with pytest.raises(ValueError, match="3 qubits"):
            init_plus(2).expectation_diagonal(diag)

    def test_operator_validation(self):
        with pytest.raises(ValueError):
            DiagonalOperator(2, np.array([1.0, np.inf, 0.0, 0.0]))
        with pytest.raises(ValueError):
            DiagonalOperator(2, np.ones(3))


class TestExpectation:
    def test_all_ones_is_normalization(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 3)
        assert state.expectation_diagonal(DiagonalOperator(3, np.ones(8))) == pytest.approx(1.0, abs=1e-12)

    def test_basis_state_reads_its_entry(self):
        state = Statevector(2)  # |00>
        entries = np.array([3.5, -1.0, 0.0, 2.0])
        assert state.expectation_diagonal(DiagonalOperator(2, entries)) == pytest.approx(3.5)


class TestSampling:
    def test_pure_basis_state(self):
        amps = np.zeros(8, dtype=complex)
        amps[5] = 1.0
        counts = Statevector(3, amps).sample(1000, seed=1)
        assert counts.shape == (8,)
        assert np.array_equal(counts, np.eye(8, dtype=int)[5] * 1000)

    def test_single_qubit_binomial_within_5_sigma(self):
        counts = init_plus(1).sample(10_000, seed=2)
        assert abs(counts[0] - 5000) < 5 * 50

    def test_counts_sum_and_determinism(self):
        state = init_plus(3)
        a = state.sample(500, seed=9)
        b = state.sample(500, seed=9)
        assert np.array_equal(a, b)
        assert np.issubdtype(a.dtype, np.integer)
        assert a.sum() == 500

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_total_variation_convergence(self, q):
        rng = np.random.default_rng(q + 20)
        state = random_state(rng, q)
        freq = state.sample(100_000, seed=4) / 100_000
        tv = 0.5 * np.abs(freq - state.probabilities()).sum()
        assert tv < 0.02


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_preserved_by_random_gate_sequences(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 5))
    state = init_plus(q)
    for _ in range(20):
        kind = rng.integers(0, 4)
        if kind == 0:
            state.apply_rx(int(rng.integers(q)), float(rng.uniform(-np.pi, np.pi)))
        elif kind == 1:
            state.apply_rz(int(rng.integers(q)), float(rng.uniform(-np.pi, np.pi)))
        elif kind == 2:
            a, b = rng.choice(q, size=2, replace=False)
            state.apply_iswap(int(a), int(b))
        else:
            diag = DiagonalOperator(q, rng.standard_normal(1 << q))
            state.apply_diagonal_phase(diag, float(rng.uniform(-1, 1)))
    assert abs(state.norm() - 1.0) < 1e-10
