import math
from functools import reduce

import numpy as np
import pytest

from qeopt.ansatz import LayerParams, apply_layer
from qeopt.compiler import (
    Circuit,
    circuit_unitary,
    compile_layer,
    decompose_controls,
    dumps,
    lower_phase_separator,
    to_native,
    verify_unitary,
)
from qeopt.encoding import make_scheme
from qeopt.estimator import (
    HamiltonianTerm,
    build_cost_hamiltonian,
    cost_hamiltonian_terms,
    exact_group_stats,
)
from qeopt.problem import example_instance_n4, generate_sk
from qeopt.simulator import Statevector, init_plus


def ideal_controlled_phase(n_qubits, scheme, term):
    """Oracle: dense exp(i theta P_l Z...Z) built directly from the definition."""
    dim = 1 << n_qubits
    d = scheme.group_size
    diag = np.zeros(dim)
    for k in range(dim):
        if (k >> d) != term.label:
            continue
        s = 1.0
        for dq in term.data_qubits:
            s *= 1 - 2 * ((k >> (d - 1 - dq)) & 1)
        diag[k] = term.coefficient * s
    return np.exp(1j * diag)


_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


def rx_matrix(theta):
    return math.cos(theta / 2) * _I2 - 1j * math.sin(theta / 2) * _X


def on_qubits(n_qubits, ops):
    """Oracle: Kronecker product with ops[k] on qubit k (qubit 0 leftmost)."""
    return reduce(np.kron, [ops.get(k, _I2) for k in range(n_qubits)])


def kron_unitary(circuit):
    """Oracle: dense product of Kronecker-embedded native gates."""
    n = circuit.n_qubits
    u = on_qubits(n, {})
    for g in circuit.gates:
        if g.name == "ISWAP":
            # iSWAP = (II + ZZ)/2 + i (XX + YY)/2, symmetric in its qubits
            a, b = g.qubits
            gate = (on_qubits(n, {}) + on_qubits(n, {a: _Z, b: _Z})) / 2 + 0.5j * (
                on_qubits(n, {a: _X, b: _X}) + on_qubits(n, {a: _Y, b: _Y})
            )
        elif g.name == "RX":
            gate = on_qubits(n, {g.qubits[0]: rx_matrix(g.angle)})
        elif g.name == "RZ":
            phase = np.exp(-0.5j * g.angle)
            gate = on_qubits(n, {g.qubits[0]: np.diag([phase, phase.conjugate()])})
        else:
            gate = on_qubits(n, {g.qubits[0]: _X})
        u = gate @ u
    return u


def layer_unitary(instance, scheme, stats, layer):
    """Oracle: dense layer unitary column-by-column through the simulator."""
    ham = build_cost_hamiltonian(instance, scheme, stats)
    dim = scheme.dim
    u = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[col] = 1.0
        state = Statevector(scheme.n_qubits, basis)
        apply_layer(state, ham, layer)
        u[:, col] = state.amps
    return u


class TestLowering:
    def test_zero_gamma_gives_empty_ir(self, n4_instance, n4_scheme):
        stats = exact_group_stats(n4_scheme, init_plus(3))
        terms = cost_hamiltonian_terms(n4_instance, n4_scheme, stats)
        assert lower_phase_separator(terms, 0.0) == []

    def test_fixture_plus_state_terms(self, n4_instance, n4_scheme):
        stats = exact_group_stats(n4_scheme, init_plus(3))
        gamma = 0.37
        terms = lower_phase_separator(cost_hamiltonian_terms(n4_instance, n4_scheme, stats), gamma)
        assert len(terms) == 2
        by_label = {t.label: t for t in terms}
        assert by_label[0].data_qubits == (0, 1)
        assert by_label[0].coefficient == pytest.approx(2 * gamma)  # w01 / (1/2) * gamma
        assert by_label[1].coefficient == pytest.approx(2 * gamma)

    def test_term_order_is_immaterial(self, n4_scheme):
        terms = [HamiltonianTerm(0, (0, 1), 0.3), HamiltonianTerm(1, (0,), -0.7),
                 HamiltonianTerm(1, (0, 1), 0.11)]
        u_fwd = circuit_unitary(decompose_controls(terms, n4_scheme))
        u_rev = circuit_unitary(decompose_controls(terms[::-1], n4_scheme))
        np.testing.assert_allclose(u_fwd, u_rev, atol=1e-12)


class TestDecomposeControls:
    def test_m0_bare_rotations(self):
        scheme = make_scheme(4, 4)
        terms = [HamiltonianTerm(0, (1, 3), 0.5), HamiltonianTerm(0, (2,), -0.25)]
        circuit = decompose_controls(terms, scheme)
        assert circuit.n_qubits == scheme.n_qubits
        diag = np.zeros(16)
        for k in range(16):
            s13 = (1 - 2 * ((k >> 2) & 1)) * (1 - 2 * (k & 1))
            s2 = 1 - 2 * ((k >> 1) & 1)
            diag[k] = 0.5 * s13 - 0.25 * s2
        assert verify_unitary(circuit, np.exp(1j * diag)) < 1e-12

    @pytest.mark.parametrize("pattern", [0, 1])
    def test_m1_against_matrix_oracle(self, pattern, n4_scheme):
        term = HamiltonianTerm(pattern, (0, 1), 0.8321)
        circuit = decompose_controls([term], n4_scheme)
        assert circuit.n_qubits == n4_scheme.n_qubits
        ref = ideal_controlled_phase(3, n4_scheme, term)
        assert verify_unitary(circuit, ref) < 1e-12

    @pytest.mark.parametrize("pattern", [0, 1, 2, 3])
    def test_m2_with_one_ancilla_against_oracle(self, pattern):
        scheme = make_scheme(8, 2)  # m=2, q=4
        term = HamiltonianTerm(pattern, (0, 1), -0.456)
        circuit = decompose_controls([term], scheme)
        assert circuit.n_qubits == scheme.n_qubits
        ref = ideal_controlled_phase(4, scheme, term)
        assert verify_unitary(circuit, ref) < 1e-12

    def test_m3_ladder(self):
        scheme = make_scheme(16, 2)  # m=3, q=5
        term = HamiltonianTerm(5, (0,), 0.321)
        circuit = decompose_controls([term], scheme)
        assert circuit.n_qubits == scheme.n_qubits
        ref = ideal_controlled_phase(5, scheme, term)
        assert verify_unitary(circuit, ref) < 1e-12

    def test_bad_pattern_rejected(self, n4_scheme):
        with pytest.raises(ValueError):
            decompose_controls([HamiltonianTerm(2, (0,), 0.1)], n4_scheme)


class TestToNative:
    def test_empty_circuit(self):
        assert to_native(Circuit(2)).gates == []

    def test_single_cnot_matches_up_to_phase(self):
        circuit = Circuit(2)
        circuit.add("CNOT", 0, 1)
        native = to_native(circuit)
        assert native.is_native()
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        assert verify_unitary(native, cnot) < 1e-9
        assert native.gate_counts()["ISWAP"] == 2

    def test_cnot_other_orientation(self):
        circuit = Circuit(2)
        circuit.add("CNOT", 1, 0)
        ref = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
        assert verify_unitary(to_native(circuit), ref) < 1e-9

    @pytest.mark.parametrize("theta", [0.0, 0.3, -1.1, math.pi / 2, -math.pi / 2, math.pi, 2.7])
    def test_arbitrary_rx(self, theta):
        circuit = Circuit(1)
        circuit.add("RX", 0, angle=theta)
        native = to_native(circuit)
        assert native.is_native()
        assert verify_unitary(native, rx_matrix(theta)) < 1e-12

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError):
            Circuit(1).add("HADAMARD", 0)

    @pytest.mark.parametrize("n,d", [(8, 2), (16, 2), (16, 4)])
    def test_iswap_count_bounded_per_target_set(self, n, d):
        # at most 2^m + 2(|D| - 1) CNOTs, two iSWAPs each, per data-target set D
        scheme = make_scheme(n, d)
        rng = np.random.default_rng(n + d)
        target_sets = [(a, b) for a in range(d) for b in range(a + 1, d)] + [(a,) for a in range(d)]
        terms = [
            HamiltonianTerm(int(rng.integers(scheme.n_groups)),
                            target_sets[rng.integers(len(target_sets))], float(rng.normal()))
            for _ in range(3 * scheme.n_groups)
        ]
        native = to_native(decompose_controls(terms, scheme))
        bound = 2 * sum((1 << scheme.n_label_qubits) + 2 * (len(ts) - 1)
                        for ts in {t.data_qubits for t in terms})
        assert native.gate_counts()["ISWAP"] <= bound
        ref = np.prod([ideal_controlled_phase(scheme.n_qubits, scheme, t) for t in terms], axis=0)
        assert verify_unitary(native, ref) < 1e-12

    def test_terms_sharing_label_and_targets_cost_one_term(self, n4_scheme):
        def compile_k(k):
            terms = [HamiltonianTerm(0, (0, 1), 0.1 * (j + 1)) for j in range(k)]
            return to_native(decompose_controls(terms, n4_scheme))

        one = compile_k(1).gate_counts()
        assert compile_k(2).gate_counts() == one
        five = compile_k(5)
        assert five.gate_counts() == one
        ref = ideal_controlled_phase(3, n4_scheme, HamiltonianTerm(0, (0, 1), 1.5))
        assert verify_unitary(five, ref) < 1e-12


class TestFullLayer:
    @pytest.mark.parametrize("n,d", [(4, 2), (8, 2), (8, 4), (16, 4)])
    def test_layer1_compilation(self, n, d):
        inst = example_instance_n4() if n == 4 else generate_sk(n, "pm1", seed=n + d)
        scheme = make_scheme(n, d)
        stats = exact_group_stats(scheme, init_plus(scheme.n_qubits))
        layer = LayerParams(0.77, 0.213, -0.41)
        native, deviation = compile_layer(inst, scheme, stats, layer)
        assert native.is_native()
        assert native.n_qubits == scheme.n_qubits
        assert deviation < 1e-9
        ref = layer_unitary(inst, scheme, stats, layer)
        assert verify_unitary(native, ref) < 1e-9

    def test_layer2_with_one_body_terms(self, n4_instance, n4_scheme):
        # a biased first layer polarizes zbar, so layer 2 carries Z terms
        state = init_plus(3)
        stats0 = exact_group_stats(n4_scheme, state)
        apply_layer(state, build_cost_hamiltonian(n4_instance, n4_scheme, stats0),
                    LayerParams(0.5, 0.3, 0.6))
        stats1 = exact_group_stats(n4_scheme, state)
        terms = cost_hamiltonian_terms(n4_instance, n4_scheme, stats1)
        assert any(len(t.data_qubits) == 1 for t in terms)
        layer = LayerParams(0.9, 0.17, 0.05)
        native, deviation = compile_layer(n4_instance, n4_scheme, stats1, layer)
        assert deviation < 1e-9
        ref = layer_unitary(n4_instance, n4_scheme, stats1, layer)
        assert verify_unitary(native, ref) < 1e-9


class TestVerifyUnitary:
    def test_exact_diagonal_gives_zero(self, n4_scheme):
        term = HamiltonianTerm(0, (0, 1), 0.5)
        circuit = decompose_controls([term], n4_scheme)
        ref = ideal_controlled_phase(3, n4_scheme, term)
        assert verify_unitary(circuit, ref) < 1e-12

    def test_wrong_angle_detected(self, n4_scheme):
        circuit = decompose_controls([HamiltonianTerm(0, (0, 1), 0.5)], n4_scheme)
        ref = ideal_controlled_phase(3, n4_scheme, HamiltonianTerm(0, (0, 1), 0.51))
        assert verify_unitary(circuit, ref) > 1e-3

    def test_simulation_matches_kron_product(self):
        # 50 random native circuits; iSWAPs on non-adjacent and reversed pairs
        rng = np.random.default_rng(11)
        iswap_pairs = set()
        for _ in range(50):
            n = int(rng.integers(1, 5))
            circuit = Circuit(n)
            for _ in range(12):
                kind = rng.choice(["RX", "RZ", "X", "ISWAP"] if n > 1 else ["RX", "RZ", "X"])
                if kind == "ISWAP":
                    a, b = (int(v) for v in rng.choice(n, 2, replace=False))
                    circuit.add("ISWAP", a, b)
                    iswap_pairs.add((a, b))
                elif kind == "X":
                    circuit.add("X", int(rng.integers(n)))
                else:
                    angle = math.pi / 2 if kind == "RX" else float(rng.uniform(-math.pi, math.pi))
                    circuit.add(kind, int(rng.integers(n)), angle=angle)
            assert circuit.is_native()
            assert np.abs(circuit_unitary(circuit) - kron_unitary(circuit)).max() < 1e-12
        assert any(a - b > 1 for a, b in iswap_pairs)  # reversed and non-adjacent
        assert any(b - a > 1 for a, b in iswap_pairs)

    def test_native_circuit_is_not_lowered_again(self, monkeypatch):
        import qeopt.compiler as compiler

        native = to_native(Circuit(2).add("CNOT", 0, 1).add("RX", 1, angle=0.3))
        expected = circuit_unitary(native)

        def refuse(circuit):
            raise AssertionError("to_native called on a native circuit")

        monkeypatch.setattr(compiler, "to_native", refuse)
        np.testing.assert_array_equal(circuit_unitary(native), expected)
        with pytest.raises(AssertionError, match="to_native"):
            circuit_unitary(Circuit(2).add("CNOT", 0, 1))

    def test_qubit_cap(self):
        circuit = Circuit(13)
        with pytest.raises(ValueError, match="capped"):
            circuit_unitary(circuit)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        circuit = Circuit(3)
        circuit.add("RZ", 0, angle=math.pi / 3)
        circuit.add("ISWAP", 2, 0)
        circuit.add("CNOT", 1, 2)
        circuit.add("RX", 2, angle=0.1234567890123456789)
        circuit.add("X", 1)
        header, *lines = dumps(circuit).splitlines()
        assert header == "# circuit qubits=3"
        for line, gate in zip(lines, circuit.gates, strict=True):
            name, _, rest = line.partition(" ")
            fields = rest.split(",")
            n = len(gate.qubits)
            assert name == gate.name
            assert tuple(int(f) for f in fields[:n]) == gate.qubits
            assert [float(f) for f in fields[n:]] == ([] if gate.angle is None else [gate.angle])
