"""Lowering of the phase separator to the {Rx(pi/2), Rz, iSWAP, X} gate set.

The pipeline is: commuting Hamiltonian terms -> the same terms with gamma
folded into their coefficients -> per data-target set, a Walsh expansion of
the label angles synthesized as a Gray-code walk of Rz rotations and CNOTs
(Welch et al., New J. Phys. 16, 033040 (2014)) -> native gates. One term
type, ``HamiltonianTerm``, runs from the estimator to the gate list. The
synthesis needs no ancillas, no X-conjugation and no Toffolis, so a
compiled layer runs on the q encoding qubits alone. Correctness is
certified numerically: the compiled circuit, simulated on every basis
column at once, must match the ideal unitary up to a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from qeopt.ansatz import LayerParams, apply_layer
from qeopt.encoding import EncodingScheme
from qeopt.estimator import (
    GroupStats,
    HamiltonianTerm,
    build_cost_hamiltonian,
    cost_hamiltonian_terms,
)
from qeopt.problem import SKInstance
from qeopt.simulator import Statevector

NATIVE_GATES = ("RX", "RZ", "ISWAP", "X")

# gate name -> (qubit count, takes angle)
GATE_SIGNATURES = {
    "RX": (1, True),
    "RZ": (1, True),
    "X": (1, False),
    "ISWAP": (2, False),
    "CNOT": (2, False),
}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in GATE_SIGNATURES:
            raise ValueError(f"unknown gate kind {self.name!r}")
        n_qubits, has_angle = GATE_SIGNATURES[self.name]
        if len(self.qubits) != n_qubits:
            raise ValueError(f"{self.name} takes {n_qubits} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} qubits must be distinct, got {self.qubits}")
        if has_angle != (self.angle is not None):
            raise ValueError(f"{self.name} angle mismatch: {self.angle}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError("gate angle must be finite")


@dataclass
class Circuit:
    """Ordered gate list over n_qubits wires."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def add(self, name: str, *qubits: int, angle: float | None = None) -> "Circuit":
        gate = Gate(name, qubits, angle)
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise IndexError(f"qubit {q} out of range [0, {self.n_qubits})")
        self.gates.append(gate)
        return self

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for g in self.gates:
            counts[g.name] = counts.get(g.name, 0) + 1
        return counts

    def depth(self) -> int:
        """Greedy layering depth with qubit-disjoint parallelism."""
        busy_until = [0] * self.n_qubits
        depth = 0
        for g in self.gates:
            layer = 1 + max(busy_until[q] for q in g.qubits)
            for q in g.qubits:
                busy_until[q] = layer
            depth = max(depth, layer)
        return depth

    def is_native(self) -> bool:
        return all(
            g.name in NATIVE_GATES and (g.name != "RX" or abs(g.angle - math.pi / 2) < 1e-15)
            for g in self.gates
        )


# ---------------------------------------------------------------------------
# Gamma-scaled terms
# ---------------------------------------------------------------------------


def lower_phase_separator(terms: list[HamiltonianTerm], gamma: float) -> list[HamiltonianTerm]:
    """The terms of exp(i gamma H), each with gamma folded into its coefficient.

    A scaled term stands for the label-controlled rotation
    exp(i coefficient Z...Z) on its data qubits. exp(i gamma H) factorizes
    exactly because all terms commute, so any ordering of the returned list
    compiles to the same unitary.
    """
    if gamma == 0.0:
        return []
    return [replace(term, coefficient=gamma * term.coefficient) for term in terms]


# ---------------------------------------------------------------------------
# Walsh / Gray-code synthesis
# ---------------------------------------------------------------------------


def _walsh(theta: np.ndarray) -> np.ndarray:
    """a_L = 2^-m sum_l (-1)^popcount(l & L) theta_l (fast butterfly)."""
    a = np.asarray(theta, dtype=np.float64)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        a = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).ravel()
        h *= 2
    return a / a.size


def decompose_controls(
    terms: list[HamiltonianTerm],
    scheme: EncodingScheme,
) -> Circuit:
    """Synthesize gamma-scaled terms over {CNOT, Rz}, no ancillas.

    Each term is the label-controlled rotation exp(i coefficient Z...Z) on
    its data qubits; the coefficients of terms sharing a (label, data-target
    set D) pair are summed into one angle. With
    P_l = 2^-m sum_L (-1)^popcount(l & L) Z_L (label qubit j holds bit
    m-1-j), the rotations on D become prod_L exp(i a_L Z_L Z_D). A CNOT folds
    the parity of D onto its last qubit; a cyclic Gray-code walk over the
    label subsets then applies each Rz(-2 a_L) = exp(i a_L Z) once, with one
    CNOT from the label qubit that flips per step, and a closing CNOT
    unfolds D: 2^m + 2(|D| - 1) CNOTs per D (2(|D| - 1) when m = 0).
    """
    m = scheme.n_label_qubits
    n_labels = 1 << m
    angles: dict[tuple[int, ...], np.ndarray] = {}
    for term in terms:
        if not 0 <= term.label < scheme.n_groups:
            raise ValueError(f"label {term.label} exceeds label range")
        angles.setdefault(term.data_qubits, np.zeros(n_labels))[term.label] += term.coefficient

    circuit = Circuit(scheme.n_qubits)
    for targets, theta in angles.items():
        wires = [m + t for t in targets]
        target = wires[-1]
        for w in wires[:-1]:
            circuit.add("CNOT", w, target)
        coeffs = _walsh(theta)
        for k in range(n_labels):
            code = k ^ (k >> 1)
            if coeffs[code] != 0.0:
                circuit.add("RZ", target, angle=-2.0 * coeffs[code])
            nxt = (k + 1) % n_labels
            flip = code ^ nxt ^ (nxt >> 1)
            if flip:
                circuit.add("CNOT", m - flip.bit_length(), target)
        for w in reversed(wires[:-1]):
            circuit.add("CNOT", w, target)
    return circuit


# ---------------------------------------------------------------------------
# Native rewriting
# ---------------------------------------------------------------------------

_HALF_PI = math.pi / 2


def _native_rx(qubit: int, theta: float) -> list[Gate]:
    """Rx(theta) over {Rx(pi/2), Rz}; exact identities, no phase slip."""
    theta = math.remainder(theta, 4.0 * math.pi)
    if abs(theta - _HALF_PI) < 1e-15:
        return [Gate("RX", (qubit,), _HALF_PI)]
    if abs(theta + _HALF_PI) < 1e-15:
        # Rx(-pi/2) = Rz(pi) Rx(pi/2) Rz(-pi)
        return [
            Gate("RZ", (qubit,), -math.pi),
            Gate("RX", (qubit,), _HALF_PI),
            Gate("RZ", (qubit,), math.pi),
        ]
    # Rx(theta) = Rz(-pi/2) Rx(pi/2) Rz(pi - theta) Rx(pi/2) Rz(-pi/2)
    return [
        Gate("RZ", (qubit,), -_HALF_PI),
        Gate("RX", (qubit,), _HALF_PI),
        Gate("RZ", (qubit,), math.pi - theta),
        Gate("RX", (qubit,), _HALF_PI),
        Gate("RZ", (qubit,), -_HALF_PI),
    ]


def _native_cnot(control: int, target: int) -> list[Gate]:
    """CNOT from two iSWAPs with one-qubit corrections (up to global phase).

    CNOT = (I x Rx(-pi/2) Rz(pi/2)) iSWAP (Rx(pi/2) x I) iSWAP
           (Rz(-pi/2) x Rz(pi/2) Rx(pi))
    """
    seq = [
        Gate("X", (target,)),  # Rx(pi) up to phase
        Gate("RZ", (target,), _HALF_PI),
        Gate("RZ", (control,), -_HALF_PI),
        Gate("ISWAP", (control, target)),
        Gate("RX", (control,), _HALF_PI),
        Gate("ISWAP", (control, target)),
        Gate("RZ", (target,), _HALF_PI),
    ]
    seq.extend(_native_rx(target, -_HALF_PI))
    return seq


def to_native(circuit: Circuit) -> Circuit:
    """Rewrite {CNOT, Rx(any), Rz, X, iSWAP} into native gates."""
    native = Circuit(circuit.n_qubits)
    for gate in circuit.gates:
        if gate.name == "RX":
            native.gates.extend(_native_rx(gate.qubits[0], gate.angle))
        elif gate.name == "CNOT":
            native.gates.extend(_native_cnot(*gate.qubits))
        else:
            native.gates.append(gate)
    return native


# ---------------------------------------------------------------------------
# Verification by simulation
# ---------------------------------------------------------------------------

# 2q simulated qubits at q = 12 hold 2^24 amplitudes: 256 MiB
VERIFY_QUBIT_CAP = 12


def _check_verifiable(n_qubits: int) -> None:
    if n_qubits > VERIFY_QUBIT_CAP:
        raise ValueError(f"verification capped at {VERIFY_QUBIT_CAP} qubits, got {n_qubits}")


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary over the circuit's qubits (qubit 0 = MSB).

    The native circuit runs on a 2q-qubit statevector holding the identity:
    amplitude (row, col) sits at index row * 2^q + col, so the gates act on
    the row index (qubits 0..q-1) of every column at once. A circuit that is
    not native yet is lowered first, so no CNOT reaches the gate loop.
    """
    q = circuit.n_qubits
    _check_verifiable(q)
    dim = 1 << q
    state = Statevector(2 * q)
    state.amps[:: dim + 1] = 1.0
    if not circuit.is_native():
        circuit = to_native(circuit)
    for gate in circuit.gates:
        if gate.name == "RX":
            state.apply_rx(gate.qubits[0], gate.angle)
        elif gate.name == "RZ":
            state.apply_rz(gate.qubits[0], gate.angle)
        elif gate.name == "X":
            state.apply_x(gate.qubits[0])
        else:
            state.apply_iswap(*gate.qubits)
    return state.amps.reshape(dim, dim)


def verify_unitary(circuit: Circuit, reference: np.ndarray) -> float:
    """Max deviation from the reference after global-phase alignment.

    ``reference`` is either a dense 2**q x 2**q unitary or the 1-D complex
    diagonal of a diagonal unitary.
    """
    compiled = circuit_unitary(circuit)
    reference = np.asarray(reference, dtype=complex)
    dim = compiled.shape[0]
    if reference.ndim == 1:
        if reference.shape != (dim,):
            raise ValueError(f"diagonal reference needs {dim} entries")
        reference = np.diag(reference)
    elif reference.shape != (dim, dim):
        raise ValueError(f"reference must be {dim} x {dim}")

    overlap = np.vdot(reference, compiled)
    if abs(overlap) < 1e-12:
        return float(np.abs(compiled - reference).max())
    phase = overlap / abs(overlap)
    return float(np.abs(compiled / phase - reference).max())


def compile_layer(
    instance: SKInstance,
    scheme: EncodingScheme,
    stats: GroupStats,
    layer: LayerParams,
) -> tuple[Circuit, float]:
    """Compile one full layer (phase separator, bias Rz, mixer Rx) to native
    gates and return it with its deviation from the ideal layer unitary."""
    _check_verifiable(scheme.n_qubits)
    terms = cost_hamiltonian_terms(instance, scheme, stats)
    circuit = decompose_controls(lower_phase_separator(terms, layer.gamma), scheme)
    for qubit in range(scheme.n_qubits):
        if layer.gamma_bias:
            circuit.add("RZ", qubit, angle=-2.0 * layer.gamma_bias)
        circuit.add("RX", qubit, angle=-2.0 * layer.beta)
    native = to_native(circuit)

    ham = build_cost_hamiltonian(instance, scheme, stats)
    reference = np.empty((scheme.dim, scheme.dim), dtype=complex)
    for col in range(scheme.dim):
        basis = np.zeros(scheme.dim, dtype=complex)
        basis[col] = 1.0
        state = Statevector(scheme.n_qubits, basis)
        apply_layer(state, ham, layer)
        reference[:, col] = state.amps
    return native, verify_unitary(native, reference)


# ---------------------------------------------------------------------------
# Serialization: one gate per line, `GATE q[,q2][,angle]`
# ---------------------------------------------------------------------------


def dumps(circuit: Circuit) -> str:
    lines = [f"# circuit qubits={circuit.n_qubits}"]
    for g in circuit.gates:
        parts = [str(q) for q in g.qubits]
        if g.angle is not None:
            parts.append(format(g.angle, ".17g"))
        lines.append(f"{g.name} {','.join(parts)}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# circuit"):
        raise ValueError("missing circuit header line")
    header = dict(kv.split("=") for kv in lines[0].removeprefix("# circuit").split())
    circuit = Circuit(int(header["qubits"]))
    for ln in lines[1:]:
        name, _, rest = ln.partition(" ")
        if name not in GATE_SIGNATURES:
            raise ValueError(f"unknown gate kind {name!r}")
        n_qubits, has_angle = GATE_SIGNATURES[name]
        parts = rest.split(",")
        expected = n_qubits + (1 if has_angle else 0)
        if len(parts) != expected:
            raise ValueError(f"bad gate line {ln!r}: expected {expected} fields")
        qubits = [int(p) for p in parts[:n_qubits]]
        angle = float(parts[n_qubits]) if has_angle else None
        circuit.add(name, *qubits, angle=angle)
    return circuit
