"""Dense statevector simulation for q <= 26 qubits.

Gate conventions (used by the ansatz and checked by the compiler oracle):
Rx(theta) = exp(-i theta X / 2), Rz(phi) = exp(-i phi Z / 2),
iSWAP = exp(i pi/4 (XX + YY)). The mixer exp(i beta sum_i X_i) is realized
as Rx(-2 beta) on every qubit. Qubit 0 is the most significant bit of the
basis index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qeopt.rng import stream

MAX_QUBITS = 26


@dataclass(frozen=True)
class DiagonalOperator:
    """Real diagonal operator in the computational basis."""

    n_qubits: int
    entries: np.ndarray  # (2**q,) float64

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.shape != (1 << self.n_qubits,):
            raise ValueError(f"expected {1 << self.n_qubits} entries, got {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("diagonal entries must be finite")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


class Statevector:
    """Length-2**q complex amplitude vector; gates mutate in place."""

    def __init__(self, n_qubits: int, amps: np.ndarray | None = None):
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n_qubits}")
        self.n_qubits = n_qubits
        if amps is None:
            amps = np.zeros(1 << n_qubits, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=np.complex128)
            if amps.shape != (1 << n_qubits,):
                raise ValueError(f"expected {1 << n_qubits} amplitudes, got {amps.shape}")
            amps = amps.copy()
        self.amps = amps

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amps)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    # -- single-qubit gates ------------------------------------------------

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.n_qubits:
            raise IndexError(f"qubit {qubit} out of range [0, {self.n_qubits})")

    def _apply_1q(self, qubit: int, u: np.ndarray) -> None:
        self._check_qubit(qubit)
        q = self.n_qubits
        view = self.amps.reshape(1 << qubit, 2, 1 << (q - 1 - qubit))
        a0 = view[:, 0, :]
        a1 = view[:, 1, :]
        new0 = u[0, 0] * a0 + u[0, 1] * a1
        a1[...] = u[1, 0] * a0 + u[1, 1] * a1
        a0[...] = new0

    def apply_rx(self, qubit: int, theta: float) -> "Statevector":
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        self._apply_1q(qubit, np.array([[c, -1j * s], [-1j * s, c]]))
        return self

    def apply_rz(self, qubit: int, phi: float) -> "Statevector":
        self._check_qubit(qubit)
        q = self.n_qubits
        view = self.amps.reshape(1 << qubit, 2, 1 << (q - 1 - qubit))
        view[:, 0, :] *= np.exp(-1j * phi / 2)
        view[:, 1, :] *= np.exp(1j * phi / 2)
        return self

    def apply_x(self, qubit: int) -> "Statevector":
        self._check_qubit(qubit)
        q = self.n_qubits
        view = self.amps.reshape(1 << qubit, 2, 1 << (q - 1 - qubit))
        view[:, [0, 1], :] = view[:, [1, 0], :]
        return self

    # -- two-qubit gates ---------------------------------------------------

    def apply_iswap(self, q1: int, q2: int) -> "Statevector":
        self._check_qubit(q1)
        self._check_qubit(q2)
        if q1 == q2:
            raise IndexError("iSWAP needs two distinct qubits")
        a, b = sorted((q1, q2))
        q = self.n_qubits
        view = self.amps.reshape(1 << a, 2, 1 << (b - a - 1), 2, 1 << (q - 1 - b))
        v01 = view[:, 0, :, 1, :].copy()
        view[:, 0, :, 1, :] = 1j * view[:, 1, :, 0, :]
        view[:, 1, :, 0, :] = 1j * v01
        return self

    # -- diagonal operators and the mixer ------------------------------------

    def _check_diagonal(self, diag: DiagonalOperator) -> None:
        if diag.n_qubits != self.n_qubits:
            raise ValueError(f"diagonal acts on {diag.n_qubits} qubits, state has {self.n_qubits}")

    def apply_diagonal_phase(self, diag: DiagonalOperator, gamma: float) -> "Statevector":
        """amp_k <- exp(i gamma entries_k) amp_k."""
        self._check_diagonal(diag)
        self.amps *= np.exp(1j * gamma * diag.entries)
        return self

    def apply_mixer(self, beta: float) -> "Statevector":
        """exp(i beta sum X_i) over all qubits."""
        for qubit in range(self.n_qubits):
            self.apply_rx(qubit, -2.0 * beta)
        return self

    # -- measurement ---------------------------------------------------------

    def sample(self, n_shots: int, seed: int = 0, key: tuple = ()) -> np.ndarray:
        """Multinomial shot counts, deterministic per seed: entry k of the
        length-2**q integer array counts the shots that read basis index k."""
        if n_shots < 1:
            raise ValueError(f"need at least one shot, got {n_shots}")
        probs = self.probabilities()
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        rng = stream(seed, "sample", *key)
        return rng.multinomial(n_shots, probs)

    def expectation_diagonal(self, diag: DiagonalOperator) -> float:
        self._check_diagonal(diag)
        return float(np.dot(diag.entries, self.probabilities()))


def init_plus(n_qubits: int) -> Statevector:
    """|+>^q, the uniform superposition."""
    state = Statevector(n_qubits)
    state.amps[:] = 2.0 ** (-n_qubits / 2)
    return state
