"""Dense statevector simulation for q <= 26 qubits.

Gate conventions (used by the ansatz and checked by the compiler oracle):
Rx(theta) = exp(-i theta X / 2), Rz(phi) = exp(-i phi Z / 2),
iSWAP = exp(i pi/4 (XX + YY)). The mixer exp(i beta sum_i X_i) is realized
as Rx(-2 beta) on every qubit, qubit 0 first. Qubit 0 is the most
significant bit of the basis index.

One pass routine, ``_rx_passes``, serves both ``apply_rx`` (one qubit) and
the mixer (every qubit), and gives the bits of the textbook two-by-two
update. Rx has u00 = u11 = (c, 0) and u01 = u10 = (0, -s), so each component
of u00 amp and of u01 amp[partner] is a single rounded product, whichever
numpy loop (SIMD, FMA or scalar) computes it, and amp_new = u00 amp + u01
amp[partner] is one IEEE add, which commutes. A pass therefore needs no 2x2
matrix: it stages u01 amp[partner] in a scratch array and updates the state
in place. Passes whose partner lies within a block of 2**BLOCK_QUBITS
amplitudes (the last BLOCK_QUBITS qubits) run block by block, so the block
stays in cache through all of them; the earlier passes run over pairs of
blocks. The scratch is two blocks.

The diagonal phase, exp(i gamma entries), runs in blocks of 2**BLOCK_QUBITS
amplitudes with no state-sized temporary: it writes cos and sin of
gamma * entries into one reused complex block and multiplies the state by it
in place. That is the phase ``np.exp(1j * gamma * entries)`` gives, bit for
bit. With c = 1j * gamma, the complex product c * (e + 0j) has a real part
of +-0 and the imaginary part c.imag * e + c.real * 0, which is gamma * e
rounded once, with the zero term setting only the sign of a zero angle; the
kernel computes the same two terms. glibc's cexp of (+-0, y) is
(cos y, sin y), the values numpy's float64 cos and sin take from the same
libm. The tests pin the blocked phase against the whole-array form, signed
zeros included.

The bias, exp(i gamma' sum_i Z_i) = Rz(-2 gamma') on qubits 0..q-1, runs in
the same blocks, after each block's phase, and gives the bits of q
``apply_rz`` calls. Both multiply by one phase pair (``_rz_pair``), qubit 0
first: a qubit above the block is constant over it, so the block takes that
scalar row of the pair; a qubit inside the block multiplies the block's
(..., 2, stride) view by the broadcast pair, as ``apply_rz`` does the
state's. A general complex product has no single-rounding guarantee: its bits
depend on the loop numpy picks for the operand layout. The tests pin the
fused kernel against the phase and q broadcast multiplies at several block
sizes, and the broadcast against the two per-half multiplies for q >= 2; on a
one-qubit state numpy rounds a one-element product without FMA and the two
forms may differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qeopt.rng import stream

MAX_QUBITS = 26
BLOCK_QUBITS = 14  # the mixer's cache block: 2**14 amplitudes, 256 KiB


def _scaled_angle(name: str, value: float, scale: float) -> float:
    """``scale * value`` in Python floats (no overflow warning), refused if not finite."""
    if not math.isfinite(angle := scale * float(value)):
        raise ValueError(f"angle {scale!r} * {name} is not finite at {name} = {float(value)!r}")
    return angle


def _rz_pair(phi: float) -> np.ndarray:
    """Rz(phi)'s phases [[e^{-i phi/2}], [e^{i phi/2}]], one row per qubit value."""
    return np.array([[np.exp(-1j * phi / 2)], [np.exp(1j * phi / 2)]])


@dataclass(frozen=True)
class DiagonalOperator:
    """Real diagonal operator in the computational basis.

    The operator takes ownership of its entries: a float64 array is kept
    as it is, without a copy, and made read-only in place; other inputs are
    converted first.
    """

    n_qubits: int
    entries: np.ndarray  # (2**q,) float64

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.shape != (1 << self.n_qubits,):
            raise ValueError(f"expected {1 << self.n_qubits} entries, got {e.shape}")
        largest = max(float(e.max()), -float(e.min()))  # max |entry|, or nan or inf
        if not math.isfinite(largest):
            raise ValueError("diagonal entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "_largest", largest)


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

    def probabilities(self) -> np.ndarray:
        probs = np.abs(self.amps)
        return np.square(probs, out=probs)

    # -- single-qubit gates ------------------------------------------------

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.n_qubits:
            raise IndexError(f"qubit {qubit} out of range [0, {self.n_qubits})")

    def apply_rx(self, qubit: int, theta: float) -> "Statevector":
        self._check_qubit(qubit)
        self._rx_passes(range(qubit, qubit + 1), _scaled_angle("theta", theta, 1.0))
        return self

    def apply_rz(self, qubit: int, phi: float) -> "Statevector":
        self._check_qubit(qubit)
        view = self.amps.reshape(1 << qubit, 2, 1 << (self.n_qubits - 1 - qubit))
        view *= _rz_pair(_scaled_angle("phi", phi, 1.0))
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

    def apply_diagonal_phase(self, diag: DiagonalOperator, gamma: float,
                             gamma_bias: float = 0.0) -> "Statevector":
        """amp_k <- exp(i gamma entries_k) amp_k, then, if gamma' is not zero,
        the bias Rz(-2 gamma') on qubits 0..q-1, in blocks of 2**BLOCK_QUBITS
        amplitudes; both angles are checked before any amplitude changes (see
        the module docstring for why these are the bits of exp and apply_rz)."""
        self._check_diagonal(diag)
        _scaled_angle("gamma", gamma, diag._largest)  # bounds |gamma * entry|
        pair = None if gamma_bias == 0.0 else _rz_pair(_scaled_angle("gamma'", gamma_bias, -2.0))
        q = self.n_qubits
        size = min(self.dim, 1 << BLOCK_QUBITS)
        high = q - (size.bit_length() - 1)  # qubits whose value is constant over a block
        angle, phase = np.empty(size), np.empty(size, dtype=np.complex128)
        # the angle is the imaginary part of (1j * gamma) * (entry + 0j)
        coeff = 1j * gamma
        for start in range(0, self.dim, size):
            block = self.amps[start:start + size]
            np.multiply(diag.entries[start:start + size], coeff.imag, out=angle)
            angle += coeff.real * 0.0
            np.cos(angle, out=phase.real)
            np.sin(angle, out=phase.imag)
            block *= phase
            if pair is None:
                continue
            for qubit in range(high):
                block *= pair[(start >> (q - 1 - qubit)) & 1, 0]
            for qubit in range(high, q):
                halves = block.reshape(-1, 2, 1 << (q - 1 - qubit))
                halves *= pair
        return self

    def apply_mixer(self, beta: float) -> "Statevector":
        """exp(i beta sum X_i) over all qubits: Rx(-2 beta) on qubits 0..q-1 in turn."""
        self._rx_passes(range(self.n_qubits), _scaled_angle("beta", beta, -2.0))
        return self

    def _rx_passes(self, qubits: range, theta: float) -> None:
        """Rx(theta) on each of ``qubits`` in increasing order, each pass
        amp <- u00 amp + u01 amp[partner] (see the module docstring for why
        this equals the two-by-two update bit for bit)."""
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        u00, u01 = complex(c), -1j * s
        rows = self.amps.reshape(-1, min(self.dim, 1 << BLOCK_QUBITS))
        scratch = np.empty((2, rows.shape[1]), dtype=np.complex128)
        high = rows.shape[0].bit_length() - 1  # qubits whose partner is in another block
        for qubit in range(qubits.start, min(qubits.stop, high)):
            for a_rows, b_rows in rows.reshape(1 << qubit, 2, -1, rows.shape[1]):
                for a, b in zip(a_rows, b_rows):
                    np.multiply(b, u01, out=scratch[0])
                    np.multiply(a, u01, out=scratch[1])
                    a *= u00
                    a += scratch[0]
                    b *= u00
                    b += scratch[1]
        partner = scratch[0]
        for row in rows:
            for qubit in range(max(qubits.start, high), qubits.stop):
                stride = 1 << (self.n_qubits - 1 - qubit)
                halves = row.reshape(-1, 2, stride)
                # at strides 1 and 2 numpy's default order loops over 2 x stride
                # elements at a time; "F" loops over the long outer axis instead
                np.multiply(halves[:, ::-1], u01, out=partner.reshape(halves.shape),
                            order="F" if stride <= 2 else "K")
                row *= u00
                row += partner

    # -- measurement ---------------------------------------------------------

    def sample(self, n_shots: int, seed: int = 0, key: tuple = ()) -> np.ndarray:
        """Multinomial shot counts, deterministic per seed: entry k of the
        length-2**q integer array counts the shots that read basis index k."""
        if n_shots < 1:
            raise ValueError(f"need at least one shot, got {n_shots}")
        probs = self.probabilities()
        probs /= probs.sum()
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
