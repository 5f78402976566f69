"""Many-to-one mapping of N spin variables onto d + log2(N/d) qubits.

Variables are split into N/d groups of d consecutive spins. Group ``l``
holds variables ``d*l .. d*l+d-1``; a basis state ``|l>|b>`` stores the
d spins of group ``l`` in the data bits ``b``. Conventions fixed here and
used everywhere in the package:

* qubit 0 is the most significant bit of a basis index,
* label qubits occupy the most significant positions, data qubit 0 is the
  most significant data bit,
* spin +1 maps to bit 0, spin -1 to bit 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EncodingScheme:
    """Index arithmetic for the (N, d) -> (label, data) qubit layout."""

    n_vars: int
    group_size: int
    n_groups: int
    n_label_qubits: int
    n_qubits: int
    padded: bool = False
    n_vars_raw: int | None = None  # pre-padding variable count, if padded

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def label_of(self, i: int) -> int:
        """Group label l_i = floor(i / d) owning variable i."""
        if not 0 <= i < self.n_vars:
            raise IndexError(f"variable index {i} out of range [0, {self.n_vars})")
        return i // self.group_size

    def data_qubit_of(self, i: int) -> int:
        """Data qubit d_i = i mod d storing variable i."""
        if not 0 <= i < self.n_vars:
            raise IndexError(f"variable index {i} out of range [0, {self.n_vars})")
        return i % self.group_size


def make_scheme(n_vars: int, group_size: int, allow_padding: bool = False) -> EncodingScheme:
    """Build a scheme for N variables in groups of d.

    N/d must be an exact power of two; with ``allow_padding`` N is raised to
    the smallest d * 2**k >= N and the dummy variables are flagged (they
    carry zero weights downstream and are stripped from reported solutions).
    """
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    if n_vars < 2:
        raise ValueError(f"need at least 2 variables, got {n_vars}")
    if group_size > n_vars:
        raise ValueError(f"group size {group_size} exceeds variable count {n_vars}")

    d = group_size
    padded_n = n_vars
    if not _is_pow2_multiple(n_vars, d):
        if not allow_padding:
            raise ValueError(
                f"N/d must be a power of two: N={n_vars}, d={d} "
                f"(pass allow_padding=True to pad with zero-weight variables)"
            )
        k = 0
        while d << k < n_vars:
            k += 1
        padded_n = d << k

    n_groups = padded_n // d
    m = n_groups.bit_length() - 1
    return EncodingScheme(
        n_vars=padded_n,
        group_size=d,
        n_groups=n_groups,
        n_label_qubits=m,
        n_qubits=d + m,
        padded=padded_n != n_vars,
        n_vars_raw=n_vars if padded_n != n_vars else None,
    )


def _is_pow2_multiple(n: int, d: int) -> bool:
    if n % d != 0:
        return False
    q = n // d
    return q & (q - 1) == 0


def validate_spins(scheme: EncodingScheme, spins: np.ndarray) -> np.ndarray:
    spins = np.asarray(spins)
    if spins.shape != (scheme.n_vars,):
        raise ValueError(f"expected {scheme.n_vars} spins, got shape {spins.shape}")
    if not np.all(np.abs(spins) == 1):
        raise ValueError("spins must be +1 or -1")
    return spins.astype(np.int8)


def spins_to_data_bits(spins_group: np.ndarray) -> int:
    """Pack d spins into data bits, data qubit 0 as the most significant bit."""
    bits = 0
    for s in spins_group:
        bits = (bits << 1) | (0 if s > 0 else 1)
    return bits


def data_bits_to_spins(bits: int, d: int) -> np.ndarray:
    """Inverse of :func:`spins_to_data_bits`."""
    return np.array([1 if (bits >> (d - 1 - j)) & 1 == 0 else -1 for j in range(d)], dtype=np.int8)


def encode_target(scheme: EncodingScheme, spins: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Amplitudes of sum_l lambda_l |l>|z_l> for a full spin assignment."""
    spins = validate_spins(scheme, spins)
    lambdas = np.asarray(lambdas, dtype=np.complex128)
    if lambdas.shape != (scheme.n_groups,):
        raise ValueError(f"expected {scheme.n_groups} group amplitudes, got shape {lambdas.shape}")
    norm = np.sum(np.abs(lambdas) ** 2)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"group amplitudes must be normalized, |lambda|^2 sums to {norm}")

    d = scheme.group_size
    amps = np.zeros(scheme.dim, dtype=np.complex128)
    for label in range(scheme.n_groups):
        bits = spins_to_data_bits(spins[d * label : d * (label + 1)])
        amps[(label << d) | bits] += lambdas[label]
    return amps


def uniform_lambdas(scheme: EncodingScheme) -> np.ndarray:
    return np.full(scheme.n_groups, 1.0 / np.sqrt(scheme.n_groups), dtype=np.complex128)


def decode_shot(scheme: EncodingScheme, basis_index: int) -> tuple[int, np.ndarray]:
    """Split a measured basis index into (group label, d spins of that group)."""
    if not 0 <= basis_index < scheme.dim:
        raise IndexError(f"basis index {basis_index} out of range [0, {scheme.dim})")
    d = scheme.group_size
    label = basis_index >> d
    return label, data_bits_to_spins(basis_index & ((1 << d) - 1), d)


def basis_spin_table(d: int) -> np.ndarray:
    """(2**d, d) table of spin values per data bit pattern, cached per d."""
    table = _SPIN_TABLES.get(d)
    if table is None:
        patterns = np.arange(1 << d)[:, None]
        shifts = np.arange(d - 1, -1, -1)[None, :]
        table = 1 - 2 * ((patterns >> shifts) & 1)
        table = table.astype(np.int8)
        table.setflags(write=False)
        _SPIN_TABLES[d] = table
    return table


_SPIN_TABLES: dict[int, np.ndarray] = {}
