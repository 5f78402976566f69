"""Many-to-one mapping of N spin variables onto d + log2(N/d) qubits.

Variables are split into N/d groups of d consecutive spins. Group ``l``
holds variables ``d*l .. d*l+d-1``; a basis state ``|l>|b>`` stores the
d spins of group ``l`` in the data bits ``b``. Conventions fixed here and
used everywhere in the package:

* qubit 0 is the most significant bit of a basis index,
* label qubits occupy the most significant positions, data qubit 0 is the
  most significant data bit,
* spin +1 maps to bit 0, spin -1 to bit 1.

So data qubit a of pattern b holds spin 1 - 2 * ((b >> (d - 1 - a)) & 1).
``pattern_spins`` is the one decoder of that format. The package keeps no
table with a row per pattern: the estimator's spin and pair tables come in
split form (``estimator.pair_product_table``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EncodingScheme:
    """Index arithmetic for the (N, d) -> (label, data) qubit layout."""

    n_vars: int
    group_size: int

    @property
    def n_groups(self) -> int:
        return self.n_vars // self.group_size

    @property
    def n_label_qubits(self) -> int:
        return self.n_groups.bit_length() - 1

    @property
    def n_qubits(self) -> int:
        return self.group_size + self.n_label_qubits

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def pattern_spins(patterns, d: int) -> np.ndarray:
    """Float64 spins +-1.0 of d-bit data patterns, data qubit 0 first: shape
    (d,) for one pattern, (len(patterns), d) for a 1-D array of them."""
    shifts = np.arange(d - 1, -1, -1)
    return (1 - 2 * ((np.asarray(patterns)[..., None] >> shifts) & 1)).astype(np.float64)


def make_scheme(n_vars: int, group_size: int) -> EncodingScheme:
    """Build a scheme for N variables in groups of d; N/d must be an exact
    power of two (``problem.pad_instance`` pads an instance that does not fit)."""
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    if n_vars < 2:
        raise ValueError(f"need at least 2 variables, got {n_vars}")
    if group_size > n_vars:
        raise ValueError(f"group size {group_size} exceeds variable count {n_vars}")
    if not is_pow2_multiple(n_vars, group_size):
        raise ValueError(f"N/d must be a power of two: N={n_vars}, d={group_size}")
    return EncodingScheme(n_vars=n_vars, group_size=group_size)


def is_pow2_multiple(n: int, d: int) -> bool:
    """Whether groups of d >= 1 split n variables into a power-of-two number of labels."""
    if d < 1 or n % d != 0:
        return False
    q = n // d
    return q & (q - 1) == 0

