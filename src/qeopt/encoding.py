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
from functools import cache

import numpy as np


@dataclass(frozen=True)
class EncodingScheme:
    """Index arithmetic for the (N, d) -> (label, data) qubit layout."""

    n_vars: int
    group_size: int
    n_vars_raw: int | None = None  # pre-padding variable count, if padded

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

    return EncodingScheme(
        n_vars=padded_n,
        group_size=d,
        n_vars_raw=n_vars if padded_n != n_vars else None,
    )


def _is_pow2_multiple(n: int, d: int) -> bool:
    if n % d != 0:
        return False
    q = n // d
    return q & (q - 1) == 0


@cache
def basis_spin_table(d: int) -> np.ndarray:
    """(2**d, d) read-only table of spin values per data bit pattern, cached per d."""
    patterns = np.arange(1 << d)[:, None]
    shifts = np.arange(d - 1, -1, -1)[None, :]
    table = (1 - 2 * ((patterns >> shifts) & 1)).astype(np.int8)
    table.setflags(write=False)
    return table
