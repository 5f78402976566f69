"""Scalar reference for the encoding conventions, kept out of the package.

The package decodes basis indices with ``basis_spin_table`` and reshapes by
label; the tests check it against this variable-by-variable encoder.
"""

import numpy as np


def encode_target(scheme, spins, lambdas=None) -> np.ndarray:
    """Amplitudes of sum_l lambda_l |l>|z_l>, built one variable at a time.

    Variable i lives in group label i // d on data qubit i % d; spin +1 is
    bit 0; data qubit 0 is the most significant data bit and the label sits
    above the data bits. ``lambdas`` defaults to uniform group amplitudes.
    """
    d = scheme.group_size
    if lambdas is None:
        lambdas = np.full(scheme.n_groups, 1.0 / np.sqrt(scheme.n_groups))
    assert len(spins) == scheme.n_vars and all(s in (1, -1) for s in spins)
    bits = [0] * scheme.n_groups
    for i, s in enumerate(spins):
        if s == -1:
            bits[i // d] |= 1 << (d - 1 - i % d)
    amps = np.zeros(scheme.dim, dtype=np.complex128)
    for label, pattern in enumerate(bits):
        amps[(label << d) | pattern] += lambdas[label]
    return amps
