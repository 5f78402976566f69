"""Scalar reference for the encoding conventions, kept out of the package.

The package decodes data patterns with ``encoding.pattern_spins``, reads
them through the split spin tables of ``estimator.pair_product_table`` and
reshapes basis indices by label; the tests check it against this
variable-by-variable encoder and the dense spin table below.
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


def spin_table(d) -> np.ndarray:
    """(2**d, d) float64 spins +-1.0 of every d-bit data pattern, the dense
    table the package no longer builds: row k holds the spins of data bits k,
    data qubit 0 (the most significant bit) first, spin +1 for bit 0."""
    patterns = np.arange(1 << d)[:, None]
    shifts = np.arange(d - 1, -1, -1)[None, :]
    return (1 - 2 * ((patterns >> shifts) & 1)).astype(np.float64)


def split_rows(template, signs) -> np.ndarray:
    """The dense table whose row hi * len(template) + lo is signs[hi] * template[lo]."""
    return (signs[:, None, :] * template[None, :, :]).reshape(len(signs) * len(template), -1)
