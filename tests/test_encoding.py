from dataclasses import fields

import numpy as np
import pytest
from encoding_oracle import encode_target
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qeopt.encoding import basis_spin_table, make_scheme


class TestMakeScheme:
    def test_n12_d3_needs_five_qubits(self):
        scheme = make_scheme(12, 3)
        assert scheme.n_label_qubits == 2
        assert scheme.n_qubits == 5
        assert scheme.n_vars_raw is None

    def test_d_equals_n_has_no_label_register(self):
        scheme = make_scheme(4, 4)
        assert scheme.n_label_qubits == 0
        assert scheme.n_qubits == 4
        assert scheme.n_groups == 1

    def test_padding_raises_to_next_pow2_multiple(self):
        scheme = make_scheme(12, 4, allow_padding=True)
        assert scheme.n_vars == 16
        assert scheme.n_label_qubits == 2
        assert scheme.n_qubits == 6
        assert scheme.n_vars_raw == 12

    def test_non_pow2_group_count_rejected_without_padding(self):
        with pytest.raises(ValueError, match="power of two"):
            make_scheme(12, 4)

    @pytest.mark.parametrize("n, d", [(4, 5), (4, 0), (1, 1)])
    def test_invalid_sizes(self, n, d):
        with pytest.raises(ValueError):
            make_scheme(n, d)

    @given(st.integers(1, 8), st.integers(2, 200))
    def test_derived_sizes_with_and_without_padding(self, d, n):
        assume(n >= d)
        scheme = make_scheme(n, d, allow_padding=True)
        assert [f.name for f in fields(scheme)] == ["n_vars", "group_size", "n_vars_raw"]
        groups, rest = divmod(scheme.n_vars, d)
        assert rest == 0 and groups & (groups - 1) == 0
        assert scheme.n_vars >= n and (groups == 1 or scheme.n_vars // 2 < n)
        assert scheme.n_groups == groups
        assert 1 << scheme.n_label_qubits == groups
        assert scheme.n_qubits == d + scheme.n_label_qubits
        assert scheme.dim == 1 << scheme.n_qubits
        if scheme.n_vars == n:
            assert scheme.n_vars_raw is None
            assert make_scheme(n, d) == scheme
        else:
            assert scheme.n_vars_raw == n
            with pytest.raises(ValueError, match="power of two"):
                make_scheme(n, d)


def site_of(scheme, i):
    """(label, data qubit) holding variable i: the oracle encodes the string
    whose only -1 is variable i, and basis_spin_table decodes its support."""
    spins = np.ones(scheme.n_vars, dtype=int)
    spins[i] = -1
    d = scheme.group_size
    table = basis_spin_table(d)
    sites = [(int(index) >> d, int(qubit))
             for index in np.flatnonzero(encode_target(scheme, spins))
             for qubit in np.flatnonzero(table[index & ((1 << d) - 1)] == -1)]
    assert len(sites) == 1
    return sites[0]


class TestIndexMaps:
    def test_label_of(self):
        scheme = make_scheme(12, 3)
        assert site_of(scheme, 5)[0] == 1
        assert site_of(scheme, 0)[0] == 0

    def test_d1_every_variable_its_own_group(self):
        scheme = make_scheme(8, 1)
        assert site_of(scheme, 7) == (7, 0)

    def test_data_qubit_of(self):
        scheme = make_scheme(12, 3)
        assert site_of(scheme, 5)[1] == 2
        assert site_of(scheme, 3)[1] == 0

    def test_d_equals_n_identity_map(self):
        scheme = make_scheme(8, 8)
        for k in range(8):
            assert site_of(scheme, k) == (0, k)

    @given(st.sampled_from([(4, 1), (4, 2), (4, 4), (8, 2), (16, 4), (12, 3)]))
    def test_index_map_is_bijective(self, shape):
        n, d = shape
        scheme = make_scheme(n, d)
        images = [site_of(scheme, i) for i in range(n)]
        assert images == [(i // d, i % d) for i in range(n)]
        assert set(images) == {(l, a) for l in range(scheme.n_groups) for a in range(d)}


class TestEncodeTarget:
    def test_ground_state_of_the_worked_example(self, n4_scheme):
        z = np.array([1, -1, 1, -1])
        amps = encode_target(n4_scheme, z)
        expected = np.zeros(8, dtype=complex)
        expected[0b001] = expected[0b101] = 1 / np.sqrt(2)
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_d_equals_n_gives_product_state(self):
        scheme = make_scheme(4, 4)
        z = np.array([1, -1, -1, 1])
        amps = encode_target(scheme, z, np.array([1.0]))
        expected = np.zeros(16, dtype=complex)
        expected[0b0110] = 1.0
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_all_up_uniform_lambda_hand_built(self, n4_scheme):
        amps = encode_target(n4_scheme, np.ones(4))
        hand = np.zeros(8, dtype=complex)
        hand[0b000] = hand[0b100] = 1 / np.sqrt(2)
        np.testing.assert_allclose(amps, hand, atol=1e-15)

    def test_norm_and_support(self, n4_scheme):
        rng = np.random.default_rng(0)
        lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lam /= np.linalg.norm(lam)
        amps = encode_target(n4_scheme, np.array([1, 1, -1, -1]), lam)
        assert abs(np.linalg.norm(amps) - 1) < 1e-12
        assert np.count_nonzero(amps) == n4_scheme.n_groups


class TestDecodeShot:
    """A shot that reads basis index k belongs to label k >> d and carries the
    spins basis_spin_table(d)[k mod 2**d]; the estimator and the rounding
    read shots this way."""

    def test_supp_table_rows(self, n4_scheme):
        table = basis_spin_table(n4_scheme.group_size)
        assert 0b001 >> 2 == 0
        np.testing.assert_array_equal(table[0b001 & 0b11], [1, -1])
        assert 0b100 >> 2 == 1
        np.testing.assert_array_equal(table[0b100 & 0b11], [1, 1])

    def test_d_equals_n_full_string(self):
        scheme = make_scheme(4, 4)
        assert 0b0101 >> scheme.group_size == 0
        np.testing.assert_array_equal(basis_spin_table(4)[0b0101], [1, -1, 1, -1])

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_round_trip_single_basis_states(self, label, pattern):
        scheme = make_scheme(8, 2)
        spins = np.ones(8, dtype=int)
        spins[2 * label : 2 * label + 2] = basis_spin_table(2)[pattern]
        lam = np.zeros(4)
        lam[label] = 1.0
        assert np.flatnonzero(encode_target(scheme, spins, lam)).tolist() == [(label << 2) | pattern]


@settings(max_examples=30)
@given(st.integers(1, 6), st.integers(0, 63))
def test_bit_packing_round_trip(d, bits):
    """basis_spin_table unpacks exactly the data bits the oracle packs."""
    bits = bits & ((1 << d) - 1)
    spins = np.concatenate([basis_spin_table(d)[bits], np.ones(d, dtype=np.int8)])
    amps = encode_target(make_scheme(2 * d, d), spins, np.array([1.0, 0.0]))
    assert np.flatnonzero(amps).tolist() == [bits]


def test_spin_table_matches_scalar_decoding():
    for d in range(1, 7):
        table = basis_spin_table(d)
        assert table.shape == (1 << d, d) and not table.flags.writeable
        assert basis_spin_table(d) is table
        for pattern in range(1 << d):
            expected = [1 if (pattern >> (d - 1 - j)) & 1 == 0 else -1 for j in range(d)]
            assert table[pattern].tolist() == expected
