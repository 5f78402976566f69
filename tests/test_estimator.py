import functools
import importlib
import logging
import pkgutil

import numpy as np
import pytest
from encoding_oracle import encode_target, spin_table, split_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeopt.encoding import make_scheme
import qeopt.estimator
from qeopt.estimator import (
    GroupStats,
    HamiltonianTerm,
    _group_weights,
    _stats_from_probs,
    build_cost_hamiltonian,
    cost_hamiltonian_terms,
    cross_group_fields,
    data_pair_indices,
    estimate_cost,
    exact_group_stats,
    pair_product_table,
    shot_group_stats,
)
from qeopt.optimizer import OptimizerConfig, optimize
from qeopt.problem import WEIGHT_KINDS, SKInstance, cost, generate_sk
from qeopt.rng import stream
from qeopt.simulator import DiagonalOperator, Statevector, init_plus


def random_state(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


class TestExactStats:
    def test_plus_state(self, n4_scheme):
        stats = exact_group_stats(n4_scheme, init_plus(3))
        np.testing.assert_allclose(stats.p_label, 0.5)
        np.testing.assert_allclose(stats.zbar, 0.0, atol=1e-14)
        assert stats.observed.all()

    def test_encoded_string_has_definite_values(self, n4_scheme):
        rng = np.random.default_rng(8)
        z = rng.choice([-1, 1], size=4)
        state = Statevector(3, encode_target(n4_scheme, z))
        stats = exact_group_stats(n4_scheme, state)
        np.testing.assert_allclose(stats.zbar, z, atol=1e-12)
        assert stats.corr_matrix[0, 0] == pytest.approx(z[0] * z[1])
        assert stats.corr_matrix[1, 0] == pytest.approx(z[2] * z[3])

    def test_supp_bell_pattern(self, n4_scheme):
        # c0 = c3 = 1/sqrt(2): zbar vanishes, corr(0,1) = +1
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[3] = 2**-0.5
        stats = exact_group_stats(n4_scheme, Statevector(3, amps))
        assert stats.zbar[0] == pytest.approx(0.0, abs=1e-14)
        assert stats.zbar[1] == pytest.approx(0.0, abs=1e-14)
        assert stats.corr_matrix[0, 0] == pytest.approx(1.0)
        assert not stats.observed[1]

    def test_unobserved_label_flagged_and_zeroed(self, n4_scheme):
        amps = np.zeros(8, dtype=complex)
        amps[1] = 1.0  # support only on label 0
        stats = exact_group_stats(n4_scheme, Statevector(3, amps))
        assert stats.observed[0] and not stats.observed[1]
        assert stats.n_unobserved == 1
        np.testing.assert_array_equal(stats.zbar[2:], 0.0)
        assert stats.corr_matrix[1, 0] == 0.0


class TestShotStats:
    def test_concentrated_counts(self, n4_scheme):
        counts = np.zeros(8, dtype=np.int64)
        counts[0b001] = 50
        stats = shot_group_stats(n4_scheme, counts)
        np.testing.assert_allclose(stats.zbar[:2], [1, -1])
        assert stats.corr_matrix[0, 0] == pytest.approx(-1.0)
        assert not stats.observed[1]

    def test_malformed_counts_rejected(self, n4_scheme):
        for counts in (
            np.full(4, 5),  # a 2-qubit histogram for a 3-qubit scheme
            np.full((2, 4), 5),  # right size, wrong shape
            np.full(8, 0.5),  # frequencies, not counts
            np.array([6, -1, 0, 0, 0, 0, 0, 0]),  # sums to 5, one count negative
            np.zeros(8, dtype=np.int64),  # no shots
        ):
            with pytest.raises(ValueError):
                shot_group_stats(n4_scheme, counts)

    def test_converges_to_exact(self, n4_instance, n4_scheme):
        from qeopt.ansatz import LayerParams, run_ansatz

        trace = run_ansatz(n4_instance, n4_scheme, [LayerParams(0.9, 0.3, 0.2)])
        exact = exact_group_stats(n4_scheme, trace.final_state)
        counts = trace.final_state.sample(10_000, seed=3)
        shots = shot_group_stats(n4_scheme, counts)
        np.testing.assert_allclose(shots.zbar, exact.zbar, atol=0.05)
        np.testing.assert_allclose(shots.corr_matrix, exact.corr_matrix, atol=0.05)

    def test_conditionally_unbiased_pair_correlation(self, n4_scheme):
        rng = np.random.default_rng(17)
        state = random_state(rng, 3)
        exact = exact_group_stats(n4_scheme, state)
        reps = 200
        values = np.empty(reps)
        for rep in range(reps):
            counts = state.sample(1000, seed=rep, key=("unbiased",))
            stats = shot_group_stats(n4_scheme, counts)
            assert stats.observed.all()  # 1000 shots, both labels near 1/2
            values[rep] = stats.corr_matrix[0, 0]
        se = values.std(ddof=1) / np.sqrt(reps)
        assert abs(values.mean() - exact.corr_matrix[0, 0]) < max(3 * se, 1e-12)


def reference_dict_sample(state, n_shots, seed, key):
    """Shot counts as a {basis index: count} dict, as sampling returned them
    before the count array was kept."""
    probs = np.clip(state.probabilities(), 0.0, None)
    counts = stream(seed, "sample", *key).multinomial(n_shots, probs / probs.sum())
    return {int(k): int(counts[k]) for k in np.nonzero(counts)[0]}


def reference_dict_stats(scheme, counts, n_shots):
    """The dict loop that rebuilt the frequency array for the shot statistics."""
    freq = np.zeros(scheme.dim)
    for index, count in counts.items():
        freq[index] = count / n_shots
    grouped_counts = freq.reshape(scheme.n_groups, -1).sum(axis=1)
    return _stats_from_probs(scheme, freq, observed=grouped_counts > 0)


class TestCountArrayAgreement:
    """Count arrays give the statistics the dict path gave, bit for bit."""

    @pytest.mark.parametrize("n_shots", [7, 500, 20_000])
    @pytest.mark.parametrize("shape", [(4, 2), (16, 4), (64, 4)], ids=lambda s: "%dx%d" % s)
    def test_bit_identical_to_dict_path(self, shape, n_shots):
        n, d = shape
        scheme = make_scheme(n, d)
        state = random_state(np.random.default_rng(n + n_shots), scheme.n_qubits)
        key = ("agreement", n_shots)
        counts = state.sample(n_shots, seed=3, key=key)
        ref_counts = reference_dict_sample(state, n_shots, 3, key)
        assert {k: int(counts[k]) for k in np.nonzero(counts)[0]} == ref_counts
        got = shot_group_stats(scheme, counts)
        want = reference_dict_stats(scheme, ref_counts, n_shots)
        assert np.array_equal(got.p_label, want.p_label)
        assert np.array_equal(got.zbar, want.zbar)
        assert np.array_equal(got.corr_matrix, want.corr_matrix)
        assert np.array_equal(got.observed, want.observed)


def reference_pair_list_cost(instance, scheme, stats):
    """estimate_cost with the pair index arrays rebuilt from data_pair_indices per call."""
    d = scheme.group_size
    pairs = data_pair_indices(d)
    if pairs:
        bases = d * np.arange(scheme.n_groups)[:, None]
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        intra_w = instance.weights[bases + a[None, :], bases + b[None, :]]
        zbar_mat = stats.zbar.reshape(scheme.n_groups, d)
        intra_zz = float(np.sum(intra_w * (zbar_mat[:, a] * zbar_mat[:, b])))
    else:
        intra_w = np.zeros((scheme.n_groups, 0))
        intra_zz = 0.0
    intra = float(np.sum(intra_w * stats.corr_matrix))
    full = float(stats.zbar @ instance.weights @ stats.zbar)
    return intra_w, intra, full - intra_zz


def dense_pair_products(d):
    """The (2**d, C(d,2)) products s_a * s_b the estimator once cached whole."""
    spins = spin_table(d)
    cols = np.array(data_pair_indices(d), dtype=np.intp).reshape(-1, 2)
    return spins[:, cols[:, 0]] * spins[:, cols[:, 1]]


class TestPairTables:
    """The per-d cached pair tables give the values the per-call pair lists gave."""

    @pytest.mark.parametrize("shape", [(8, 1), (8, 2), (16, 4), (64, 4), (64, 16), (24, 12)],
                             ids=lambda s: "%dx%d" % s)
    def test_bit_identical_to_pair_list_path(self, shape):
        n, d = shape
        scheme = make_scheme(n, d)
        inst = generate_sk(n, "gaussian", seed=n + d)
        stats = exact_group_stats(scheme, random_state(np.random.default_rng(d), scheme.n_qubits))
        intra_w, intra, inter = reference_pair_list_cost(inst, scheme, stats)
        assert np.array_equal(_group_weights(inst, scheme)[1], intra_w)
        got = estimate_cost(inst, scheme, stats)
        assert (got.intra, got.inter) == (intra, inter)

    @pytest.mark.parametrize("d", [1, 4, 12, 13, 16])
    def test_split_rows_rebuild_the_products(self, d):
        # row hi * 2**low + lo of the spins and of the products is
        # signs[hi] * template[lo]
        tables = pair_product_table(d)
        low = min(d, qeopt.estimator.SPLIT_BITS)
        for template, signs, width in ((tables.spin_template, tables.spin_signs, d),
                                       (tables.pair_template, tables.pair_signs, d * (d - 1) // 2)):
            assert template.shape == (1 << low, width)
            assert signs.shape == (1 << (d - low), width)
            assert template.flags.c_contiguous and signs.flags.c_contiguous
            assert set(np.unique(signs)) <= {-1.0, 1.0}
        assert np.array_equal(split_rows(tables.spin_template, tables.spin_signs), spin_table(d))
        assert np.array_equal(split_rows(tables.pair_template, tables.pair_signs),
                              dense_pair_products(d))

    def test_d16_tables_cached_read_only_and_small(self):
        tables = pair_product_table(16)
        assert pair_product_table(16) is tables
        assert not any(table.flags.writeable for table in tables)
        assert tables.pair_template.nbytes + tables.pair_signs.nbytes <= 4 * 2**20
        # the dense (2**16, 16) spin table held 8 MiB
        assert tables.spin_template.nbytes + tables.spin_signs.nbytes <= 2**20

    @pytest.mark.parametrize("d", [1, 2, 4, 16])
    def test_spin_value_table(self, d):
        # the split spin tables are float64 and rebuild the oracle's dense table
        tables = pair_product_table(d)
        for table in (tables.spin_template, tables.spin_signs):
            assert table.dtype == np.float64 and not table.flags.writeable
        assert np.array_equal(split_rows(tables.spin_template, tables.spin_signs), spin_table(d))

    def test_warm_up_builds_every_cached_table(self):
        # the benchmark warms only pair_product_table(d) in set-up; a table an
        # exact evaluation built later would move set-up cost into its timing
        caches = [obj for info in pkgutil.iter_modules(qeopt.__path__)
                  for obj in vars(importlib.import_module(f"qeopt.{info.name}")).values()
                  if callable(getattr(obj, "cache_info", None))]
        assert pair_product_table in caches
        for wrapper in caches:
            wrapper.cache_clear()
        pair_product_table(16)
        warmed = [wrapper.cache_info().currsize for wrapper in caches]
        scheme = make_scheme(64, 16)
        inst = generate_sk(64, "pm1", seed=3)
        stats = exact_group_stats(scheme, random_state(np.random.default_rng(3), scheme.n_qubits))
        build_cost_hamiltonian(inst, scheme, stats)
        estimate_cost(inst, scheme, stats)
        assert [wrapper.cache_info().currsize for wrapper in caches] == warmed

    # (64, 16) and (26, 13) sum zbar and the correlations in split blocks, so
    # those are bounded; the separator keeps its bits at every shape: its
    # coefficients are divided by <P_l> before either product
    @pytest.mark.parametrize("shape", [(8, 1), (8, 2), (16, 4), (64, 4), (64, 16), (26, 13)],
                             ids=lambda s: "%dx%d" % s)
    def test_stats_and_hamiltonian_bit_identical_to_per_call_table(self, shape):
        n, d = shape
        scheme = make_scheme(n, d)
        inst = generate_sk(n, "gaussian", seed=n * d)
        probs = random_state(np.random.default_rng(n + d), scheme.n_qubits).probabilities()
        got = _stats_from_probs(scheme, probs)
        # the statistics and dense diagonal with the whole tables built per call
        spins = spin_table(d)
        dense = dense_pair_products(d)
        grouped = probs.reshape(scheme.n_groups, 1 << d)
        zsums = grouped @ spins
        zbar = np.clip(zsums / got.p_label[:, None], -1.0, 1.0).ravel()
        sums = grouped @ dense
        corr = np.clip(sums / got.p_label[:, None], -1.0, 1.0)
        assert got.observed.all()
        p_label = got.p_label[:, None]
        if d <= qeopt.estimator.SPLIT_BITS:
            assert np.array_equal(got.zbar, zbar)
            assert np.array_equal(got.corr_matrix, corr)
        else:
            zbar_mat = got.zbar.reshape(scheme.n_groups, d)
            assert np.all(np.abs(zbar_mat * p_label - zsums) <= 1e-14 * p_label)
            assert np.all(np.abs(got.corr_matrix * p_label - sums) <= 1e-14 * p_label)
        intra_w = _group_weights(inst, scheme)[1]

        def dense_diagonal(stats):
            h_mat = cross_group_fields(inst, scheme, stats).reshape(scheme.n_groups, d)
            p_label = stats.p_label[:, None]
            block = dense @ (intra_w / p_label).T + spins @ (h_mat / p_label).T
            return block.T.ravel()

        entries = build_cost_hamiltonian(inst, scheme, got).entries
        assert np.array_equal(entries, dense_diagonal(got))
        # against the separator of the dense-table statistics
        oracle = dense_diagonal(GroupStats(got.p_label, zbar, corr, got.observed))
        assert np.all(np.abs(entries - oracle) <= 1e-13 * np.abs(oracle).max())


def looped_cross_group_fields(instance, scheme, zbar):
    """cross_group_fields as it was: w + w^T built per call and one product
    per label with its diagonal block."""
    w_sym = instance.weights + instance.weights.T
    full = w_sym @ zbar
    d = scheme.group_size
    zbar_mat = zbar.reshape(scheme.n_groups, d)
    same = np.zeros(scheme.n_vars)
    for label in range(scheme.n_groups):
        sl = slice(d * label, d * (label + 1))
        same[sl] = w_sym[sl, sl] @ zbar_mat[label]
    return 0.5 * (full - same)


def per_call_intra_weights(instance, scheme):
    """The intra-group pair weights as they were indexed on every call."""
    d = scheme.group_size
    pairs = np.array(data_pair_indices(d), dtype=np.intp).reshape(-1, 2)
    bases = d * np.arange(scheme.n_groups)[:, None]
    return instance.weights[bases + pairs[None, :, 0], bases + pairs[None, :, 1]]


FIELD_SHAPES = [(4, 2), (8, 1), (8, 2), (8, 4), (8, 8), (16, 4), (32, 2), (64, 4), (64, 8),
                (64, 16), (128, 4)]


class TestCachedWeightTables:
    """The per-instance weight tables and the stacked field product give the
    per-call bits, compared as integers (float equality takes -0.0 for 0.0)."""

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    @pytest.mark.parametrize("shape", FIELD_SHAPES, ids=lambda s: "%dx%d" % s)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), zero_share=st.sampled_from([0.0, 0.3, 1.0]),
           drop_label=st.booleans())
    def test_fields_bit_identical_to_per_label_loop(self, shape, kind, seed, zero_share,
                                                     drop_label):
        n, d = shape
        inst = generate_sk(n, kind, seed=seed)
        scheme = make_scheme(n, d)
        rng = np.random.default_rng(seed)
        zbar = rng.uniform(-1.0, 1.0, n)
        zbar[rng.random(n) < zero_share] = 0.0
        observed = np.ones(scheme.n_groups, dtype=bool)
        if drop_label and scheme.n_groups > 1:  # an unobserved label's means are zero
            label = int(rng.integers(scheme.n_groups))
            observed[label] = False
            zbar[d * label: d * (label + 1)] = 0.0
        stats = GroupStats(np.where(observed, 1.0 / scheme.n_groups, 0.0), zbar,
                           np.zeros((scheme.n_groups, d * (d - 1) // 2)), observed)
        got = cross_group_fields(inst, scheme, stats)
        want = looped_cross_group_fields(inst, scheme, zbar)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    @pytest.mark.parametrize("shape", [(4, 2), (8, 1), (8, 8), (16, 4), (64, 4), (64, 16)],
                             ids=lambda s: "%dx%d" % s)
    def test_tables_equal_per_call_indexing_and_are_read_only(self, shape, kind):
        n, d = shape
        inst = generate_sk(n, kind, seed=n + d)
        scheme = make_scheme(n, d)
        sym = inst.sym_weights
        blocks, pairs = _group_weights(inst, scheme)
        assert np.array_equal(sym.view(np.uint64),
                              (inst.weights + inst.weights.T).view(np.uint64))
        assert blocks.shape == (scheme.n_groups, d, d)
        for label in range(scheme.n_groups):
            sl = slice(d * label, d * (label + 1))
            assert np.array_equal(blocks[label].view(np.uint64), sym[sl, sl].view(np.uint64))
        want = per_call_intra_weights(inst, scheme)
        assert np.array_equal(pairs.view(np.uint64), want.view(np.uint64))
        assert pairs.flags.c_contiguous  # the cost's sum runs in the per-call layout's order
        for table in (sym, blocks, pairs):
            assert not table.flags.writeable
        assert inst.sym_weights is sym
        assert all(a is b for a, b in zip(_group_weights(inst, scheme), (blocks, pairs)))

    def test_built_once_per_instance_and_group_size(self, monkeypatch):
        builds = []
        sym_property = SKInstance.__dict__["sym_weights"]
        counted = functools.cached_property(
            lambda inst: builds.append("sym") or sym_property.func(inst))
        counted.__set_name__(SKInstance, "sym_weights")
        monkeypatch.setattr(SKInstance, "sym_weights", counted)
        build_group_weights = qeopt.estimator._build_group_weights
        monkeypatch.setattr(qeopt.estimator, "_build_group_weights",
                            lambda inst, d: builds.append(d) or build_group_weights(inst, d))
        inst = generate_sk(16, "gaussian", seed=4)
        scheme = make_scheme(16, 4)
        config = OptimizerConfig(n_hops=1, max_local_evals=20, seed=1)
        result = optimize(inst, scheme, 2, config)
        assert result.eval_count > 20 and sorted(builds, key=str) == [4, "sym"]
        optimize(inst, scheme, 2, config)
        other = make_scheme(16, 2)
        cross_group_fields(inst, other, exact_group_stats(other, init_plus(other.n_qubits)))
        assert sorted(builds, key=str) == [2, 4, "sym"]


class TestCost:
    def test_d_equals_n_reduces_to_plain_expectation(self):
        n = 4
        inst = generate_sk(n, "pm1", seed=2)
        scheme = make_scheme(n, n)
        rng = np.random.default_rng(0)
        state = random_state(rng, n)
        stats = exact_group_stats(scheme, state)
        got = estimate_cost(inst, scheme, stats).total
        # direct <sum w Z Z> via the classical diagonal
        diag = np.empty(1 << n)
        for k in range(1 << n):
            z = np.array([1 - 2 * ((k >> (n - 1 - i)) & 1) for i in range(n)])
            diag[k] = cost(inst, z)
        assert got == pytest.approx(state.expectation_diagonal(DiagonalOperator(n, diag)), abs=1e-9)

    def test_fixture_final_state_cost(self, n4_instance, n4_scheme):
        # hand-built optimal state: (|0>+|1>) x (|01>+|10>) / 2
        amps = np.zeros(8, dtype=complex)
        amps[[0b001, 0b010, 0b101, 0b110]] = 0.5
        stats = exact_group_stats(n4_scheme, Statevector(3, amps))
        breakdown = estimate_cost(n4_instance, n4_scheme, stats)
        assert breakdown.total == pytest.approx(-2.0)
        assert breakdown.intra == pytest.approx(-2.0)
        assert breakdown.inter == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_encoded_strings_reproduce_classical_cost(self, seed):
        rng = np.random.default_rng(seed)
        n, d = [(4, 2), (8, 2), (8, 4), (16, 4)][seed % 4]
        inst = generate_sk(n, "gaussian", seed=seed)
        scheme = make_scheme(n, d)
        z = rng.choice([-1, 1], size=n)
        amps = encode_target(scheme, z)
        stats = exact_group_stats(scheme, Statevector(scheme.n_qubits, amps))
        assert estimate_cost(inst, scheme, stats).total == pytest.approx(cost(inst, z), abs=1e-9)


def product_then_division_diagonal(instance, scheme, stats):
    """The dense diagonal in its earlier order: the signed template products
    of the raw pair weights and fields, then divided by <P_l>, then the rows
    of unobserved labels set to 0."""
    d = scheme.group_size
    intra_w = _group_weights(instance, scheme)[1]
    h_mat = cross_group_fields(instance, scheme, stats).reshape(scheme.n_groups, d)
    tables = pair_product_table(d)
    block = np.empty((scheme.n_groups, scheme.dim // scheme.n_groups))
    rows = block.reshape(-1, len(tables.pair_template))
    np.matmul((intra_w[:, None, :] * tables.pair_signs).reshape(len(rows), -1),
              tables.pair_template.T, out=rows)
    rows += (h_mat[:, None, :] * tables.spin_signs).reshape(len(rows), -1) @ tables.spin_template.T
    block /= np.where(stats.observed, stats.p_label, 1.0)[:, None]
    block[~stats.observed] = 0.0
    return block.ravel()


class TestHamiltonian:
    def test_plus_state_operator_of_the_worked_example(self, n4_instance, n4_scheme):
        stats = exact_group_stats(n4_scheme, init_plus(3))
        ham = build_cost_hamiltonian(n4_instance, n4_scheme, stats)
        np.testing.assert_allclose(ham.entries, [2, -2, -2, 2, 2, -2, -2, 2])

    def test_zero_zbar_has_no_one_body_terms(self, n4_instance, n4_scheme):
        stats = exact_group_stats(n4_scheme, init_plus(3))
        terms = cost_hamiltonian_terms(n4_instance, n4_scheme, stats)
        assert all(len(t.data_qubits) == 2 for t in terms)
        assert len(terms) == 2
        coeffs = {t.label: t.coefficient for t in terms}
        assert coeffs[0] == pytest.approx(2.0)  # w01 / (1/2)
        assert coeffs[1] == pytest.approx(2.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_expectation_identity(self, seed):
        """<psi|H[psi]|psi> equals the assembled cost, q <= 8."""
        rng = np.random.default_rng(seed)
        n, d = [(4, 2), (8, 2), (8, 4), (16, 4), (8, 8)][seed % 5]
        inst = generate_sk(n, "gaussian", seed=seed + 1)
        scheme = make_scheme(n, d)
        state = random_state(rng, scheme.n_qubits)
        stats = exact_group_stats(scheme, state)
        ham = build_cost_hamiltonian(inst, scheme, stats)
        assert state.expectation_diagonal(ham) == pytest.approx(
            estimate_cost(inst, scheme, stats).total, abs=1e-9
        )

    @pytest.mark.parametrize("shape", [(26, 13), (64, 16)], ids=lambda s: "%dx%d" % s)
    def test_expectation_identity_past_the_split(self, shape):
        """<psi|H[psi]|psi> equals the assembled cost where the pair products
        are split into sign rows and a template."""
        n, d = shape
        inst = generate_sk(n, "gaussian", seed=n + d)
        scheme = make_scheme(n, d)
        state = random_state(np.random.default_rng(d), scheme.n_qubits)
        stats = exact_group_stats(scheme, state)
        ham = build_cost_hamiltonian(inst, scheme, stats)
        assert state.expectation_diagonal(ham) == pytest.approx(
            estimate_cost(inst, scheme, stats).total, abs=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(4, 2), (8, 2), (8, 4), (16, 2), (16, 4), (8, 8)]),
        st.sampled_from(["pm1", "gaussian"]),
        st.integers(0, 10_000),
        st.booleans(),
    )
    @example((8, 2), "gaussian", 3, True)
    def test_terms_match_dense_diagonal(self, shape, kind, seed, drop_label):
        """The term list, expanded over the basis, is the dense diagonal."""
        n, d = shape
        inst = generate_sk(n, kind, seed=seed)
        scheme = make_scheme(n, d)
        rng = np.random.default_rng(seed)
        amps = random_state(rng, scheme.n_qubits).amps.reshape(scheme.n_groups, 1 << d)
        if drop_label and scheme.n_groups > 1:
            amps[rng.integers(scheme.n_groups)] = 0.0
        state = Statevector(scheme.n_qubits, amps.ravel() / np.linalg.norm(amps))
        stats = exact_group_stats(scheme, state)
        assert stats.n_unobserved == (1 if drop_label and scheme.n_groups > 1 else 0)

        terms = cost_hamiltonian_terms(inst, scheme, stats)
        dense = build_cost_hamiltonian(inst, scheme, stats).entries
        pattern = np.arange(1 << d)
        rebuilt = np.zeros((scheme.n_groups, 1 << d))
        for term in terms:
            z = np.ones(1 << d)
            for dq in term.data_qubits:
                z *= 1 - 2 * ((pattern >> (d - 1 - dq)) & 1)
            rebuilt[term.label] += term.coefficient * z
        scale = np.abs(dense).max()
        assert np.abs(rebuilt.ravel() - dense).max() <= 1e-14 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(4, 2), (8, 2), (8, 4), (16, 2), (16, 4), (8, 8)]),
        st.sampled_from(["pm1", "gaussian"]),
        st.integers(0, 10_000),
        st.booleans(),
        st.booleans(),
    )
    @example((8, 2), "gaussian", 3, True, False)
    @example((8, 4), "pm1", 5, True, True)
    def test_terms_match_reference_loop(self, shape, kind, seed, drop_label, sparse):
        """The vectorized term list equals the per-label loop it replaced:
        same labels, targets and order, coefficients ==."""
        n, d = shape
        inst = generate_sk(n, kind, seed=seed)
        rng = np.random.default_rng(seed)
        if sparse:  # zero weights exercise the skipped terms
            inst = SKInstance(n, np.where(rng.random((n, n)) < 0.5, 0.0, inst.weights),
                              inst.weight_kind, inst.seed)
        scheme = make_scheme(n, d)
        amps = random_state(rng, scheme.n_qubits).amps.reshape(scheme.n_groups, 1 << d)
        if drop_label and scheme.n_groups > 1:
            amps[rng.integers(scheme.n_groups)] = 0.0
        state = Statevector(scheme.n_qubits, amps.ravel() / np.linalg.norm(amps))
        stats = exact_group_stats(scheme, state)

        pairs = data_pair_indices(d)
        intra_w = _group_weights(inst, scheme)[1]
        h = cross_group_fields(inst, scheme, stats)
        want = []
        for label in range(scheme.n_groups):
            if not stats.observed[label]:
                continue
            p = stats.p_label[label]
            for idx, (a, b) in enumerate(pairs):
                w = intra_w[label, idx]
                if w != 0.0:
                    want.append(HamiltonianTerm(label, (a, b), w / p))
            for a in range(d):
                hi = h[d * label + a]
                if hi != 0.0:
                    want.append(HamiltonianTerm(label, (a,), hi / p))
        assert cost_hamiltonian_terms(inst, scheme, stats) == want

    @pytest.mark.parametrize("shape", [(8, 1), (8, 2), (16, 2), (16, 4), (8, 8), (64, 4),
                                       (26, 13), (64, 16)], ids=lambda s: "%dx%d" % s)
    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(WEIGHT_KINDS), seed=st.integers(0, 10_000),
           drop_label=st.booleans())
    @example(kind="gaussian", seed=3, drop_label=True)
    def test_product_then_division_agrees(self, shape, kind, seed, drop_label):
        """The diagonal whose products ran before the 1/<P_l> division and
        the zeroing of unobserved labels agrees with the one built from the
        normalized coefficients within 1e-14 of the largest entry."""
        n, d = shape
        inst = generate_sk(n, kind, seed=seed)
        scheme = make_scheme(n, d)
        rng = np.random.default_rng(seed)
        amps = random_state(rng, scheme.n_qubits).amps.reshape(scheme.n_groups, 1 << d)
        if drop_label and scheme.n_groups > 1:
            amps[rng.integers(scheme.n_groups)] = 0.0
        stats = exact_group_stats(
            scheme, Statevector(scheme.n_qubits, amps.ravel() / np.linalg.norm(amps)))
        entries = build_cost_hamiltonian(inst, scheme, stats).entries
        old = product_then_division_diagonal(inst, scheme, stats)
        assert np.abs(entries - old).max() <= 1e-14 * np.abs(old).max()
        assert np.all(entries.reshape(scheme.n_groups, -1)[~stats.observed] == 0.0)

    def test_unobserved_label_terms_dropped(self, n4_instance, n4_scheme, caplog):
        amps = np.zeros(8, dtype=complex)
        amps[0b001] = 1.0
        stats = exact_group_stats(n4_scheme, Statevector(3, amps))
        assert stats.n_unobserved == 1
        with caplog.at_level(logging.DEBUG):
            ham = build_cost_hamiltonian(n4_instance, n4_scheme, stats)
        assert "unobserved" in caplog.text
        np.testing.assert_array_equal(ham.entries[4:], 0.0)

    def test_size_mismatch_rejected(self, n4_instance):
        scheme = make_scheme(8, 2)
        stats = exact_group_stats(scheme, init_plus(scheme.n_qubits))
        with pytest.raises(ValueError):
            estimate_cost(n4_instance, scheme, stats)
