import numpy as np
import pytest
from encoding_oracle import encode_target
from hypothesis import given, settings
from hypothesis import strategies as st

from qeopt.analysis import (
    BaselineTable,
    baseline_ratio,
    data_entropy,
    decomposed_baseline_exact,
    entropy_profile,
    shot_noise_study,
)
from qeopt.ansatz import LayerParams
from qeopt.encoding import make_scheme
from qeopt.problem import brute_force_optimum, generate_sk
from qeopt.simulator import Statevector


class TestDataEntropy:
    def test_identical_groups_have_zero_entropy(self):
        scheme = make_scheme(8, 2)
        z = np.array([1, -1] * 4)
        assert data_entropy(scheme, z) == 0.0

    def test_distinct_groups_uniform_lambda(self):
        scheme = make_scheme(8, 2)
        z = np.array([1, 1, 1, -1, -1, 1, -1, -1])  # patterns 00,01,10,11
        assert data_entropy(scheme, z) == pytest.approx(np.log2(4))

    def test_matches_statevector_reduced_density_matrix(self):
        # oracle: rho_data from the dense encoded state (uniform group
        # amplitudes, as the package encodes), eigenvalue entropy
        rng = np.random.default_rng(3)
        for n, d in [(8, 2)] * 10 + [(16, 2), (32, 4), (16, 1)]:
            scheme = make_scheme(n, d)
            z = rng.choice([-1, 1], size=n)
            amps = encode_target(scheme, z).reshape(scheme.n_groups, 1 << d)  # label x data
            rho = amps.conj().T @ amps
            eigs = np.linalg.eigvalsh(rho)
            eigs = eigs[eigs > 1e-14]
            expected = float(-np.sum(eigs * np.log2(eigs)))
            assert data_entropy(scheme, z) == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_schmidt_bound_and_flip_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n, d = [(8, 2), (16, 2), (16, 4), (32, 4)][seed % 4]
        scheme = make_scheme(n, d)
        z = rng.choice([-1, 1], size=n)
        s = data_entropy(scheme, z)
        assert 0.0 <= s <= min(d, np.log2(n // d)) + 1e-9
        assert data_entropy(scheme, -z) == pytest.approx(s, abs=1e-12)

    def test_d_equals_n_is_zero(self):
        scheme = make_scheme(8, 8)
        rng = np.random.default_rng(0)
        assert data_entropy(scheme, rng.choice([-1, 1], size=8)) == 0.0


class TestEntropyProfile:
    def test_reproducible(self):
        a = entropy_profile(256, [2, 4], n_samples=5, seed=3)
        b = entropy_profile(256, [2, 4], n_samples=5, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_small_d_regime_tracks_d(self):
        means = entropy_profile(1 << 16, [1, 2], n_samples=10, seed=1)
        np.testing.assert_allclose(means, [1.0, 2.0], atol=0.1)

    def test_large_d_regime_tracks_label_count(self):
        means = entropy_profile(1 << 12, [256, 1024], n_samples=5, seed=2)
        np.testing.assert_allclose(means, [4.0, 2.0], atol=1e-9)

    def test_invalid_d_rejected(self):
        with pytest.raises(ValueError):
            entropy_profile(256, [3], n_samples=2, seed=0)


class TestBaseline:
    def test_ratio_formula(self):
        table = BaselineTable({1: 0.5, 3: 0.7})
        assert baseline_ratio(1, 16, 4, table) == pytest.approx(0.25)
        assert baseline_ratio(3, 64, 4, table) == pytest.approx(0.7 / 4)
        assert baseline_ratio(1, 8, 8, table) == pytest.approx(0.5)

    def test_missing_p(self):
        with pytest.raises(KeyError):
            baseline_ratio(2, 16, 4, BaselineTable({1: 0.5}))

    def test_table_validation(self):
        with pytest.raises(ValueError):
            BaselineTable({1: 1.5})
        with pytest.raises(ValueError, match="depths"):
            BaselineTable({0: 0.5})

    def test_fixture_decomposition(self, n4_instance, n4_scheme):
        assert decomposed_baseline_exact(n4_instance, n4_scheme) == -2.0

    def test_d_equals_n_recovers_full_optimum(self, n4_instance):
        scheme = make_scheme(4, 4)
        assert decomposed_baseline_exact(n4_instance, scheme) == -4.0

    @pytest.mark.parametrize("seed", range(4))
    def test_never_beats_full_optimum(self, seed):
        inst = generate_sk(16, "pm1", seed=seed)
        scheme = make_scheme(16, 4)
        dec = decomposed_baseline_exact(inst, scheme)
        full = brute_force_optimum(inst).best_cost
        assert dec >= full - 1e-12

    def test_d1_has_no_intra_cost(self):
        inst = generate_sk(8, "pm1", seed=0)
        scheme = make_scheme(8, 1)
        assert decomposed_baseline_exact(inst, scheme) == 0.0


class TestShotNoise:
    def test_error_decreases_with_shots(self, n4_instance, n4_scheme):
        study = shot_noise_study(
            n4_instance, n4_scheme, [LayerParams(0.7, 0.2, 0.3)],
            shot_counts=[100, 100_000], replicas=8, seed=1,
        )
        assert study.mean_abs_error[1] < study.mean_abs_error[0]

    def test_pure_encoded_state_has_zero_error(self, n4_instance, n4_scheme):
        # gamma' = 0 keeps |+> unpolarized; instead drive into a basis state
        # via a fabricated trace: use params that leave a basis state intact
        from qeopt.estimator import estimate_cost, shot_group_stats

        amps = encode_target(n4_scheme, np.array([1, -1, 1, -1]))
        state = Statevector(3, amps)
        exact = -4.0
        for n_shots in (7, 100):
            counts = state.sample(n_shots, seed=5)
            stats = shot_group_stats(n4_scheme, counts)
            if not stats.observed.all():
                continue  # tiny budgets may miss a label; definite values otherwise
            est = estimate_cost(n4_instance, n4_scheme, stats).total
            assert est == pytest.approx(exact, abs=1e-12)

    def test_replica_floor(self, n4_instance, n4_scheme):
        with pytest.raises(ValueError):
            shot_noise_study(n4_instance, n4_scheme, [LayerParams(0, 0, 0)], [10], replicas=1)
