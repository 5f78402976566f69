from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qeopt.encoding import make_scheme
from qeopt.problem import (
    WEIGHT_KINDS,
    OptimumRecord,
    SKInstance,
    approximation_ratio,
    brute_force_optimum,
    cost,
    example_instance_n4,
    generate_sk,
    ground_truth,
    local_search_optimum,
    pad_instance,
)
from qeopt.rng import stream


class TestGenerate:
    def test_pm1_weight_count_and_values(self):
        inst = generate_sk(4, "pm1", seed=0)
        vals = inst.weights[np.triu_indices(4, k=1)]
        assert vals.shape == (6,)
        assert set(np.unique(vals)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = generate_sk(16, "pm1", seed=9)
        b = generate_sk(16, "pm1", seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        c = generate_sk(16, "pm1", seed=10)
        assert not np.array_equal(a.weights, c.weights)

    def test_gaussian_sample_mean_within_standard_error(self):
        inst = generate_sk(64, "gaussian", seed=4)
        vals = inst.weights[np.triu_indices(64, k=1)]
        assert vals.shape == (2016,)
        assert abs(vals.mean()) < 4 / np.sqrt(2016)

    def test_too_small(self):
        with pytest.raises(ValueError):
            generate_sk(1, "pm1", seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_sk(4, "uniform", seed=0)


class TestInstanceValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        w = np.zeros((3, 3))
        w[0, 1], w[1, 2] = 1.0, bad
        with pytest.raises(ValueError, match="finite"):
            SKInstance(3, w, "gaussian", seed=0)


class TestCost:
    def test_worked_example_ground_state(self, n4_instance):
        assert cost(n4_instance, np.array([1, -1, 1, -1])) == -4.0

    def test_worked_example_all_up(self, n4_instance):
        # hand sum of the six weights: 1 - 1 + 1 - 1 - 1 + 1 = 0
        assert cost(n4_instance, np.ones(4)) == 0.0

    @settings(max_examples=50)
    @given(st.integers(0, 2**10 - 1), st.integers(0, 10_000))
    def test_global_flip_symmetry(self, bits, seed):
        inst = generate_sk(10, "gaussian", seed=seed)
        z = np.array([1 if (bits >> k) & 1 else -1 for k in range(10)])
        assert cost(inst, z) == pytest.approx(cost(inst, -z), abs=1e-12)

    def test_length_mismatch(self, n4_instance):
        with pytest.raises(ValueError):
            cost(n4_instance, np.ones(5))


class TestBruteForce:
    def test_worked_example(self, n4_instance):
        rec = brute_force_optimum(n4_instance)
        assert rec.best_cost == -4.0
        assert rec.minimizers == frozenset({(1, -1, 1, -1), (-1, 1, -1, 1)})
        assert rec.method == "brute_force"

    def test_two_spins(self):
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        inst = SKInstance(2, w, "pm1", seed=0)
        rec = brute_force_optimum(inst)
        assert rec.best_cost == -1.0
        assert rec.minimizers == frozenset({(1, -1), (-1, 1)})

    def test_three_spins_all_ferro_against_enumeration(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[0, 2] = w[1, 2] = 1.0
        inst = SKInstance(3, w, "pm1", seed=0)
        # independent oracle: enumerate all 8 strings directly
        best, winners = np.inf, set()
        for bits in range(8):
            z = np.array([1 if (bits >> k) & 1 else -1 for k in range(3)])
            c = z[0] * z[1] + z[0] * z[2] + z[1] * z[2]
            if c < best:
                best, winners = c, {tuple(z)}
            elif c == best:
                winners.add(tuple(z))
        rec = brute_force_optimum(inst)
        assert rec.best_cost == best == -1.0
        assert rec.minimizers == frozenset(winners)
        assert len(rec.minimizers) == 6

    def test_minimizer_set_closed_under_flip(self):
        for seed in range(5):
            rec = brute_force_optimum(generate_sk(8, "pm1", seed=seed))
            for z in rec.minimizers:
                assert tuple(-v for v in z) in rec.minimizers

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            brute_force_optimum(generate_sk(25, "pm1", seed=0))


class TestLocalSearch:
    def test_finds_fixture_ground_state(self, n4_instance):
        rec = local_search_optimum(n4_instance, seed=1)
        assert rec.best_cost == -4.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_at_n16(self, seed):
        inst = generate_sk(16, "pm1", seed=seed)
        exact = brute_force_optimum(inst)
        heur = local_search_optimum(inst, seed=seed)
        assert heur.best_cost == exact.best_cost

    def test_never_below_brute_force(self):
        inst = generate_sk(12, "gaussian", seed=3)
        exact = brute_force_optimum(inst)
        heur = local_search_optimum(inst, seed=0)
        assert heur.best_cost >= exact.best_cost - 1e-9

    def test_deterministic(self):
        inst = generate_sk(32, "pm1", seed=5)
        a = local_search_optimum(inst, seed=2)
        b = local_search_optimum(inst, seed=2)
        assert a.best_cost == b.best_cost
        assert a.minimizers == b.minimizers


def full_budget_search(instance, seed, n_restarts=64, max_sweeps=64, tabu_tenure=8):
    """Copy of the tabu loop without the stall exit: every restart makes all
    max_sweeps * N moves. The minimizer is returned with z_0 = +1."""
    n = instance.n_vars
    w_sym = instance.sym_weights
    rng = stream(seed, "tabu")
    r = n_restarts
    z = rng.integers(0, 2, size=(r, n)) * 2.0 - 1.0
    fields = z @ w_sym
    costs = 0.5 * np.einsum("rn,rn->r", z, fields)
    tabu_until = np.zeros((r, n), dtype=np.int64)
    inc_costs = costs.copy()
    inc_z = z.copy()
    rows = np.arange(r)
    for move in range(max_sweeps * n):
        gains = -2.0 * z * fields
        allowed = tabu_until <= move
        allowed |= costs[:, None] + gains < inc_costs[:, None] - 1e-12
        candidates = np.where(allowed, gains, np.inf)
        picks = np.argmin(candidates, axis=1)
        gain = candidates[rows, picks]
        movable = np.isfinite(gain)
        if not movable.any():
            break
        rr = rows[movable]
        ii = picks[movable]
        z[rr, ii] = -z[rr, ii]
        fields[rr] += 2.0 * z[rr, ii, None] * w_sym[ii]
        costs[rr] += gain[movable]
        tabu_until[rr, ii] = move + tabu_tenure
        improved = rr[costs[rr] < inc_costs[rr] - 1e-12]
        if improved.size:
            inc_costs[improved] = costs[improved]
            inc_z[improved] = z[improved]
    best_z = inc_z[int(np.argmin(inc_costs))]
    best_z = best_z * best_z[0]
    return OptimumRecord(best_cost=cost(instance, best_z),
                         minimizers=frozenset({tuple(int(v) for v in best_z)}),
                         method="local_search")


def count_moves(monkeypatch):
    """Count the search's moves: one row-wise np.argmin per move."""
    calls = []
    real = np.argmin

    def counting(a, *args, **kwargs):
        if kwargs.get("axis") == 1:
            calls.append(1)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argmin", counting)
    return calls


# (N, weight kind, instance seed, tabu seed)
RANDOM_RUNS = [(n, kind, 7000 + 10 * n + k, k) for n in (32, 64) for kind in WEIGHT_KINDS
               for k in range(6)]


class TestStallExit:
    # the acceptance suite's ensembles (conftest.py) and random runs
    @pytest.mark.parametrize("group", ["donor", "pm1_ensemble", "gaussian_ensemble",
                                       "transfer_n128", "random"])
    def test_records_equal_full_budget(self, group, request):
        if group == "random":
            drawn = [(generate_sk(n, kind, seed=s), t) for n, kind, s, t in RANDOM_RUNS]
            runs = [(inst, t, local_search_optimum(inst, seed=t)) for inst, t in drawn]
        else:  # instances, tabu seeds, records
            runs = zip(*request.getfixturevalue(group))
        for inst, tabu_seed, record in runs:
            assert record == full_budget_search(inst, tabu_seed)

    def test_exit_fires_on_pm1(self, monkeypatch):
        inst = generate_sk(64, "pm1", seed=1)
        moves = count_moves(monkeypatch)
        local_search_optimum(inst, seed=0)
        assert 8 * 64 < len(moves) < 0.3 * 64 * 64

    # (N, instance seed, tabu seed) -> moves of a pm1 search, counted with the
    # absolute 1e-12 threshold: pm1 costs are integers and the scaled
    # threshold is below 1, so every decision stays
    PM1_MOVES = {(32, 1000, 0): 350, (64, 1, 0): 887, (128, 1000, 0): 1598,
                 (128, 1005, 5): 1829}

    @pytest.mark.parametrize("run", sorted(PM1_MOVES), ids="n{0[0]}-seed{0[1]}-tabu{0[2]}".format)
    def test_pm1_moves_unchanged_by_the_scaled_threshold(self, monkeypatch, run):
        n, instance_seed, tabu_seed = run
        moves = count_moves(monkeypatch)
        local_search_optimum(generate_sk(n, "pm1", seed=instance_seed), seed=tabu_seed)
        assert len(moves) == self.PM1_MOVES[run]

    def test_drifting_gaussian_takes_the_stall_exit(self, monkeypatch):
        # the running costs drift by about 1e-12 here; with an absolute 1e-12
        # threshold that read as improvements and the search made all 64 * 128 moves
        inst = generate_sk(128, "gaussian", seed=3)
        reference = full_budget_search(inst, seed=3)
        moves = count_moves(monkeypatch)
        assert local_search_optimum(inst, seed=3) == reference
        assert 8 * 128 < len(moves) < 64 * 128


class TestRatioAndPadding:
    def test_paper_p1_value(self):
        assert approximation_ratio(-2.0, -4.0) == 0.5

    def test_trivial_values(self):
        assert approximation_ratio(-4.0, -4.0) == 1.0
        assert approximation_ratio(0.0, -4.0) == 0.0

    def test_zero_cost_gives_unsigned_zero(self):
        assert not np.signbit(approximation_ratio(0.0, -4.0))
        assert not np.signbit(approximation_ratio(-0.0, -4.0))

    def test_nonnegative_c_star_rejected(self):
        with pytest.raises(ValueError):
            approximation_ratio(-1.0, 0.0)

    def test_pad_preserves_costs(self):
        inst = generate_sk(12, "gaussian", seed=2)
        padded = pad_instance(inst, 4)
        z = np.array([1, -1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, 1, -1, -1, 1])
        assert cost(padded, z) == pytest.approx(cost(inst, z[:12]), abs=1e-12)
        assert (padded.weight_kind, padded.seed) == (inst.weight_kind, inst.seed)

    @given(st.integers(1, 8), st.integers(2, 200), st.integers(0, 2**31 - 1))
    def test_pad_size_is_the_next_pow2_multiple(self, d, n, seed):
        assume(n >= d)
        inst = generate_sk(n, "pm1", seed=seed)
        padded = pad_instance(inst, d)
        groups, rest = divmod(padded.n_vars, d)
        assert rest == 0 and groups & (groups - 1) == 0
        assert padded.n_vars >= n and (groups == 1 or padded.n_vars // 2 < n)
        scheme = make_scheme(padded.n_vars, d)
        assert [f.name for f in fields(scheme)] == ["n_vars", "group_size"]
        assert scheme.n_groups == groups
        assert 1 << scheme.n_label_qubits == groups
        assert scheme.n_qubits == d + scheme.n_label_qubits
        assert scheme.dim == 1 << scheme.n_qubits
        if padded.n_vars == n:
            assert padded is inst
        else:
            with pytest.raises(ValueError, match="power of two"):
                make_scheme(n, d)
        np.testing.assert_array_equal(padded.weights[:n, :n], inst.weights)
        assert not padded.weights[n:].any() and not padded.weights[:, n:].any()
        z = stream(seed, "pad-test").choice([-1.0, 1.0], size=padded.n_vars)
        assert cost(padded, z) == cost(inst, z[:n])  # pm1 sums are exact

    def test_ground_truth_dispatch(self, n4_instance):
        assert ground_truth(n4_instance).method == "brute_force"
        big = generate_sk(32, "pm1", seed=0)
        assert ground_truth(big).method == "local_search"
