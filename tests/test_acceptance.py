"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Statistical criteria use
fixed seeds; the ensemble sizes follow the desk-scale presets. Expensive
shared artifacts (donor optimization, ensembles with their ground truths)
are session fixtures; the tabu ensembles are defined in conftest.py.
"""

import time

import numpy as np
import pytest

from qeopt.analysis import (
    decomposed_baseline_exact,
    entropy_profile,
    shot_noise_study,
)
from qeopt.ansatz import LayerParams, extract_solution, landscape, run_ansatz
from qeopt.compiler import compile_layer
from qeopt.encoding import make_scheme
from qeopt.estimator import (
    build_cost_hamiltonian,
    estimate_cost,
    exact_group_stats,
)
from qeopt.optimizer import (
    OptimizerConfig,
    fit_gamma_scaling,
    optimize,
    optimize_gamma_scale,
    transfer_params,
    warm_start_schedule,
)
from qeopt.problem import (
    approximation_ratio,
    brute_force_optimum,
    example_instance_n4,
    generate_sk,
)
from qeopt.simulator import Statevector, init_plus


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} [{label}]: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def donor_setup(donor):
    """N=64 d=4 donor: tabu ground truth and warm-started p=1..3 optimization."""
    (inst,), (record,) = donor.instances, donor.records
    scheme = make_scheme(64, 4)
    schedule = warm_start_schedule(inst, scheme, 3, OptimizerConfig(n_hops=24, seed=7))
    return inst, scheme, record.best_cost, schedule


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_fixture_ground_truth(n4_instance):
    t0 = time.time()
    record = brute_force_optimum(n4_instance)
    elapsed = time.time() - t0
    ok = (
        record.best_cost == -4.0
        and record.minimizers == frozenset({(1, -1, 1, -1), (-1, 1, -1, 1)})
    )
    report(1, "fixture ground truth", ok,
           f"C*={record.best_cost}, minimizers={sorted(record.minimizers)}, {elapsed:.2f}s")


def test_criterion_02_landscape_identity(n4_instance, n4_scheme):
    t0 = time.time()
    betas = np.linspace(0, np.pi, 33)
    gammas = np.linspace(-np.pi, np.pi, 33)
    grid = landscape(n4_instance, n4_scheme, betas, gammas, gamma_bias=0.0)
    reference = 2.0 * np.outer(np.sin(4 * betas), np.sin(4 * gammas))
    deviation = float(np.abs(grid - reference).max())
    report(2, "p=1 landscape identity", deviation < 1e-9,
           f"max deviation {deviation:.3e} on 33x33 grid, {time.time() - t0:.2f}s")


def test_criterion_03_optimal_point_state(n4_instance, n4_scheme):
    t0 = time.time()
    trace = run_ansatz(n4_instance, n4_scheme, [LayerParams(3 * np.pi / 8, np.pi / 8)])
    probs = trace.final_state.probabilities()
    stats = trace.layer_stats[-1]
    ok = (
        np.abs(probs[[0b001, 0b010, 0b101, 0b110]] - 0.25).max() < 1e-9
        and np.abs(probs[[0b000, 0b011, 0b100, 0b111]]).max() < 1e-9
        and abs(trace.final_cost - (-2.0)) < 1e-9
        and np.abs(stats.zbar).max() < 1e-9
        and np.abs(stats.corr_matrix[:, 0] + 1.0).max() < 1e-9
    )
    report(3, "optimal-point state", ok,
           f"cost={trace.final_cost:.12f}, |zbar|max={np.abs(stats.zbar).max():.2e}, "
           f"{time.time() - t0:.2f}s")


def test_criterion_04_symmetry_breaking(n4_instance, n4_scheme):
    t0 = time.time()
    schedule = warm_start_schedule(
        n4_instance, n4_scheme, 3, OptimizerConfig(n_hops=20, seed=3)
    )
    best_p = min(schedule, key=lambda p: schedule[p].best_cost)
    result = schedule[best_p]
    trace = run_ansatz(n4_instance, n4_scheme, list(result.best_params))
    _, rounded_cost = extract_solution(trace, seed=1)
    ok = rounded_cost == -4.0 and result.best_cost <= -3.6
    report(4, "symmetry breaking at p<=3", ok,
           f"C={result.best_cost:.4f} (r={approximation_ratio(result.best_cost, -4.0):.4f}) "
           f"at p={best_p}, "
           f"rounded={rounded_cost}, {time.time() - t0:.1f}s")


def plain_qaoa_costs(instance, params):
    """Independent one-qubit-per-variable oracle (einsum contraction)."""
    n = instance.n_vars
    from qeopt.problem import cost as classical_cost

    diag = np.empty(1 << n)
    for k in range(1 << n):
        z = 1 - 2 * ((k >> np.arange(n - 1, -1, -1)) & 1)
        diag[k] = classical_cost(instance, z)
    psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex).reshape((2,) * n)
    costs = [float(np.sum(diag * np.abs(psi.ravel()) ** 2))]
    for lp in params:
        psi = (np.exp(1j * lp.gamma * diag) * psi.ravel()).reshape((2,) * n)
        rx = np.array(
            [[np.cos(lp.beta), 1j * np.sin(lp.beta)], [1j * np.sin(lp.beta), np.cos(lp.beta)]]
        )
        for axis in range(n):
            psi = np.moveaxis(np.einsum("ab,b...->a...", rx, np.moveaxis(psi, axis, 0)), 0, axis)
        costs.append(float(np.sum(diag * np.abs(psi.ravel()) ** 2)))
    return costs


def test_criterion_05_d_equals_n_reduction():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(10):
        n = int(rng.choice([4, 6, 8, 10, 12]))
        inst = generate_sk(n, "gaussian", seed=trial)
        scheme = make_scheme(n, n)
        params = [
            LayerParams(float(rng.uniform(0, np.pi)), float(rng.uniform(-0.5, 0.5)), 0.0)
            for _ in range(int(rng.integers(1, 4)))
        ]
        trace = run_ansatz(inst, scheme, params)
        got = [estimate_cost(inst, scheme, stats).total for stats in trace.layer_stats]
        expected = plain_qaoa_costs(inst, params)
        worst = max(worst, float(np.abs(np.array(got) - np.array(expected)).max()))
    report(5, "d=N reduction vs plain-circuit oracle", worst < 1e-9,
           f"worst per-layer deviation {worst:.3e} over 10 instances, {time.time() - t0:.1f}s")


def test_criterion_06_estimator_self_consistency():
    t0 = time.time()
    rng = np.random.default_rng(6)
    shapes = [(4, 2), (8, 2), (8, 4), (16, 4), (8, 8), (16, 2)]
    worst = 0.0
    for trial in range(100):
        n, d = shapes[trial % len(shapes)]
        inst = generate_sk(n, "gaussian", seed=1000 + trial)
        scheme = make_scheme(n, d)
        amps = rng.standard_normal(scheme.dim) + 1j * rng.standard_normal(scheme.dim)
        state = Statevector(scheme.n_qubits, amps / np.linalg.norm(amps))
        stats = exact_group_stats(scheme, state)
        ham = build_cost_hamiltonian(inst, scheme, stats)
        gap = abs(state.expectation_diagonal(ham) - estimate_cost(inst, scheme, stats).total)
        worst = max(worst, gap)
    report(6, "<psi|H[psi]|psi> = assembled cost", worst < 1e-9,
           f"worst gap {worst:.3e} over 100 random states, {time.time() - t0:.1f}s")


def test_criterion_07_compiler_correctness():
    t0 = time.time()
    worst = 0.0
    for n, d in [(4, 2), (8, 2), (8, 4), (16, 4)]:
        inst = example_instance_n4() if n == 4 else generate_sk(n, "pm1", seed=n + d)
        scheme = make_scheme(n, d)
        stats = exact_group_stats(scheme, init_plus(scheme.n_qubits))
        native, deviation = compile_layer(inst, scheme, stats, LayerParams(0.77, 0.213, -0.41))
        assert native.is_native() and native.n_qubits == scheme.n_qubits
        worst = max(worst, deviation)
    report(7, "compiled layers match ideal unitaries", worst < 1e-9,
           f"worst deviation {worst:.3e} over 4 layouts, {time.time() - t0:.1f}s")


def test_criterion_08_entropy_regimes():
    t0 = time.time()
    n = 1 << 16
    ds = [1, 2, 4, 8, 256, 1024]
    by_d = dict(zip(ds, entropy_profile(n, ds, n_samples=100, seed=8)))
    gaps_small = {d: abs(by_d[d] - d) for d in (1, 2, 4, 8)}
    gaps_large = {d: abs(by_d[d] - np.log2(n // d)) for d in (256, 1024)}
    ok = max(gaps_small.values()) < 0.1 and max(gaps_large.values()) < 0.1
    report(8, "entanglement entropy regimes", ok,
           f"|S-d| max {max(gaps_small.values()):.3f}, "
           f"|S-log2(N/d)| max {max(gaps_large.values()):.3f}, {time.time() - t0:.1f}s")

def test_criterion_09_shot_noise_convergence(donor_setup):
    t0 = time.time()
    donor, scheme, c_star, _ = donor_setup
    # a bias-frozen single-layer optimum keeps the label populations near
    # uniform, which is the regime whose cost the shot estimator must track
    result = optimize(
        donor, scheme, 1, OptimizerConfig(freeze_gamma_bias=True, n_hops=10, seed=3)
    )
    study = shot_noise_study(
        donor, scheme, list(result.best_params), [100, 1_000, 10_000, 100_000],
        replicas=20, seed=3,
    )
    relative = study.mean_abs_error / abs(study.exact_cost)
    slope = study.loglog_slope()
    ok = relative[1] < 0.05 and -0.65 <= slope <= -0.35
    report(9, "shot-noise convergence", ok,
           f"rel err @1000 shots {relative[1]:.4f}, loglog slope {slope:.3f}, "
           f"exact C {study.exact_cost:.2f}, {time.time() - t0:.1f}s")


def test_criterion_10_parameter_concentration(donor_setup, pm1_ensemble, gaussian_ensemble):
    t0 = time.time()
    _, scheme, c_star, schedule = donor_setup
    donor_ratio = approximation_ratio(schedule[3].best_cost, c_star)
    params = schedule[3].best_params
    means = []
    for ensemble in (pm1_ensemble, gaussian_ensemble):
        ratios = [approximation_ratio(run_ansatz(inst, scheme, list(params)).final_cost,
                                      record.best_cost)
                  for inst, record in zip(ensemble.instances, ensemble.records)]
        means.append(float(np.mean(ratios)))
    pm1_mean, gauss_mean = means
    gap_pm1 = abs(pm1_mean - donor_ratio)
    gap_gauss = abs(gauss_mean - donor_ratio)
    ok = gap_pm1 < 0.05 and gap_gauss < 0.07
    report(10, "parameter concentration", ok,
           f"donor r {donor_ratio:.4f}, pm1 mean {pm1_mean:.4f} (gap {gap_pm1:.4f}), "
           f"gaussian mean {gauss_mean:.4f} (gap {gap_gauss:.4f}), {time.time() - t0:.1f}s")


def test_criterion_11_transfer_and_gamma_scaling(donor_setup, transfer_n128):
    t0 = time.time()
    donor, scheme, _, schedule = donor_setup
    scheme128 = make_scheme(128, 4)
    transferred = transfer_params(schedule[3].best_params, (64, 4), (128, 4))
    transfer_ratios, direct_ratios = [], []
    for k, (inst, record) in enumerate(zip(transfer_n128.instances, transfer_n128.records)):
        c_star = record.best_cost
        trace = run_ansatz(inst, scheme128, list(transferred))
        transfer_ratios.append(trace.final_cost / c_star)
        direct = warm_start_schedule(inst, scheme128, 3, OptimizerConfig(n_hops=12, seed=70 + k))
        direct_ratios.append(approximation_ratio(direct[3].best_cost, c_star))
    gap = abs(float(np.mean(transfer_ratios)) - float(np.mean(direct_ratios)))

    donor_params = list(schedule[3].best_params)
    points = []
    for n in (16, 32, 64):
        for d in (2, 4):
            thetas = []
            for s in range(3):
                inst = generate_sk(n, "pm1", seed=400 + 31 * n + 7 * d + s)
                thetas.append(optimize_gamma_scale(inst, make_scheme(n, d), donor_params))
            points.append((n, d, float(np.median(thetas))))
    fit = fit_gamma_scaling(points)
    ok = gap < 0.07 and 0.7 <= fit.exponent <= 1.3
    report(11, "size transfer and gamma scaling", ok,
           f"transfer mean r {np.mean(transfer_ratios):.4f} vs direct {np.mean(direct_ratios):.4f} "
           f"(gap {gap:.4f}); scaling slope {fit.exponent:.3f}, {time.time() - t0:.0f}s")


def test_criterion_12_baseline_dominance(donor_setup, pm1_ensemble):
    t0 = time.time()
    _, scheme, _, schedule = donor_setup
    params = schedule[3].best_params
    ansatz_ratios, baseline_ratios = [], []
    for inst, record in zip(pm1_ensemble.instances, pm1_ensemble.records):
        trace = run_ansatz(inst, scheme, list(params))
        ansatz_ratios.append(trace.final_cost / record.best_cost)
        baseline_ratios.append(decomposed_baseline_exact(inst, scheme) / record.best_cost)
    mean_ansatz = float(np.mean(ansatz_ratios))
    mean_baseline = float(np.mean(baseline_ratios))
    ok = mean_ansatz > mean_baseline
    report(12, "ansatz beats decomposition baseline", ok,
           f"ansatz mean r {mean_ansatz:.4f} > decomposition {mean_baseline:.4f}, "
           f"{time.time() - t0:.1f}s")
