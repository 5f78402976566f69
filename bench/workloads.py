"""The four benchmark workloads: solve, landscape, ensemble and compile.

Each workload generates its instances from the workload seed in
:meth:`Workload.setup`, then runs operations in rounds: one round is the
workload's whole instance pool (or shape set), so every round does the same
work and a later round must reproduce the first one's output bytes. The
timed region of an operation is only the call into qeopt; writing and
checking its output happen outside it. Library functions are looked up on
their modules at call time, so a :class:`tracing.Tracer` sees the calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

import numpy as np

from qeopt import analysis, ansatz, cli, compiler, estimator, problem, runfiles, simulator
from qeopt.encoding import make_scheme

# |<psi|H[psi]|psi> - assembled cost| tolerance of the acceptance suite
IDENTITY_TOL = 1e-9


def instance_seed(seed: int, workload: str, k: int) -> int:
    """Per-instance generator seed derived from the workload seed."""
    tag = int.from_bytes(workload.encode()[:8].ljust(8, b"\0"), "little")
    return int(np.random.default_rng([seed, tag, k]).integers(0, 2**31 - 1))


def run_cli(argv: list[str]) -> str:
    """Run one qeopt command in this process; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main.main(args=argv, prog_name="qeopt", standalone_mode=False)
    return out.getvalue()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([[repr(v) if isinstance(v, float) else v for v in row] for row in rows])


class Workload:
    """One workload: set-up, the operations of a round, and their oracle."""

    name = ""
    op_span = "op"  # span name of one operation in traced runs
    sizes: dict = {}

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, dest: Path) -> None:
        """Generate the instances (files under ``dest``) and warm lazy caches."""
        raise NotImplementedError

    def round_keys(self) -> list:
        raise NotImplementedError

    def op(self, key, out: Path):
        """The timed call. ``out`` is a fresh path for the operation's output."""
        raise NotImplementedError

    def units(self, key) -> int:
        """How many operations one call counts as."""
        return 1

    def finish(self, key, payload, out: Path) -> None:
        """Write the output of an operation that does not write its own file."""

    def check(self, key, payload, out: Path) -> tuple[bool, str, dict]:
        """Oracle check of one operation: (ok, detail, values for the report)."""
        raise NotImplementedError

    def global_check(self) -> tuple[bool, str]:
        return True, ""

    def quality(self, values: list[dict], passed: list[bool]) -> float:
        """End-to-end quality over the first round's checked operations."""
        raise NotImplementedError

    def op_seconds(self, keys: list, seconds: list[float]) -> float:
        """Seconds per operation: the median over the calls, each divided by its units."""
        return float(np.median([t / self.units(k) for k, t in zip(keys, seconds)]))

    def report(self, values: list[dict], keys: list, seconds: list[float]) -> dict:
        """Issue-named end-to-end metrics, as {name: (value, unit)}."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
class Solve(Workload):
    """`qeopt solve` at N=64, d=4 (q=8), p=3, exact mode, warm start."""

    name = "solve"
    op_span = "cli"
    sizes = {"n": 64, "d": 4, "p": 3, "hops": 1, "local_evals": 200, "pool": 8, "kind": "pm1"}

    def setup(self, dest: Path) -> None:
        s = self.sizes
        self.instances, self.paths = [], []
        for k in range(s["pool"]):
            inst = problem.generate_sk(s["n"], s["kind"], seed=instance_seed(self.seed, self.name, k))
            path = dest / f"sk_{k}.txt"
            runfiles.write_instance(inst, path)
            self.instances.append(inst)
            self.paths.append(path)
        estimator.pair_product_table(s["d"])

    def round_keys(self) -> list:
        return list(range(self.sizes["pool"]))

    def solver_seed(self, key) -> int:
        """Independent tabu and hop streams per instance, so the pool's mean ratio averages them."""
        return instance_seed(self.seed, "solver", key)

    def op(self, key, out: Path):
        s = self.sizes
        return run_cli([
            "solve", "--instance", str(self.paths[key]), "--d", str(s["d"]), "--p", str(s["p"]),
            "--mode", "exact", "--seed", str(self.solver_seed(key)), "--hops", str(s["hops"]),
            "--local-evals", str(s["local_evals"]), "--warm-start", "--out", str(out),
        ])

    def check(self, key, payload, out: Path):
        rows = read_rows(out)
        if len(rows) != 1:
            return False, f"{out.name}: {len(rows)} rows, expected 1", {}
        row = rows[0]
        spins = np.array([1.0 if ch == "+" else -1.0 for ch in row["solution"]])
        recomputed = problem.cost(self.instances[key], spins)
        rounded = float(row["rounded_cost"])
        ratio = float(row["ratio"])
        values = {"ratio": ratio, "rounded_ratio": float(row["rounded_ratio"]),
                  "eval_count_column": int(row["eval_count"])}
        if abs(recomputed - rounded) > 1e-9 * max(1.0, abs(rounded)):
            return False, f"rounded_cost {rounded} but solution costs {recomputed}", values
        if not 0.0 < ratio <= 1.0:
            return False, f"ratio {ratio} outside (0, 1]", values
        return True, "", values

    def quality(self, values, passed):
        # The share of solves that pass the oracle. The p=3 ratio is reported,
        # not gated: it varies from 0.08 to 0.32 between instances and solver
        # seeds, so the median over one round of 8 spreads by more than any
        # bound allowed across workload seeds.
        return float(np.mean(passed))

    def report(self, values, keys, seconds):
        return {
            "solve_s": (self.op_seconds(keys, seconds), "s"),
            "ratio": (float(np.median([v["ratio"] for v in values])), "ratio"),
            "rounded_ratio": (float(np.median([v["rounded_ratio"] for v in values])), "ratio"),
        }


# ---------------------------------------------------------------------------
class Landscape(Workload):
    """`qeopt landscape` at N=64, d=16 (q=18), exact mode, one job."""

    name = "landscape"
    op_span = "cli"
    sizes = {"n": 64, "d": 16, "beta_steps": 4, "gamma_steps": 7, "pool": 3, "kind": "pm1"}

    def setup(self, dest: Path) -> None:
        s = self.sizes
        self.paths = []
        for k in range(s["pool"]):
            inst = problem.generate_sk(s["n"], s["kind"], seed=instance_seed(self.seed, self.name, k))
            path = dest / f"sk_{k}.txt"
            runfiles.write_instance(inst, path)
            self.paths.append(path)
        self.fixture = dest / "fixture_n4.txt"
        runfiles.write_instance(problem.example_instance_n4(), self.fixture)
        estimator.pair_product_table(s["d"])
        self.dest = dest

    def round_keys(self) -> list:
        return list(range(self.sizes["pool"]))

    def units(self, key) -> int:
        return self.sizes["beta_steps"] * self.sizes["gamma_steps"]

    def _argv(self, path: Path, d: int, out: Path) -> list[str]:
        s = self.sizes
        return ["landscape", "--instance", str(path), "--d", str(d),
                "--beta-steps", str(s["beta_steps"]), "--gamma-steps", str(s["gamma_steps"]),
                "--mode", "exact", "--jobs", "1", "--seed", str(self.seed), "--out", str(out)]

    def op(self, key, out: Path):
        return run_cli(self._argv(self.paths[key], self.sizes["d"], out))

    def _grid(self, out: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = read_rows(out)
        b = np.array([float(r["beta"]) for r in rows])
        g = np.array([float(r["gamma"]) for r in rows])
        c = np.array([float(r["cost"]) for r in rows])
        return b, g, c

    def check(self, key, payload, out: Path):
        b, g, c = self._grid(out)
        if c.size != self.units(key):
            return False, f"{c.size} grid points, expected {self.units(key)}", {}
        # |+> is a mixer eigenstate with zero statistics, so gamma = 0 costs nothing
        zero_col = np.abs(c[g == 0.0])
        if zero_col.size != self.sizes["beta_steps"] or zero_col.max() > 1e-9:
            return False, f"gamma=0 column not zero (max {zero_col.max():.3e})", {}
        return True, "", {"min_cost": float(c.min())}

    def global_check(self):
        out = self.dest / "fixture_grid.csv"
        run_cli(self._argv(self.fixture, 2, out))
        b, g, c = self._grid(out)
        deviation = float(np.abs(c - 2.0 * np.sin(4 * b) * np.sin(4 * g)).max())
        return deviation < 1e-9, f"fixture grid deviates from 2 sin(4b) sin(4g) by {deviation:.3e}"

    def quality(self, values, passed):
        # a grid point is an exact expectation value with no approximation to
        # rate, so its quality is agreement with the oracle: the passing share
        return float(np.mean(passed))

    def report(self, values, keys, seconds):
        return {"points_per_s": (1.0 / self.op_seconds(keys, seconds), "1/s")}


# ---------------------------------------------------------------------------
ENSEMBLE_PARAMS = ((0.3564, -0.0309, 0.0013), (0.2754, -0.0542, 0.0006), (0.1433, -0.0631, -0.0009))


class Ensemble(Workload):
    """Fixed-parameter statistics over N=64, d=16 (q=18) instances."""

    name = "ensemble"
    sizes = {"n": 64, "d": 16, "p": 3, "shots": 10_000, "pool": 6, "kind": "pm1",
             "params": [list(p) for p in ENSEMBLE_PARAMS]}

    def setup(self, dest: Path) -> None:
        s = self.sizes
        self.scheme = make_scheme(s["n"], s["d"])
        self.instances = [
            problem.generate_sk(s["n"], s["kind"], seed=instance_seed(self.seed, self.name, k))
            for k in range(s["pool"])
        ]
        self.params = [ansatz.LayerParams(*p) for p in ENSEMBLE_PARAMS]
        estimator.pair_product_table(s["d"])

    def round_keys(self) -> list:
        return list(range(self.sizes["pool"]))

    def op(self, key, out: Path):
        inst = self.instances[key]
        record = problem.ground_truth(inst, seed=self.seed + key)
        exact = ansatz.run_ansatz(inst, self.scheme, self.params, mode="exact")
        shots = ansatz.run_ansatz(inst, self.scheme, self.params, mode="shots",
                                  n_shots=self.sizes["shots"], seed=self.seed + key)
        baseline = analysis.decomposed_baseline_exact(inst, self.scheme)
        return record, exact, shots, baseline

    def finish(self, key, payload, out: Path) -> None:
        record, exact, shots, baseline = payload
        write_rows(out, ["instance", "c_star", "c_star_method", "exact_cost", "shot_cost",
                         "baseline_cost"],
                   [[key, record.best_cost, record.method, exact.final_cost, shots.final_cost,
                     baseline]])

    def check(self, key, payload, out: Path):
        record, exact, shots, baseline = payload
        stats = exact.layer_stats[-1]
        inst = self.instances[key]
        ham = estimator.build_cost_hamiltonian(inst, self.scheme, stats)
        gap = abs(exact.final_state.expectation_diagonal(ham)
                  - estimator.estimate_cost(inst, self.scheme, stats).total)
        ratio = exact.final_cost / record.best_cost
        values = {"ratio": ratio, "shot_ratio": shots.final_cost / record.best_cost,
                  "baseline_ratio": baseline / record.best_cost}
        if gap >= IDENTITY_TOL:
            return False, f"<psi|H|psi> differs from the assembled cost by {gap:.3e}", values
        if not 0.0 < ratio <= 1.0:
            return False, f"exact ratio {ratio} outside (0, 1]", values
        return True, "", values

    def quality(self, values, passed):
        return float(np.mean([v["ratio"] for v in values]))

    def report(self, values, keys, seconds):
        return {
            "instances_per_s": (1.0 / self.op_seconds(keys, seconds), "1/s"),
            "ratio": (float(np.mean([v["ratio"] for v in values])), "ratio"),
            "shot_ratio": (float(np.mean([v["shot_ratio"] for v in values])), "ratio"),
            "baseline_ratio": (float(np.mean([v["baseline_ratio"] for v in values])), "ratio"),
        }


# ---------------------------------------------------------------------------
VERIFIED_SHAPES = ((8, 2), (8, 4), (16, 2), (16, 4))
COUNTED_SHAPES = ((32, 4), (64, 4))


class Compile(Workload):
    """Phase separator at |+> lowered to native gates; small shapes verified."""

    name = "compile"
    sizes = {"gamma": 0.213, "verified": [list(s) for s in VERIFIED_SHAPES],
             "counted": [list(s) for s in COUNTED_SHAPES], "kind": "pm1"}

    def setup(self, dest: Path) -> None:
        self.instances = {}
        for n, d in VERIFIED_SHAPES + COUNTED_SHAPES:
            seed = instance_seed(self.seed, self.name, 1000 * n + d)
            self.instances[(n, d)] = (problem.generate_sk(n, self.sizes["kind"], seed=seed),
                                      make_scheme(n, d))

    def round_keys(self) -> list:
        return list(VERIFIED_SHAPES + COUNTED_SHAPES)

    def op(self, key, out: Path):
        inst, scheme = self.instances[key]
        gamma = self.sizes["gamma"]
        stats = estimator.exact_group_stats(scheme, simulator.init_plus(scheme.n_qubits))
        terms = estimator.cost_hamiltonian_terms(inst, scheme, stats)
        ir = compiler.lower_phase_separator(terms, gamma)
        native = compiler.to_native(compiler.decompose_controls(ir, scheme))
        deviation = None
        if key in VERIFIED_SHAPES:
            ham = estimator.build_cost_hamiltonian(inst, scheme, stats)
            deviation = compiler.verify_unitary(native, np.exp(1j * gamma * ham.entries))
        return native, deviation, len(terms)

    def finish(self, key, payload, out: Path) -> None:
        out.write_text(compiler.dumps(payload[0]))

    def check(self, key, payload, out: Path):
        native, deviation, n_terms = payload
        n, d = key
        values = {"shape": f"{n}x{d}", "terms": n_terms,
                  "iswap": native.gate_counts().get("ISWAP", 0),
                  "depth": native.depth(), "gates": len(native.gates)}
        if not native.is_native():
            return False, f"{n}x{d}: circuit is not native", values
        if deviation is not None and not deviation < 1e-9:
            return False, f"{n}x{d}: deviation {deviation:.3e} from exp(i gamma H)", values
        return True, "", values

    def op_seconds(self, keys, seconds):
        """Seconds for one pass over all shapes: the sum of the per-shape medians."""
        return sum(self._shape_medians(keys, seconds).values())

    @staticmethod
    def _shape_medians(keys, seconds) -> dict:
        return {k: float(np.median([t for kk, t in zip(keys, seconds) if kk == k]))
                for k in dict.fromkeys(keys)}

    def quality(self, values, passed):
        # Hamiltonian terms synthesized per iSWAP at the largest shape
        largest = self._largest(values)
        return largest["terms"] / largest["iswap"] if largest["iswap"] else 0.0

    @staticmethod
    def _largest(values: list[dict]) -> dict:
        """Checked values at the largest shape (zero counts if its operation failed)."""
        n, d = COUNTED_SHAPES[-1]
        return next((v for v in values if v["shape"] == f"{n}x{d}"),
                    {"terms": 0, "iswap": 0, "depth": 0})

    def report(self, values, keys, seconds):
        largest = self._largest(values)
        medians = self._shape_medians(keys, seconds)
        return {
            "compile_check_s": (sum(medians[k] for k in VERIFIED_SHAPES), "s"),
            "iswap": (largest["iswap"], "count"),
            "depth": (largest["depth"], "count"),
        }


WORKLOADS = {cls.name: cls for cls in (Solve, Landscape, Ensemble, Compile)}
