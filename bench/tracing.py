"""Spans around calls into qeopt's public functions, recorded from outside.

A :class:`Tracer` replaces each traced function with a wrapper in every
loaded ``qeopt`` module that holds a reference to it (``run_ansatz`` is
imported into ``qeopt.optimizer``, ``qeopt.cli`` and ``qeopt.analysis``;
patching only the defining module would miss those calls), and methods on
their class. Each call appends one span -- name, start, end, parent -- to
in-memory arrays; :meth:`Tracer.restore` puts every original object back.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (metric layer, defining module, attribute). "Class.method" patches the
# method on its class; plain names are patched in every qeopt module that
# holds the same function object.
TRACED = (
    ("simulator.diagonal", "qeopt.simulator", "Statevector.apply_diagonal_phase"),
    ("simulator.bias", "qeopt.simulator", "Statevector.apply_rz"),
    ("simulator.mixer", "qeopt.simulator", "Statevector.apply_mixer"),
    ("simulator.sample", "qeopt.simulator", "Statevector.sample"),
    ("estimator.exact_stats", "qeopt.estimator", "exact_group_stats"),
    ("estimator.shot_stats", "qeopt.estimator", "shot_group_stats"),
    ("estimator.cost", "qeopt.estimator", "estimate_cost"),
    ("estimator.hamiltonian", "qeopt.estimator", "build_cost_hamiltonian"),
    ("estimator.terms", "qeopt.estimator", "cost_hamiltonian_terms"),
    ("ansatz.run", "qeopt.ansatz", "run_ansatz"),
    ("ansatz.rounding", "qeopt.ansatz", "extract_solution"),
    ("optimizer.schedule", "qeopt.optimizer", "warm_start_schedule"),
    ("optimizer.optimize", "qeopt.optimizer", "optimize"),
    ("optimizer.appended_layer", "qeopt.optimizer", "_best_appended_layer"),
    ("problem.tabu", "qeopt.problem", "local_search_optimum"),
    ("problem.brute_force", "qeopt.problem", "brute_force_optimum"),
    ("analysis.baseline", "qeopt.analysis", "decomposed_baseline_exact"),
    ("compiler.lower", "qeopt.compiler", "lower_phase_separator"),
    ("compiler.decompose", "qeopt.compiler", "decompose_controls"),
    ("compiler.native", "qeopt.compiler", "to_native"),
    ("compiler.verify", "qeopt.compiler", "verify_unitary"),
    ("runfiles.read_instance", "qeopt.runfiles", "read_instance"),
    ("runfiles.write_csv", "qeopt.runfiles", "write_csv"),
    ("runfiles.write_manifest", "qeopt.runfiles", "write_manifest"),
)


def _state_passes(name: str, args: tuple, kwargs: dict) -> int:
    """Full-state passes made by one simulator kernel call."""
    if name == "simulator.mixer":
        qubits = kwargs.get("qubits", args[2] if len(args) > 2 else None)
        return args[0].n_qubits if qubits is None else len(qubits)
    return 1


class Tracer:
    """In-memory span recorder; patch with :meth:`install`, undo with :meth:`restore`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block (the benchmark's own operations)."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counters = self.counters
        is_kernel = name.startswith("simulator.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_kernel:
                passes = _state_passes(name, args, kwargs)
                counters[name + ".passes"] += passes
                counters["simulator.amps"] += passes << args[0].n_qubits
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "optimizer.optimize":
                counters["optimizer.accepted_hops"] += len(result.history) - 1
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Patch every traced name in every loaded qeopt module."""
        if self.patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "qeopt" or key.startswith("qeopt.")) and m is not None]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self.wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)

    def _set(self, holder, key: str, original, wrapper) -> None:
        self.patched.append((holder, key, original))
        setattr(holder, key, wrapper)

    def restore(self) -> None:
        """Put every original object back, in reverse patch order."""
        for holder, key, original in reversed(self.patched):
            setattr(holder, key, original)
        self.patched = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        if self._stack:
            raise RuntimeError("spans still open")
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write the spans as an .npz file: arrays plus the name table."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())


class SpanSummary:
    """Per-name totals, self times and ancestry queries over recorded spans."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.names = names
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.duration = spans["end"] - spans["start"]
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=len(self.name))
        self.self_time = self.duration - child_time

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def total(self, *names: str) -> float:
        return float(self.duration[self.mask(*names)].sum())

    def self_total(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def durations(self, *names: str) -> np.ndarray:
        return self.duration[self.mask(*names)]

    def under(self, ancestors: tuple[str, ...], *names: str) -> np.ndarray:
        """Mask of spans named ``names`` that have an ancestor named in ``ancestors``."""
        inside = self.mask(*ancestors).tolist()
        # propagate "has an ancestor in the set" down the tree; parents precede children
        flag = [False] * len(inside)
        for idx, p in enumerate(self.parent.tolist()):
            if p >= 0:
                flag[idx] = flag[p] or inside[p]
        return np.array(flag, dtype=bool) & self.mask(*names)

    def outermost(self, *names: str) -> np.ndarray:
        """Mask of spans named ``names`` with no ancestor of the same names."""
        return self.mask(*names) & ~self.under(names, *names)


SHAPES = ("8x2", "8x4", "16x2", "16x4", "32x4", "64x4")

# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "simulator.diagonal_s": "s",
    "simulator.bias_s": "s",
    "simulator.mixer_s": "s",
    "simulator.sample_s": "s",
    "simulator.calls": "count",
    "simulator.bytes_computed": "B",
    "estimator.exact_stats_s": "s",
    "estimator.cost_s": "s",
    "estimator.hamiltonian_s": "s",
    "estimator.shot_stats_s": "s",
    "estimator.terms_s": "s",
    "ansatz.evals": "count",
    "ansatz.eval_ms": "ms",
    "ansatz.eval_ms_tail": "ms",
    "ansatz.self_s": "s",
    "ansatz.rounding_s": "s",
    "optimizer.evals_per_s": "1/s",
    "optimizer.self_s": "s",
    "optimizer.evals_per_accepted_hop": "evals/hop",
    "problem.tabu_s": "s",
    "problem.brute_force_s": "s",
    "analysis.baseline_s": "s",
    "compiler.lower_s": "s",
    "compiler.native_s": "s",
    "compiler.verify_s": "s",
    **{f"compiler.{what}.{shape}": "count"
       for what in ("iswap", "depth", "gates") for shape in SHAPES},
    "runfiles.io_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

KERNELS = ("simulator.diagonal", "simulator.bias", "simulator.mixer", "simulator.sample")
OPTIMIZER = ("optimizer.schedule", "optimizer.optimize", "optimizer.appended_layer")


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest of a few standard percentiles with at least ten samples beyond it."""
    n = len(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(samples, q))
    return None


def layer_metrics(tracer: Tracer, units: int, shape_values: dict,
                  overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run; times, calls and bytes are per operation."""
    spans = tracer.summary()
    per_op = 1.0 / units
    evals = spans.durations("ansatz.run")
    tail = tail_percentile(evals)
    optimizer_evals = int(spans.under(OPTIMIZER, "ansatz.run").sum())
    optimizer_wall = float(spans.duration[spans.outermost(*OPTIMIZER)].sum())
    hops = tracer.counters["optimizer.accepted_hops"]
    values = {
        "simulator.diagonal_s": spans.total("simulator.diagonal") * per_op,
        "simulator.bias_s": spans.total("simulator.bias") * per_op,
        "simulator.mixer_s": spans.total("simulator.mixer") * per_op,
        "simulator.sample_s": spans.total("simulator.sample") * per_op,
        "simulator.calls": spans.count(*KERNELS) * per_op,
        "simulator.bytes_computed": 16 * tracer.counters["simulator.amps"] * per_op,
        "estimator.exact_stats_s": spans.total("estimator.exact_stats") * per_op,
        "estimator.cost_s": spans.total("estimator.cost") * per_op,
        "estimator.hamiltonian_s": spans.total("estimator.hamiltonian") * per_op,
        "estimator.shot_stats_s": spans.total("estimator.shot_stats") * per_op,
        "estimator.terms_s": spans.total("estimator.terms") * per_op,
        "ansatz.evals": evals.size * per_op,
        "ansatz.eval_ms": float(np.median(evals)) * 1e3 if evals.size else 0.0,
        "ansatz.eval_ms_tail": tail[1] * 1e3 if tail else 0.0,
        "ansatz.self_s": spans.self_total("ansatz.run") * per_op,
        "ansatz.rounding_s": spans.total("ansatz.rounding") * per_op,
        "optimizer.evals_per_s": optimizer_evals / optimizer_wall if optimizer_wall else 0.0,
        "optimizer.self_s": spans.self_total(*OPTIMIZER) * per_op,
        "optimizer.evals_per_accepted_hop": optimizer_evals / hops if hops else 0.0,
        "problem.tabu_s": spans.total("problem.tabu") * per_op,
        "problem.brute_force_s": spans.total("problem.brute_force") * per_op,
        "analysis.baseline_s": spans.total("analysis.baseline") * per_op,
        "compiler.lower_s": spans.total("compiler.lower", "compiler.decompose") * per_op,
        "compiler.native_s": spans.total("compiler.native") * per_op,
        "compiler.verify_s": spans.total("compiler.verify") * per_op,
        "runfiles.io_s": spans.total("runfiles.read_instance", "runfiles.write_csv",
                                     "runfiles.write_manifest") * per_op,
        "cli.self_s": spans.self_total("cli") * per_op,
        "trace.overhead_s": overhead_s * per_op,
    }
    for shape in SHAPES:
        for what in ("iswap", "depth", "gates"):
            values[f"compiler.{what}.{shape}"] = shape_values.get(shape, {}).get(what, 0)
    notes = {
        "spans": len(spans.name),
        "ansatz.eval_ms_tail": (f"p{tail[0]:g} of {evals.size} evaluations" if tail
                                else f"fewer than 20 evaluations ({evals.size})"),
        "optimizer.evals": optimizer_evals,
        "optimizer.accepted_hops": hops,
        "simulator.passes": {k: tracer.counters[k + ".passes"] for k in KERNELS},
    }
    return {name: values[name] for name in LAYER_UNITS}, notes
