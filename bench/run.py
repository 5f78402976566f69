"""qeopt benchmark: four workloads, checked outputs, optional per-layer tracing.

Run from the repository root:

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A single workload runs in this one process with BLAS pinned to one thread
and prints, as its last stdout line, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines
above it give the issue-named metrics with units, percentiles and run
metadata; the full report and the workload outputs go under
``.bench_out/<workload>/``. ``--workload all`` runs each workload in its own
process and prints every end-to-end metric by name. See bench/NOTES.md.
"""

from __future__ import annotations

import os

# before numpy is imported: OpenBLAS otherwise starts one thread per core
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("solve", "landscape", "ensemble", "compile")
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "quality": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of operations to measure (at least one whole round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# metadata


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, queried through its own API."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    fn = getattr(handle, symbol)
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def blas_info() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def git_sha() -> str | None:
    """HEAD of the repository, read from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "sizes": workload.sizes,
    }


# ---------------------------------------------------------------------------
# measurement


class Op:
    """One executed operation and its oracle verdict."""

    def __init__(self, round_no, key, seconds, units, out):
        self.round = round_no
        self.key = key
        self.seconds = seconds
        self.units = units
        self.out = out
        self.ok = False
        self.detail = ""
        self.values: dict = {}


def key_text(key) -> str:
    return "x".join(str(k) for k in key) if isinstance(key, tuple) else str(key)


def run_ops(workload, out_dir: Path, budget: float | None = None, rounds: int | None = None,
            tracer=None) -> tuple[list[Op], list]:
    """Closed loop over the round's keys, cyclically.

    Stops after ``rounds`` whole rounds or, with a ``budget``, at the first
    operation boundary after ``budget`` seconds of operations, once a whole
    round is done. Returns the operations and, when traced, their payloads
    for checking after the tracer is removed, so oracle calls are not spans.
    """
    out_dir.mkdir(parents=True)
    keys = workload.round_keys()
    ops, deferred = [], []
    busy = 0.0
    while True:
        round_no, idx = divmod(len(ops), len(keys))
        if round_no and not idx and rounds is not None and round_no >= rounds:
            return ops, deferred
        if round_no and budget is not None and busy >= budget:
            return ops, deferred
        key = keys[idx]
        out = out_dir / f"r{round_no}_{key_text(key)}.out"
        span = tracer.span(workload.op_span) if tracer else nullcontext()
        error = None
        start = time.perf_counter()
        try:
            with span:
                payload = workload.op(key, out)
        except Exception as exc:  # an operation that fails is counted, not fatal
            payload, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        op = Op(round_no, key, elapsed, workload.units(key), out)
        ops.append(op)
        if error:
            op.detail = error
            continue
        workload.finish(key, payload, out)
        if tracer:
            deferred.append((op, payload))
        else:
            check_op(workload, op, payload)


def check_op(workload, op: Op, payload) -> None:
    try:
        op.ok, op.detail, op.values = workload.check(op.key, payload, op.out)
    except Exception as exc:  # a malformed output fails its check
        op.ok, op.detail = False, f"check raised {type(exc).__name__}: {exc}"


def same_bytes(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def mark_changed_outputs(ops: list[Op], reference: dict, what: str) -> None:
    """Fail every operation whose output bytes differ from its reference file."""
    for op in ops:
        ref = reference[op.key]
        if op.ok and not same_bytes(op.out, ref):
            op.ok, op.detail = False, f"{op.out.name} differs from the {what} output {ref.name}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize_times(samples: list[float]) -> dict:
    from tracing import tail_percentile

    out = {"n": len(samples), "min": min(samples), "median": statistics.median(samples)}
    tail = tail_percentile(samples)
    if tail:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def measure_setup(args) -> list[float]:
    """Cold set-up times: imports, instances, files and cache warm-up, each in a fresh process."""
    times = []
    for repeat in range(SETUP_REPEATS):
        dest = OUT / args.workload / f"setup{repeat}"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe", str(dest)],
            capture_output=True, text=True, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def import_program():
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import qeopt
    import workloads

    if not Path(qeopt.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"imported qeopt from {qeopt.__file__}, not {SRC}")
    return workloads


def setup_probe(args) -> int:
    start = time.perf_counter()
    workloads = import_program()
    dest = Path(args.setup_probe)
    dest.mkdir(parents=True)
    workloads.WORKLOADS[args.workload](args.seed).setup(dest)
    print(time.perf_counter() - start)
    return 0


def run_workload(args) -> int:
    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    setup_times = measure_setup(args)

    workloads = import_program()
    import tracing

    workload = workloads.WORKLOADS[args.workload](args.seed)
    (out_root / "inputs").mkdir()
    workload.setup(out_root / "inputs")

    if args.trace:
        ops, _ = run_ops(workload, out_root / "untraced", rounds=1)
    else:
        ops, _ = run_ops(workload, out_root / "untraced", budget=args.seconds)
    rss = peak_rss_mb()
    first = {op.key: op.out for op in ops if op.round == 0}
    mark_changed_outputs([op for op in ops if op.round > 0], first, "first-round")
    checked = list(ops)

    layer, layer_notes = None, {}
    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            traced, deferred = run_ops(workload, out_root / "traced", rounds=1, tracer=tracer)
        for op, payload in deferred:
            check_op(workload, op, payload)
        mark_changed_outputs(traced, first, "untraced")
        if not all(getattr(holder, key) is original for holder, key, original in tracer.patched):
            raise RuntimeError("tracer left a patched name behind")
        overhead = sum(op.seconds for op in traced) - sum(op.seconds for op in ops)
        shapes = {op.values["shape"]: op.values for op in traced if "shape" in op.values}
        layer, layer_notes = tracing.layer_metrics(
            tracer, sum(op.units for op in traced), shapes, overhead)
        tracer.save(out_root / "spans.npz")
        checked += traced

    global_ok, global_detail = workload.global_check()
    if not global_ok:
        for op in checked:
            op.ok, op.detail = False, global_detail

    keys = [op.key for op in ops]
    seconds = [op.seconds for op in ops]
    first_round = [op for op in ops if op.round == 0]
    values = [op.values for op in first_round if op.values]
    attempted = sum(op.units for op in checked)
    failed = sum(op.units for op in checked if not op.ok)
    correct = failed == 0

    setup_s = statistics.median(setup_times)
    quality = workload.quality(values, [op.ok for op in first_round]) if values else 0.0
    end_to_end = {"setup_s": setup_s, "op_s": workload.op_seconds(keys, seconds),
                  "peak_rss_mb": rss, "quality": quality}
    named = {"setup_s": (setup_s, "s"), **workload.report(values, keys, seconds),
             "peak_rss_mb": (rss, "MB"), "failed_frac": (failed / attempted, "1")}

    report = {
        "metadata": metadata(args, workload),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": [f"round {op.round} {key_text(op.key)}: {op.detail}"
                     for op in checked if not op.ok],
        "setup_repeats_s": setup_times,
        "op_seconds": summarize_times([op.seconds / op.units for op in ops]),
        "end_to_end": end_to_end,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "per_layer": layer,
        "per_layer_notes": layer_notes,
        "ops": [{"phase": op.out.parent.name, "round": op.round, "key": key_text(op.key),
                 "seconds": op.seconds, "units": op.units, "ok": op.ok, **op.values}
                for op in checked],
    }
    (out_root / f"report_trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    for name, (value, unit) in named.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    times = report["op_seconds"]
    tail = ", ".join(f"{k} {v:.6g} s" for k, v in times.items() if k.startswith("p"))
    print(f"{workload.name} seconds per operation: min {times['min']:.6g} s, "
          f"median {times['median']:.6g} s over {times['n']} calls"
          + (f", {tail}" if tail else "; no tail percentile (needs at least 20 calls)"))
    if layer:
        for name, unit in tracing.LAYER_UNITS.items():
            print(f"{workload.name} {name} = {layer[name]:.6g} {unit}")
        print(f"{workload.name} trace notes: {json.dumps(layer_notes)}")
    for line in report["failures"][:20]:
        print(f"{workload.name} FAILED {line}")
    print(f"{workload.name} metadata: {json.dumps(report['metadata'])}")

    metrics = layer if args.trace else end_to_end
    units = tracing.LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then every issue-named metric by name."""
    summary, correct = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        report = json.loads((OUT / name / f"report_trace{args.trace}.json").read_text())
        correct = correct and report["correct"]
        summary[name] = report["named"]
    print("== end-to-end metrics ==")
    for name, metrics in summary.items():
        for metric, entry in metrics.items():
            print(f"{name:>9} {metric:<16} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qeopt" / "__init__.py").is_file():
        print(f"qeopt sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
