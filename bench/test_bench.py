"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``.

Telemetry must never change deterministic output, so one operation of each
workload is run untraced and traced and their output files must be
byte-identical; after the traced run every patched name must be the
original object again.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FIRST_KEYS = {"solve": 0, "landscape": 0, "ensemble": 0, "compile": (8, 2)}


def qeopt_namespace() -> dict:
    """(holder, name) -> object for every attribute the tracer may patch."""
    holders = [m for k, m in sys.modules.items() if k == "qeopt" or k.startswith("qeopt.")]
    holders.append(sys.modules["qeopt.simulator"].Statevector)
    return {(id(h), name): value for h in holders for name, value in vars(h).items()}


@pytest.mark.parametrize("name", list(FIRST_KEYS))
def test_traced_run_writes_identical_bytes_and_restores_names(name, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name](seed=3)
    workload.setup(tmp_path)
    monkeypatch.setattr(workload, "round_keys", lambda: [FIRST_KEYS[name]])
    before = qeopt_namespace()

    plain, _ = run.run_ops(workload, tmp_path / "untraced", rounds=1)
    tracer = tracing.Tracer()
    with tracer:
        assert tracer.patched
        traced, deferred = run.run_ops(workload, tmp_path / "traced", rounds=1, tracer=tracer)
    for op, payload in deferred:
        run.check_op(workload, op, payload)

    assert [op.ok for op in plain + traced] == [True, True], [op.detail for op in plain + traced]
    assert plain[0].out.read_bytes() == traced[0].out.read_bytes()
    after = qeopt_namespace()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.summary().count(workload.op_span) == 1


def test_tracer_patches_every_importer():
    import qeopt.analysis
    import qeopt.ansatz
    import qeopt.cli
    import qeopt.optimizer

    original = qeopt.ansatz.run_ansatz
    with tracing.Tracer():
        for module in (qeopt.ansatz, qeopt.optimizer, qeopt.cli, qeopt.analysis):
            assert module.run_ansatz is not original
            assert module.run_ansatz.__wrapped__ is original
    for module in (qeopt.ansatz, qeopt.optimizer, qeopt.cli, qeopt.analysis):
        assert module.run_ansatz is original


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    spans = tracer.summary()
    inner = spans.total("inner")
    assert spans.count("inner") == 2
    assert spans.self_total("outer") == pytest.approx(spans.total("outer") - inner, abs=1e-12)
    assert spans.under(("outer",), "inner").sum() == 2


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
