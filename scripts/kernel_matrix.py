"""Run pytest node ids under other CPUs' numeric kernels and list what fails.

OpenBLAS picks its kernel per CPU at run time, and numpy its SIMD loops, so
last bits (and any result that hinges on them) can differ between x86 hosts.
``OPENBLAS_CORETYPE`` forces the BLAS kernel another CPU would get, and
``NPY_DISABLE_CPU_FEATURES`` turns numpy's dispatched SIMD loops off. Each
setting below runs the given node ids in one child pytest process; only that
child's environment changes. The script prints one row per setting with the
failing ids, and exits 1 if any setting failed a test.

    PYTHONPATH=src python scripts/kernel_matrix.py tests/test_simulator.py tests/test_acceptance.py

These settings emulate an AVX2 and an AVX CPU on the host that runs them; a
real host of that kind may also differ in libm.
"""

from __future__ import annotations

import os
import subprocess
import sys

SETTINGS = {
    "default": {},
    "OPENBLAS_CORETYPE=Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OPENBLAS_CORETYPE=Sandybridge, numpy without X86_V3/V4": {
        "OPENBLAS_CORETYPE": "Sandybridge",
        "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    },
}


def failing_ids(node_ids: list[str], extra_env: dict[str, str]) -> tuple[int, str, list[str]]:
    """Run pytest on ``node_ids`` with ``extra_env`` added to this process's
    environment: its exit code, its last summary line and its failing ids."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "-o", "addopts=", *node_ids]
    run = subprocess.run(cmd, env={**os.environ, **extra_env}, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, (lines[-1] if lines else run.stderr.strip()[-200:]), failed


def main(node_ids: list[str]) -> int:
    if not node_ids:
        print(__doc__)
        return 2
    worst = 0
    print("| setting | pytest exit | summary | failing ids |")
    print("|---|---|---|---|")
    for name, extra_env in SETTINGS.items():
        code, summary, failed = failing_ids(node_ids, extra_env)
        worst = max(worst, int(code != 0))
        print(f"| {name} | {code} | {summary.strip('= ')} | {', '.join(failed) or '-'} |",
              flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
