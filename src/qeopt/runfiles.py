"""On-disk formats: instance files, run manifests, result tables.

Everything is diffable text. Instances use a line-oriented schema with
weights printed at 17 significant digits so files round-trip bit-exactly;
manifests are JSON sidecars carrying enough to re-run a command; tabular
results are plain CSV with a header row.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import qeopt
from qeopt.problem import WEIGHT_KINDS, SKInstance

INSTANCE_HEADER = "# qeopt instance v1"


def write_instance(instance: SKInstance, path: str | Path) -> None:
    lines = [
        INSTANCE_HEADER,
        f"n_vars {instance.n_vars}",
        f"weight_kind {instance.weight_kind}",
        f"seed {instance.seed}",
    ]
    iu, ju = np.nonzero(instance.weights)
    lines.append(f"n_weights {len(iu)}")
    for i, j, w in zip(iu.tolist(), ju.tolist(), instance.weights[iu, ju].tolist()):
        lines.append(f"{i} {j} {w:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_instance(path: str | Path) -> SKInstance:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != INSTANCE_HEADER:
        raise ValueError(f"{path}: not a qeopt instance file")
    keys = ("n_vars", "weight_kind", "seed", "n_weights")
    if len(lines) <= len(keys):
        raise ValueError(f"{path}: truncated header, expected {', '.join(keys)}")
    header = {}
    for idx, key in enumerate(keys, start=1):
        name, _, value = lines[idx].partition(" ")
        if name != key:
            raise ValueError(f"{path}: expected '{key}' on line {idx + 1}, got {name!r}")
        header[key] = value
    if header["weight_kind"] not in WEIGHT_KINDS:
        raise ValueError(f"{path}: weight_kind must be one of {WEIGHT_KINDS}, "
                         f"got {header['weight_kind']!r}")
    n = int(header["n_vars"])
    n_weights = int(header["n_weights"])
    body = lines[len(keys) + 1:]
    if len(body) != n_weights:
        raise ValueError(f"{path}: expected {n_weights} weight lines, got {len(body)}")
    w = np.zeros((n, n))
    seen = set()
    for line in body:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: bad weight line {line!r}")
        i, j = int(parts[0]), int(parts[1])
        if not 0 <= i < j < n:
            raise ValueError(f"{path}: bad weight pair ({i}, {j})")
        if (i, j) in seen:
            raise ValueError(f"{path}: repeated weight pair ({i}, {j})")
        seen.add((i, j))
        w[i, j] = float(parts[2])
    return SKInstance(n_vars=n, weights=w, weight_kind=header["weight_kind"], seed=int(header["seed"]))


@dataclass(frozen=True)
class RunManifest:
    command: str
    argv: list[str]
    config: dict
    seed: int | None
    version: str
    created_utc: str
    inputs: list[str]
    outputs: list[str]


def make_manifest(command: str, argv: list[str], config: dict, seed: int | None,
                  inputs: list[str], outputs: list[str]) -> RunManifest:
    return RunManifest(
        command=command,
        argv=list(argv),
        config=config,
        seed=seed,
        version=qeopt.__version__,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        inputs=[str(p) for p in inputs],
        outputs=[str(p) for p in outputs],
    )


def manifest_path(out_path: str | Path) -> Path:
    return Path(str(out_path) + ".manifest.json")


def write_manifest(manifest: RunManifest, out_path: str | Path) -> Path:
    path = manifest_path(out_path)
    path.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
    return path


def read_manifest(path: str | Path) -> RunManifest:
    data = json.loads(Path(path).read_text())
    keys = [f.name for f in fields(RunManifest)]
    if not isinstance(data, dict) or sorted(data) != sorted(keys):
        found = sorted(data) if isinstance(data, dict) else type(data).__name__
        raise ValueError(f"{path}: a manifest needs exactly the keys {keys}, got {found}")
    return RunManifest(**data)


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Write a headered CSV; floats at 17 significant digits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def default_out_dir() -> Path:
    return Path(os.environ.get("QEOPT_OUT_DIR", "results"))
