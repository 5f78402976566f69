"""Command-line harness tying the modules into reproducible experiments.

Every command is deterministic under a fixed --seed, writes headered CSV
(or instance files) plus a JSON manifest sidecar, and re-running the same
invocation reproduces output files byte-for-byte. Exit codes: 0 success,
2 flag/validation error, 3 runtime or numeric error.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import click
import numpy as np

from qeopt import analysis as ana
from qeopt import optimizer as opt
from qeopt import runfiles
from qeopt.ansatz import LayerParams, extract_solution, landscape, run_ansatz
from qeopt.compiler import _check_verifiable, compile_layer, dumps
from qeopt.encoding import is_pow2_multiple, make_scheme
from qeopt.estimator import exact_evaluation_bytes, exact_group_stats
from qeopt.problem import (WEIGHT_KINDS, approximation_ratio, cost, example_instance_n4,
                           generate_sk, ground_truth, pad_instance)
from qeopt.rng import stream
from qeopt.simulator import init_plus


class RuntimeFailure(click.ClickException):
    exit_code = 3


# smallest accepted value of each integer flag, by parameter name
FLAG_MINIMA = {"n": 2, "count": 1, "d": 1, "p": 1, "hops": 0, "local_evals": 1,
               "beta_steps": 1, "gamma_steps": 1, "samples": 1, "replicas": 2, "jobs": 1}


def _fail_usage(problems: Sequence[str] = ()) -> None:
    """Exit 2 with one line naming every bad flag of the running command: an
    integer flag below its ``FLAG_MINIMA`` entry, a non-finite float flag,
    ``--mode shots`` without ``--shots`` >= 1, then the command's own
    cross-flag ``problems``."""
    ctx = click.get_current_context()
    found = []
    for param in ctx.command.params:
        value, flag = ctx.params[param.name], param.opts[0]
        if param.name in FLAG_MINIMA and value < FLAG_MINIMA[param.name]:
            found.append(f"{flag} must be >= {FLAG_MINIMA[param.name]}")
        elif isinstance(value, float) and not math.isfinite(value):
            found.append(f"{flag} must be finite")
    if ctx.params.get("mode") == "shots" and (ctx.params["shots"] or 0) < 1:
        found.append("--shots must be >= 1 when --mode shots")
    if found or problems:
        raise click.UsageError("; ".join([*found, *problems]))


def _resolve_out(out: str | None, default_name: str) -> Path:
    path = Path(out) if out else runfiles.default_out_dir() / default_name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _reconstruct_argv(ctx: click.Context) -> list[str]:
    """Canonical argv for the current invocation, rebuilt from resolved params."""
    argv = [ctx.command.name]
    for param in ctx.command.params:
        value = ctx.params.get(param.name)
        if value is None:
            continue
        flag = param.opts[0]
        if param.is_flag:
            if value:
                argv.append(flag)
            elif param.secondary_opts:
                argv.append(param.secondary_opts[0])
        elif param.multiple:
            for item in value:
                argv += [flag, str(item)]
        else:
            argv += [flag, str(value)]
    return argv


def _emit(inputs: list[str], out_path: Path) -> None:
    """Write the manifest of the running command: its flags, minus seed and out, are the config."""
    ctx = click.get_current_context()
    config = {k: v for k, v in ctx.params.items() if k not in ("seed", "out")}
    manifest = runfiles.make_manifest(ctx.command.name, _reconstruct_argv(ctx), config,
                                      ctx.params["seed"], inputs, [str(out_path)])
    runfiles.write_manifest(manifest, out_path)


def _load_instance(path: str, d: int):
    inst = runfiles.read_instance(path)
    return inst, make_scheme(inst.n_vars, d)


def _memory_limit() -> int:
    """Physical memory, or the lowest cgroup memory limit when lower.

    A limit on any cgroup from this process's own up to the mount root
    applies, so every readable limit file on that path counts: the v2
    ``memory.max`` along the ``0::`` line of ``/proc/self/cgroup`` and the v1
    ``memory.limit_in_bytes`` along its ``memory`` line. Without that file,
    only the two mount roots are read.
    """
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    hierarchies = {"": ("/sys/fs/cgroup", "memory.max"),
                   "memory": ("/sys/fs/cgroup/memory", "memory.limit_in_bytes")}
    own = dict.fromkeys(hierarchies, "/")
    try:
        for line in Path("/proc/self/cgroup").read_text().splitlines():
            _, controllers, path = line.split(":", 2)
            if controllers in own:
                own[controllers] = path
    except (OSError, ValueError):  # no such file, or a line not in its format
        pass
    for controllers, path in own.items():
        mount, name = hierarchies[controllers]
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts) + 1):
            try:
                limit = min(limit, int(Path(mount, *parts[:depth], name).read_text()))
            except (OSError, ValueError):  # no such cgroup file, or "max"
                pass
    return limit


def _check_memory(scheme, workers: int = 1) -> None:
    """Exit 3 before anything is simulated when ``workers`` concurrent exact
    evaluations at ``scheme`` would exceed the memory limit."""
    need, have = workers * exact_evaluation_bytes(scheme), _memory_limit()
    if need > have:
        each = f" in each of {workers} workers" if workers > 1 else ""
        raise RuntimeFailure(
            f"an exact evaluation at N={scheme.n_vars}, d={scheme.group_size} "
            f"(q={scheme.n_qubits}) needs about "
            f"{need / workers / 2**30:.2f} GiB{each}, more than the "
            f"{have / 2**30:.2f} GiB memory limit")


def _parse_params(text: str) -> list[LayerParams]:
    layers = []
    for chunk in text.split(";"):
        try:
            values = [float(v) for v in chunk.split(",")]
        except ValueError:
            values = []
        if len(values) != 3 or not all(math.isfinite(v) for v in values):
            raise click.UsageError(
                f"bad parameter layer {chunk!r}: need three finite numbers 'beta,gamma,gamma_bias'"
            )
        layers.append(LayerParams(*values))
    return layers


def _params_text(layers) -> str:
    return ";".join(f"{lp.beta:.17g},{lp.gamma:.17g},{lp.gamma_bias:.17g}" for lp in layers)


# set in each worker's environment: a multi-threaded BLAS per worker
# oversubscribes the cores the workers already share
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@contextmanager
def _environ(values: dict[str, str]):
    saved = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _pmap(fn, items, jobs: int):
    """``[fn(item) for item in items]``; with more than one job and item, in
    at most ``jobs`` freshly spawned worker processes whose BLAS runs one
    thread (this process's BLAS, loaded already, keeps its own setting)."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing  # here: a run with one job never loads the pool
    from concurrent.futures import ProcessPoolExecutor

    with _environ(WORKER_ENV), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, items))


class _Group(click.Group):
    """Command group whose bad input files, numeric failures and inputs too
    large to hold in memory exit with code 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, MemoryError) as exc:
            raise RuntimeFailure(str(exc))


@click.group(cls=_Group, context_settings={"help_option_names": ["-h", "--help"]})
def main():
    """Qubit-efficient spin-glass solver: experiments as reproducible commands.

    Output CSV columns are documented per command under --help. Every output
    file gets a .manifest.json sidecar; `qeopt rerun` replays a manifest.
    The default output directory is ./results, or $QEOPT_OUT_DIR if set.
    """


# ---------------------------------------------------------------------------
@main.command()
@click.option("--n", type=int, default=64, show_default=True, help="Variable count N.")
@click.option("--kind", type=click.Choice(WEIGHT_KINDS), default="pm1", show_default=True)
@click.option("--count", type=int, default=1, show_default=True, help="Instances to write.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--fixture-n4", is_flag=True, help="Write the fixed 4-variable worked instance instead.")
@click.option("--out", type=str, default=None, help="Output directory [default: results/instances].")
def generate(n, kind, count, seed, fixture_n4, out):
    """Write SK instance files (one file per instance, derived per-instance seeds)."""
    _fail_usage()
    out_dir = Path(out) if out else runfiles.default_out_dir() / "instances"
    out_dir.mkdir(parents=True, exist_ok=True)
    if fixture_n4:
        named = [("fixture_n4.txt", example_instance_n4())]
    else:
        seeds = [int(stream(seed, "instance", k).integers(0, 2**31 - 1)) for k in range(count)]
        named = [(f"sk_n{n}_{kind}_{k:03d}.txt", generate_sk(n, kind, seed=inst_seed))
                 for k, inst_seed in enumerate(seeds)]
    for name, inst in named:
        path = out_dir / name
        runfiles.write_instance(inst, path)
        _emit([], path)
        click.echo(f"wrote {path}")


# ---------------------------------------------------------------------------
@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--d", type=int, required=True, help="Group size (d=N for the product-state limit).")
@click.option("--p", type=int, default=1, show_default=True, help="Ansatz depth.")
@click.option("--mode", type=click.Choice(["exact", "shots"]), default="exact", show_default=True)
@click.option("--shots", type=int, default=None, help="Shot budget (mode=shots).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--hops", type=int, default=20, show_default=True, help="Basin hops.")
@click.option("--local-evals", type=int, default=200, show_default=True)
@click.option("--freeze-gamma-bias", is_flag=True, help="Pin gamma' = 0 during optimization.")
@click.option("--warm-start/--no-warm-start", default=True, show_default=True,
              help="Optimize p = 1..p with layerwise seeding.")
@click.option("--allow-padding", is_flag=True, help="Pad N with zero weights up to the next "
              "d * 2^k; C* is taken on the instance as given, the n_vars column is N padded.")
@click.option("--out", type=str, default=None, help="Result CSV [default: results/solve.csv].")
def solve(instance_path, d, p, mode, shots, seed, hops, local_evals, freeze_gamma_bias,
          warm_start, allow_padding, out):
    """Optimize the ansatz on one instance and write a result row.

    CSV columns: instance, n_vars, d, p, mode, shots (0 in exact mode), seed,
    cost, c_star, c_star_method, ratio, eval_count, rounded_cost,
    rounded_ratio, params (semicolon-joined beta,gamma,gamma_bias triples),
    solution (+-1 string). eval_count counts the exact evaluations of the
    last depth's search: the warm-start pin or the presearch, then
    Nelder-Mead and the hops; not earlier depths or the appended-layer grids.
    """
    _fail_usage()
    out_path = _resolve_out(out, "solve.csv")
    inst = runfiles.read_instance(instance_path)
    encoded = pad_instance(inst, d) if allow_padding else inst
    scheme = make_scheme(encoded.n_vars, d)
    _check_memory(scheme)
    record = ground_truth(inst, seed=seed)
    config = opt.OptimizerConfig(
        n_hops=hops, max_local_evals=local_evals,
        freeze_gamma_bias=freeze_gamma_bias, seed=seed,
    )
    if warm_start:
        result = opt.warm_start_schedule(encoded, scheme, p, config)[p]
    else:
        result = opt.optimize(encoded, scheme, p, config)
    trace = run_ansatz(encoded, scheme, list(result.best_params), mode=mode,
                       n_shots=shots, seed=seed)
    solution = extract_solution(trace, seed=seed)[0][:inst.n_vars]
    rounded_cost = cost(inst, solution)  # on the instance C* was taken on
    ratio = approximation_ratio(trace.final_cost, record.best_cost)
    row = [
        Path(instance_path).name, encoded.n_vars, d, p, mode, shots if mode == "shots" else 0,
        seed, trace.final_cost, record.best_cost, record.method, ratio,
        result.eval_count, rounded_cost, approximation_ratio(rounded_cost, record.best_cost),
        _params_text(result.best_params), "".join("+" if v > 0 else "-" for v in solution),
    ]
    runfiles.write_csv(
        out_path,
        ["instance", "n_vars", "d", "p", "mode", "shots", "seed", "cost", "c_star",
         "c_star_method", "ratio", "eval_count", "rounded_cost", "rounded_ratio",
         "params", "solution"],
        [row],
    )
    _emit([instance_path], out_path)
    click.echo(f"cost {trace.final_cost:.6f} (r = {ratio:.4f}) -> {out_path}")


# ---------------------------------------------------------------------------
def _landscape_block(grid: dict, block):
    """``landscape`` over one block of beta rows; ``grid`` holds its other arguments."""
    betas, seed = block
    return landscape(betas=betas, seed=seed, **grid)


@main.command("landscape")
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--d", type=int, required=True)
@click.option("--beta-steps", type=int, default=33, show_default=True)
@click.option("--gamma-steps", type=int, default=33, show_default=True)
@click.option("--gamma-bias", type=float, default=0.0, show_default=True)
@click.option("--mode", type=click.Choice(["exact", "shots"]), default="exact", show_default=True)
@click.option("--shots", type=int, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--out", type=str, default=None, help="CSV [default: results/landscape.csv].")
def landscape_cmd(instance_path, d, beta_steps, gamma_steps, gamma_bias, mode, shots, seed,
                  jobs, out):
    """Single-layer cost over a (beta, gamma) grid.

    CSV columns: beta, gamma, cost. beta spans [0, pi], gamma spans [-pi, pi].
    The beta rows split into one contiguous block per job; the output does
    not depend on --jobs.
    """
    _fail_usage()
    out_path = _resolve_out(out, "landscape.csv")
    betas = np.linspace(0.0, math.pi, beta_steps)
    gammas = np.linspace(-math.pi, math.pi, gamma_steps)
    inst, scheme = _load_instance(instance_path, d)
    n_blocks = min(jobs, beta_steps)
    _check_memory(scheme, n_blocks)
    grid = dict(instance=inst, scheme=scheme, gammas=gammas, gamma_bias=gamma_bias,
                mode=mode, n_shots=shots)
    # the block from row r runs at seed * 100_003 + r, which gives each row
    # the shot seeds of a one-row grid at seed * 100_003 + (its row)
    blocks = [(betas[rows], seed * 100_003 + int(rows[0]))
              for rows in np.array_split(np.arange(beta_steps), n_blocks)]
    costs = np.vstack(_pmap(partial(_landscape_block, grid), blocks, jobs))
    rows = [[beta, gamma, cost] for beta, cost_row in zip(betas, costs)
            for gamma, cost in zip(gammas, cost_row)]
    runfiles.write_csv(out_path, ["beta", "gamma", "cost"], rows)
    _emit([instance_path], out_path)
    click.echo(f"wrote {out_path}")


# ---------------------------------------------------------------------------
@main.command()
@click.option("--n", type=int, default=65536, show_default=True)
@click.option("--d-list", type=str, default="1,2,4,8,16,64,256,1024", show_default=True)
@click.option("--samples", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None, help="CSV [default: results/entropy.csv].")
def entropy(n, d_list, samples, seed, out):
    """Mean data-register entanglement of encoded random strings.

    CSV columns: d, mean_entropy_bits, bound_bits (= min(d, log2(N/d))).
    """
    try:
        ds = [int(v) for v in d_list.split(",")]
    except ValueError:
        raise click.UsageError(f"--d-list must be comma-separated ints, got {d_list!r}")
    _fail_usage([f"d={d} does not divide N={n} with a power-of-two quotient"
                 for d in ds if not is_pow2_multiple(n, d)])
    out_path = _resolve_out(out, "entropy.csv")
    means = ana.entropy_profile(n, ds, n_samples=samples, seed=seed)
    rows = [[d, s, min(d, int(math.log2(n // d)))] for d, s in zip(ds, means)]
    runfiles.write_csv(out_path, ["d", "mean_entropy_bits", "bound_bits"], rows)
    _emit([], out_path)
    click.echo(f"wrote {out_path}")


# ---------------------------------------------------------------------------
@main.command()
@click.option("--instance", "instance_paths", type=click.Path(exists=True), multiple=True,
              required=True, help="Instance file(s); repeatable.")
@click.option("--d", type=int, required=True)
@click.option("--r-star", type=str, default=None,
              help="Reference ratios as 'p:r,p:r' for the asymptotic bound column.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None, help="CSV [default: results/baseline.csv].")
def baseline(instance_paths, d, r_star, seed, out):
    """Decomposition baseline: exact intra-group optima vs the full optimum.

    CSV columns: instance, n_vars, d, baseline_cost, c_star, c_star_method,
    baseline_ratio, asymptotic_ratio_p<P> (one column per supplied r*(p)).
    """
    pairs, problems = [], []
    if r_star:
        try:
            pairs = [(int(key), float(val))
                     for key, _, val in (part.partition(":") for part in r_star.split(","))]
        except ValueError:
            raise click.UsageError(f"--r-star must look like '1:0.3,2:0.41', got {r_star!r}")
    table = dict(pairs)
    if len(table) < len(pairs):
        problems.append("--r-star lists a depth more than once")
    try:
        btable = ana.BaselineTable(table) if table else None
    except ValueError as exc:
        problems.append(f"--r-star: {exc}")
    _fail_usage(problems)
    out_path = _resolve_out(out, "baseline.csv")
    header = ["instance", "n_vars", "d", "baseline_cost", "c_star", "c_star_method",
              "baseline_ratio"] + [f"asymptotic_ratio_p{p}" for p in sorted(table)]
    rows = []
    for path in instance_paths:
        inst, scheme = _load_instance(path, d)
        dec = ana.decomposed_baseline_exact(inst, scheme)
        record = ground_truth(inst, seed=seed)
        row = [Path(path).name, inst.n_vars, d, dec, record.best_cost, record.method,
               approximation_ratio(dec, record.best_cost)]
        row += [ana.baseline_ratio(p, inst.n_vars, d, btable) for p in sorted(table)]
        rows.append(row)
    runfiles.write_csv(out_path, header, rows)
    _emit(list(instance_paths), out_path)
    click.echo(f"wrote {out_path}")


# ---------------------------------------------------------------------------
@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--d", type=int, required=True)
@click.option("--params", type=str, required=True,
              help="Fixed layers 'beta,gamma,gamma_bias[;...]'.")
@click.option("--shot-counts", type=str, default="100,1000,10000,100000", show_default=True)
@click.option("--replicas", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None, help="CSV [default: results/shots.csv].")
def shots(instance_path, d, params, shot_counts, replicas, seed, out):
    """Shot-noise convergence of the estimated cost at fixed parameters.

    CSV columns: n_shots, mean_abs_error, stderr, relative_error, exact_cost.
    """
    try:
        counts = [int(v) for v in shot_counts.split(",")]
    except ValueError:
        raise click.UsageError(f"--shot-counts must be comma-separated ints, got {shot_counts!r}")
    layers = _parse_params(params)
    problems = []
    if min(counts) < 1:
        problems.append("--shot-counts budgets must be >= 1")
    if len(set(counts)) < 2:
        problems.append("--shot-counts needs at least two distinct budgets for the slope")
    _fail_usage(problems)
    out_path = _resolve_out(out, "shots.csv")
    inst, scheme = _load_instance(instance_path, d)
    _check_memory(scheme)
    study = ana.shot_noise_study(inst, scheme, layers, counts, replicas=replicas, seed=seed)
    if study.exact_cost == 0:
        raise RuntimeFailure("relative error needs a nonzero exact cost, got 0")
    slope = study.loglog_slope()
    rows = [
        [n, err, se, err / abs(study.exact_cost), study.exact_cost]
        for n, err, se in zip(study.shot_counts, study.mean_abs_error, study.stderr)
    ]
    runfiles.write_csv(
        out_path, ["n_shots", "mean_abs_error", "stderr", "relative_error", "exact_cost"],
        rows,
    )
    _emit([instance_path], out_path)
    click.echo(f"wrote {out_path} (loglog slope {slope:.3f})")


# ---------------------------------------------------------------------------
def _transfer_worker(seed, task):
    inst, scheme, layers = task
    record = ground_truth(inst, seed=seed)
    trace = run_ansatz(inst, scheme, list(layers), mode="exact")
    return trace.final_cost, record.best_cost, record.method


@main.command()
@click.option("--donor-instance", type=click.Path(exists=True), required=True,
              help="Instance whose optimized parameters are reused.")
@click.option("--target-instance", "target_paths", type=click.Path(exists=True), multiple=True,
              required=True, help="Ensemble instance file(s); repeatable.")
@click.option("--d", type=int, required=True)
@click.option("--p", type=int, default=3, show_default=True)
@click.option("--donor-params", type=str, default=None,
              help="Skip donor optimization and use these layers.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--hops", type=int, default=20, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--out", type=str, default=None, help="CSV [default: results/transfer.csv].")
def transfer(donor_instance, target_paths, d, p, donor_params, seed, hops, jobs, out):
    """Reuse donor-optimized parameters across an ensemble (gamma rescaled by
    (d1/d0)(N0/N1)^(3/2) when target sizes differ).

    CSV columns: instance, n_vars, d, p (the layers used), cost, c_star,
    c_star_method, ratio, donor_ratio, params. donor_ratio is nan when the
    layers come from --donor-params, with no donor search.
    """
    _fail_usage()
    layers = tuple(_parse_params(donor_params)) if donor_params else None
    out_path = _resolve_out(out, "transfer.csv")
    donor_inst, donor_scheme = _load_instance(donor_instance, d)
    targets = [_load_instance(path, d) for path in target_paths]
    _check_memory(max((scheme for _, scheme in targets), key=lambda scheme: scheme.dim),
                  min(jobs, len(targets)))
    if layers is not None:
        donor_ratio = float("nan")
    else:
        _check_memory(donor_scheme)
        record = ground_truth(donor_inst, seed=seed)
        donor = opt.warm_start_schedule(donor_inst, donor_scheme, p,
                                        opt.OptimizerConfig(n_hops=hops, seed=seed))[p]
        layers = donor.best_params
        donor_ratio = approximation_ratio(donor.best_cost, record.best_cost)

    tasks = [(target, scheme,
              opt.transfer_params(layers, (donor_inst.n_vars, d), (target.n_vars, d)))
             for target, scheme in targets]
    results = _pmap(partial(_transfer_worker, seed), tasks, jobs)
    rows = [
        [Path(path).name, target.n_vars, d, len(layers), cost, c_star, method,
         approximation_ratio(cost, c_star), donor_ratio, _params_text(scaled)]
        for path, (target, _, scaled), (cost, c_star, method) in zip(target_paths, tasks, results)
    ]
    runfiles.write_csv(
        out_path,
        ["instance", "n_vars", "d", "p", "cost", "c_star", "c_star_method", "ratio",
         "donor_ratio", "params"],
        rows,
    )
    _emit([donor_instance, *target_paths], out_path)
    ratios = [row[7] for row in rows]
    click.echo(f"wrote {out_path} (mean r = {np.mean(ratios):.4f})")


# ---------------------------------------------------------------------------
@main.command("compile-check")
@click.option("--n", type=int, default=4, show_default=True)
@click.option("--d", type=int, default=2, show_default=True)
@click.option("--beta", type=float, default=1.178097245096172, show_default=True)
@click.option("--gamma", type=float, default=0.39269908169872414, show_default=True)
@click.option("--gamma-bias", type=float, default=0.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--fixture-n4", is_flag=True,
              help="Use the fixed 4-variable worked instance (needs --n 4) in place of a "
                   "random pm1 instance drawn from --seed.")
@click.option("--out", type=str, default=None,
              help="Native circuit listing [default: results/compiled_layer.txt].")
def compile_check(n, d, beta, gamma, gamma_bias, seed, fixture_n4, out):
    """Compile one full layer (phase separator + bias + mixer) to native gates
    and verify it against the ideal unitary; prints the max deviation."""
    problems = []
    if d >= 1 and not is_pow2_multiple(n, d):  # a --d below 1 has its own message
        problems.append(f"--d {d} does not divide --n {n} with a power-of-two quotient")
    if fixture_n4 and n != 4:
        problems.append("--fixture-n4 needs --n 4")
    _fail_usage(problems)
    out_path = _resolve_out(out, "compiled_layer.txt")
    scheme = make_scheme(n, d)
    _check_verifiable(scheme.n_qubits)  # before the instance is drawn
    inst = example_instance_n4() if fixture_n4 else generate_sk(n, "pm1", seed=seed)
    stats = exact_group_stats(scheme, init_plus(scheme.n_qubits))
    native, deviation = compile_layer(inst, scheme, stats, LayerParams(beta, gamma, gamma_bias))
    out_path.write_text(dumps(native))
    _emit([], out_path)
    counts = native.gate_counts()
    click.echo(
        f"max_deviation {'<' if deviation < 1e-9 else '>='} 1e-9 "
        f"(value {deviation:.3e}; iswap={counts.get('ISWAP', 0)}, depth={native.depth()})"
    )
    if deviation >= 1e-9:
        raise RuntimeFailure(f"compiled layer deviates by {deviation:.3e}")


# ---------------------------------------------------------------------------
@main.command()
@click.option("--manifest", "manifest_file", type=click.Path(exists=True), required=True)
def rerun(manifest_file):
    """Replay a recorded command from its manifest (byte-identical outputs)."""
    manifest = runfiles.read_manifest(manifest_file)
    argv = manifest.argv
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)
            and argv and argv[0] in main.commands and argv[0] != "rerun"):
        raise RuntimeFailure(f"{manifest_file}: argv must be a list of strings that starts "
                             f"with a command other than rerun, got {argv!r}")
    click.echo(f"replaying: qeopt {' '.join(argv)}")
    main.main(args=argv, standalone_mode=False)


if __name__ == "__main__":
    main()
