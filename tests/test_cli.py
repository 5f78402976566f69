import csv
import ctypes
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qeopt.ansatz
from qeopt import cli
from qeopt.cli import main
from qeopt.problem import SKInstance, example_instance_n4, generate_sk
from qeopt.runfiles import read_instance, read_manifest, write_instance


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "fixture.txt"
    write_instance(example_instance_n4(), path)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


class TestInstanceFiles:
    def test_round_trip_exact(self, tmp_path):
        inst = generate_sk(16, "gaussian", seed=3)
        path = tmp_path / "inst.txt"
        write_instance(inst, path)
        again = read_instance(path)
        np.testing.assert_array_equal(inst.weights, again.weights)
        assert again.weight_kind == "gaussian"
        assert again.seed == 3

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError, match="not a qeopt instance"):
            read_instance(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:1], "truncated"),
        (lambda lines: lines[:3], "truncated"),
        (lambda lines: lines[:-1], "expected 6 weight lines, got 5"),
        (lambda lines: [l.replace("pm1", "uniform") for l in lines], "weight_kind"),
        (lambda lines: lines[:-1] + [lines[-2]], "repeated weight pair"),
        (lambda lines: lines[:-1] + ["2 3"], "bad weight line"),
    ], ids=["header-only", "half-header", "missing-weight", "unknown-kind", "repeated-pair",
            "short-weight-line"])
    def test_rejects_malformed_file(self, fixture_file, edit, message):
        lines = edit(fixture_file.read_text().splitlines())
        fixture_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            read_instance(fixture_file)


class TestGenerate:
    def test_writes_count_files_with_right_weight_count(self, runner, tmp_path):
        out = tmp_path / "insts"
        result = runner.invoke(main, ["generate", "--n", "64", "--count", "5",
                                      "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        files = sorted(out.glob("sk_n64_pm1_*.txt"))
        assert len(files) == 5
        inst = read_instance(files[0])
        assert sum(1 for _ in inst.weight_pairs()) == 64 * 63 // 2

    def test_regeneration_is_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            result = runner.invoke(main, ["generate", "--n", "16", "--count", "2",
                                          "--seed", "9", "--out", str(out)])
            assert result.exit_code == 0
        for fa, fb in zip(sorted(a.glob("*.txt")), sorted(b.glob("*.txt"))):
            assert fa.read_bytes() == fb.read_bytes()

    def test_fixture_flag_writes_the_worked_instance(self, runner, tmp_path):
        out = tmp_path / "f"
        result = runner.invoke(main, ["generate", "--fixture-n4", "--out", str(out)])
        assert result.exit_code == 0
        inst = read_instance(out / "fixture_n4.txt")
        np.testing.assert_array_equal(inst.weights, example_instance_n4().weights)

    def test_validation_exit_code_2(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--n", "1", "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_unknown_flag_is_hard_error(self, runner):
        result = runner.invoke(main, ["generate", "--frobnicate"])
        assert result.exit_code == 2


class TestSolve:
    def test_fixture_p1_frozen_bias_gives_half_ratio(self, runner, fixture_file, tmp_path):
        out = tmp_path / "res.csv"
        result = runner.invoke(main, [
            "solve", "--instance", str(fixture_file), "--d", "2", "--p", "1",
            "--freeze-gamma-bias", "--hops", "4", "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        (row,) = read_rows(out)
        assert float(row["ratio"]) == pytest.approx(0.5, abs=1e-4)
        assert row["c_star"] == "-4"
        assert row["c_star_method"] == "brute_force"
        assert float(row["rounded_cost"]) == -4.0

    def test_d_equals_n_runs_without_label_register(self, runner, fixture_file, tmp_path):
        out = tmp_path / "res.csv"
        result = runner.invoke(main, [
            "solve", "--instance", str(fixture_file), "--d", "4", "--p", "1",
            "--hops", "2", "--local-evals", "60", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert out.exists()

    def test_shot_mode_needs_shots(self, runner, fixture_file, tmp_path):
        result = runner.invoke(main, [
            "solve", "--instance", str(fixture_file), "--d", "2", "--mode", "shots",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 2
        assert "--shots" in result.output

    def test_validation_lists_all_problems_at_once(self, runner, fixture_file, tmp_path):
        result = runner.invoke(main, [
            "solve", "--instance", str(fixture_file), "--d", "0", "--p", "0",
            "--mode", "shots", "--out", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 2
        assert "--p" in result.output and "--shots" in result.output and "--d" in result.output

    def test_padded_solve_strips_dummy_variables(self, runner, tmp_path):
        # N=12 with d=4 pads to 16 encoded variables; the reported solution
        # must come back at the original length
        inst_path = tmp_path / "n12.txt"
        write_instance(generate_sk(12, "pm1", seed=2), inst_path)
        out = tmp_path / "res.csv"
        result = runner.invoke(main, [
            "solve", "--instance", str(inst_path), "--d", "4", "--p", "1",
            "--allow-padding", "--hops", "1", "--local-evals", "40", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        (values,) = read_rows(out)
        assert len(values["solution"]) == 12
        assert values["n_vars"] == "16"

    def test_padding_required_without_flag(self, runner, tmp_path):
        inst_path = tmp_path / "n12.txt"
        write_instance(generate_sk(12, "pm1", seed=2), inst_path)
        result = runner.invoke(main, [
            "solve", "--instance", str(inst_path), "--d", "4",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 3
        assert "power of two" in result.output

    def test_rerun_reproduces_byte_for_byte(self, runner, fixture_file, tmp_path):
        out = tmp_path / "res.csv"
        args = ["solve", "--instance", str(fixture_file), "--d", "2", "--p", "1",
                "--hops", "1", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        first = out.read_bytes()
        result = runner.invoke(main, ["rerun", "--manifest", str(out) + ".manifest.json"])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == first
        assert len(read_rows(out)) == 1

    def test_shot_mode_summary_ratio_matches_csv(self, runner, fixture_file, tmp_path):
        out = tmp_path / "res.csv"
        result = runner.invoke(main, [
            "solve", "--instance", str(fixture_file), "--d", "2", "--p", "1", "--mode", "shots",
            "--shots", "200", "--hops", "1", "--local-evals", "40", "--seed", "3",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        (row,) = read_rows(out)
        printed = float(result.output.split("(r = ")[1].split(")")[0])
        assert printed == round(float(row["ratio"]), 4)
        assert float(result.output.split()[1]) == pytest.approx(float(row["cost"]), abs=1e-6)

    def test_exact_mode_writes_no_shots_and_unsigned_zero_ratio(self, runner, fixture_file,
                                                                tmp_path):
        out = tmp_path / "res.csv"
        result = runner.invoke(main, [
            "solve", "--instance", str(fixture_file), "--d", "2", "--p", "1", "--hops", "1",
            "--local-evals", "20", "--shots", "500", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        (row,) = read_rows(out)
        assert (row["mode"], row["shots"]) == ("exact", "0")
        assert (row["rounded_cost"], row["rounded_ratio"]) == ("0", "0")

    def test_zero_shot_cost_has_unsigned_zero_ratio(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--n", "16", "--seed", "3",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "res.csv"
        result = runner.invoke(main, [
            "solve", "--instance", str(tmp_path / "sk_n16_pm1_000.txt"), "--d", "4", "--p", "2",
            "--hops", "1", "--local-evals", "40", "--mode", "shots", "--shots", "400",
            "--seed", "4", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        (row,) = read_rows(out)
        assert (row["cost"], row["ratio"]) == ("0", "0")
        assert "(r = 0.0000)" in result.output

    def test_manifest_written(self, runner, fixture_file, tmp_path):
        out = tmp_path / "res.csv"
        result = runner.invoke(main, [
            "solve", "--instance", str(fixture_file), "--d", "2", "--p", "1",
            "--freeze-gamma-bias", "--hops", "1", "--local-evals", "40", "--out", str(out),
        ])
        assert result.exit_code == 0
        manifest = read_manifest(str(out) + ".manifest.json")
        assert manifest.command == "solve"
        assert manifest.config["d"] == 2


class TestLandscape:
    def test_csv_matches_closed_form(self, runner, fixture_file, tmp_path):
        out = tmp_path / "land.csv"
        result = runner.invoke(main, [
            "landscape", "--instance", str(fixture_file), "--d", "2",
            "--beta-steps", "9", "--gamma-steps", "9", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 81
        for line in rows:
            beta, gamma, cost = (float(v) for v in line.split(","))
            assert cost == pytest.approx(2 * np.sin(4 * beta) * np.sin(4 * gamma), abs=1e-9)

    def test_rerun_reproduces_byte_for_byte(self, runner, fixture_file, tmp_path):
        out = tmp_path / "land.csv"
        args = ["landscape", "--instance", str(fixture_file), "--d", "2",
                "--beta-steps", "5", "--gamma-steps", "5", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        first = out.read_bytes()
        result = runner.invoke(main, ["rerun", "--manifest", str(out) + ".manifest.json"])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == first

    def test_parallel_jobs_identical_output(self, runner, fixture_file, tmp_path):
        outs = []
        for jobs, name in [("1", "a.csv"), ("2", "b.csv")]:
            out = tmp_path / name
            result = runner.invoke(main, [
                "landscape", "--instance", str(fixture_file), "--d", "2",
                "--beta-steps", "4", "--gamma-steps", "4", "--jobs", jobs, "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_jobs_identical_output_in_shot_mode(self, runner, fixture_file, tmp_path):
        # uneven blocks at --jobs 3; the bytes are those of the per-row seeds
        # (--seed * 100003 + row) that earlier manifests replay
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"j{jobs}.csv"
            result = runner.invoke(main, [
                "landscape", "--instance", str(fixture_file), "--d", "2", "--beta-steps", "5",
                "--gamma-steps", "3", "--mode", "shots", "--shots", "200", "--seed", "4",
                "--jobs", jobs, "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            assert hashlib.sha256(out.read_bytes()).hexdigest() == SHOT_LANDSCAPE_SHA256

    def test_one_prefix_per_run(self, runner, fixture_file, tmp_path, monkeypatch):
        built = []
        prepare = qeopt.ansatz.prepare_prefix
        monkeypatch.setattr(qeopt.ansatz, "prepare_prefix",
                            lambda *args: built.append(args) or prepare(*args))
        result = runner.invoke(main, [
            "landscape", "--instance", str(fixture_file), "--d", "2", "--beta-steps", "5",
            "--gamma-steps", "3", "--jobs", "1", "--out", str(tmp_path / "land.csv"),
        ])
        assert result.exit_code == 0, result.output
        assert len(built) == 1


# sha256 of `landscape --d 2 --beta-steps 5 --gamma-steps 3 --mode shots --shots 200
# --seed 4` on the 4-variable fixture
SHOT_LANDSCAPE_SHA256 = "4f711ac61774f70504f1843c4a7a4838bd458619b12341ce07cd3079af8b64ec"


def blas_threads(_=None):
    """This process's pid, BLAS environment and the thread count its loaded
    OpenBLAS reports (None when numpy bundles no OpenBLAS)."""
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
    env = {key: os.environ.get(key) for key in cli.WORKER_ENV}
    return os.getpid(), env, threads


class TestWorkerPool:
    def test_workers_run_one_blas_thread(self, monkeypatch):
        for key in cli.WORKER_ENV:
            monkeypatch.delenv(key, raising=False)
        _, env_before, parent_threads = blas_threads()
        results = cli._pmap(blas_threads, range(4), 2)
        for pid, env, threads in results:
            assert pid != os.getpid()
            assert env == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
            assert threads in (None, 1)
        assert blas_threads() == (os.getpid(), env_before, parent_threads)

    def test_one_job_runs_inline(self):
        assert {pid for pid, _, _ in cli._pmap(blas_threads, range(3), 1)} == {os.getpid()}

    def test_one_item_runs_inline(self):
        assert {pid for pid, _, _ in cli._pmap(blas_threads, range(1), 2)} == {os.getpid()}


class TestEntropyCmd:
    def test_respects_schmidt_bound(self, runner, tmp_path):
        out = tmp_path / "ent.csv"
        result = runner.invoke(main, [
            "entropy", "--n", "1024", "--d-list", "1,2,4,256", "--samples", "5",
            "--seed", "2", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        for line in out.read_text().splitlines()[1:]:
            d, s, bound = line.split(",")
            assert float(s) <= float(bound) + 1e-9

    def test_bad_d_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "entropy", "--n", "1024", "--d-list", "3", "--out", str(tmp_path / "e.csv"),
        ])
        assert result.exit_code == 2

    def test_zero_d_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "entropy", "--n", "1024", "--d-list", "2,0", "--out", str(tmp_path / "e.csv"),
        ])
        assert result.exit_code == 2, result.output
        assert "d=0" in result.output


class TestBaselineCmd:
    def test_fixture_row(self, runner, fixture_file, tmp_path):
        out = tmp_path / "base.csv"
        result = runner.invoke(main, [
            "baseline", "--instance", str(fixture_file), "--d", "2",
            "--r-star", "1:0.5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        (values,) = read_rows(out)
        assert float(values["baseline_cost"]) == -2.0
        assert float(values["baseline_ratio"]) == 0.5
        assert float(values["asymptotic_ratio_p1"]) == pytest.approx(0.5 * np.sqrt(0.5))

    def test_non_finite_weight_exits_3(self, runner, fixture_file, tmp_path):
        text = fixture_file.read_text().splitlines()
        i, j, _ = text[-1].split()
        bad = tmp_path / "nan.txt"
        bad.write_text("\n".join(text[:-1] + [f"{i} {j} nan"]) + "\n")
        out = tmp_path / "base.csv"
        result = runner.invoke(main, ["baseline", "--instance", str(bad), "--d", "2",
                                      "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "weights must be finite" in result.output
        assert not out.exists()


    def test_zero_weight_instance_exits_3(self, runner, tmp_path):
        zero = tmp_path / "zero.txt"
        write_instance(SKInstance(8, np.zeros((8, 8)), "pm1", 0), zero)
        out = tmp_path / "base.csv"
        result = runner.invoke(main, ["baseline", "--instance", str(zero), "--d", "2",
                                      "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert one_error_line(result) and "C* < 0" in result.output

    @pytest.mark.parametrize("r_star", ["1:1.5", "1:0.5,2:0"])
    def test_r_star_out_of_range_exits_2(self, runner, fixture_file, tmp_path, r_star):
        out = tmp_path / "base.csv"
        result = runner.invoke(main, ["baseline", "--instance", str(fixture_file), "--d", "2",
                                      "--r-star", r_star, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--r-star" in result.output and "(0, 1]" in result.output
        assert not out.exists()


class TestShotsCmd:
    @pytest.mark.parametrize("params", ["a,b,c", "nan,0,0", "0,inf,0", "0.1,0.2", ""])
    def test_bad_params_exit_2(self, runner, fixture_file, tmp_path, params):
        out = tmp_path / "shots.csv"
        result = runner.invoke(main, [
            "shots", "--instance", str(fixture_file), "--d", "2", "--params", params,
            "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "finite numbers" in result.output
        assert not out.exists()

    def test_emits_error_columns(self, runner, fixture_file, tmp_path):
        out = tmp_path / "shots.csv"
        result = runner.invoke(main, [
            "shots", "--instance", str(fixture_file), "--d", "2",
            "--params", "1.178097245096172,0.39269908169872414,0",
            "--shot-counts", "100,10000", "--replicas", "5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "n_shots,mean_abs_error,stderr,relative_error,exact_cost"
        errs = [float(l.split(",")[1]) for l in lines[1:]]
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("shot_counts, message", [
        ("0,100", "budgets must be >= 1"),
        ("-5,100", "budgets must be >= 1"),
        ("100", "two distinct budgets"),
        ("100,100", "two distinct budgets"),
    ])
    def test_bad_shot_counts_exit_2(self, runner, fixture_file, tmp_path, shot_counts, message):
        out = tmp_path / "shots.csv"
        result = runner.invoke(main, [
            "shots", "--instance", str(fixture_file), "--d", "2", "--params", "0.5,0.2,0.1",
            "--shot-counts", shot_counts, "--replicas", "3", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("weights, params", [
        (np.zeros((8, 8)), "0.5,0.2,0.1"),
        (generate_sk(8, "pm1", seed=1).weights, "0.5,0.0,0.0"),
    ], ids=["all-zero-instance", "unmoved-plus-state"])
    def test_zero_exact_cost_exits_3(self, runner, tmp_path, weights, params):
        inst = tmp_path / "inst.txt"
        write_instance(SKInstance(8, weights, "pm1", 0), inst)
        out = tmp_path / "shots.csv"
        result = runner.invoke(main, [
            "shots", "--instance", str(inst), "--d", "2", "--params", params,
            "--shot-counts", "50,100", "--replicas", "3", "--out", str(out),
        ])
        assert result.exit_code == 3, result.output
        assert one_error_line(result) and "nonzero exact cost" in result.output
        assert not out.exists()


# sha256 of `compile-check --n 4 --d 2 --fixture-n4` at the default angles
FIXTURE_LISTING_SHA256 = "c5df758903c698fe93a898b33e85410103e0dd22d85c7765e57ac07277aaf06a"


class TestCompileCheckCmd:
    def test_reports_max_deviation(self, runner, tmp_path):
        out = tmp_path / "circ.txt"
        result = runner.invoke(main, [
            "compile-check", "--n", "4", "--d", "2", "--fixture-n4", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "max_deviation < 1e-9" in result.output
        from qeopt.compiler import NATIVE_GATES

        header, *lines = out.read_text().splitlines()
        assert header == "# circuit qubits=3"
        assert lines and {line.split(" ")[0] for line in lines} <= set(NATIVE_GATES)

    def test_seed_selects_the_instance_at_n4(self, runner, tmp_path):
        # at |+> only the intra-group weights w01 and w23 enter the layer:
        # seed 1 draws (-1, -1), seed 3 draws (+1, -1)
        listings = []
        for seed in ("1", "3"):
            out = tmp_path / f"seed{seed}.txt"
            result = runner.invoke(main, [
                "compile-check", "--n", "4", "--d", "2", "--seed", seed, "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            listings.append(out.read_bytes())
        assert listings[0] != listings[1]

    def test_fixture_listing_unchanged(self, runner, tmp_path):
        out = tmp_path / "fixture.txt"
        for seed in ("0", "5"):
            result = runner.invoke(main, [
                "compile-check", "--n", "4", "--d", "2", "--fixture-n4", "--seed", seed,
                "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            assert "iswap=8, depth=42" in result.output
            assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXTURE_LISTING_SHA256

    def test_register_over_the_verification_cap_exits_3(self, runner, tmp_path):
        # N=24, d=12: q = 13 > VERIFY_QUBIT_CAP, refused before the reference is built
        result = runner.invoke(main, [
            "compile-check", "--n", "24", "--d", "12", "--out", str(tmp_path / "c.txt"),
        ])
        assert result.exit_code == 3
        assert "capped" in result.output


class TestTransferCmd:
    def test_frozen_params_over_targets(self, runner, tmp_path):
        donor = tmp_path / "donor.txt"
        write_instance(generate_sk(16, "pm1", seed=1), donor)
        targets = []
        for k in range(2):
            path = tmp_path / f"t{k}.txt"
            write_instance(generate_sk(16, "pm1", seed=10 + k), path)
            targets.append(path)
        out = tmp_path / "trans.csv"
        args = ["transfer", "--donor-instance", str(donor), "--d", "4", "--p", "1",
                "--donor-params", "0.4,0.05,0.3", "--out", str(out)]
        for t in targets:
            args += ["--target-instance", str(t)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        ratios = [float(l.split(",")[7]) for l in lines[1:]]
        assert all(r <= 1.0 + 1e-9 for r in ratios)

    @pytest.mark.parametrize("donor_params, p", [
        ("0.4,0.05,0.3", "1"), ("0.4,0.05,0.3;0.2,-0.1,0", "2"),
    ])
    def test_p_column_counts_the_donor_layers(self, runner, fixture_file, tmp_path,
                                              donor_params, p):
        out = tmp_path / "t.csv"
        result = runner.invoke(main, [
            "transfer", "--donor-instance", str(fixture_file), "--target-instance",
            str(fixture_file), "--d", "2", "--donor-params", donor_params, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        (row,) = read_rows(out)
        assert row["p"] == p

    def test_bad_donor_params_exit_2(self, runner, fixture_file, tmp_path):
        result = runner.invoke(main, [
            "transfer", "--donor-instance", str(fixture_file), "--target-instance",
            str(fixture_file), "--d", "2", "--p", "1", "--donor-params", "x,0,0",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert result.exit_code == 2, result.output
        assert "finite numbers" in result.output

    def test_zero_weight_target_exits_3(self, runner, fixture_file, tmp_path):
        zero = tmp_path / "zero.txt"
        write_instance(SKInstance(4, np.zeros((4, 4)), "pm1", 0), zero)
        result = runner.invoke(main, [
            "transfer", "--donor-instance", str(fixture_file), "--target-instance", str(zero),
            "--d", "2", "--p", "1", "--donor-params", "0.4,0.05,0.3",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert result.exit_code == 3, result.output
        assert one_error_line(result) and "C* < 0" in result.output

    def test_parallel_jobs_identical_output(self, runner, tmp_path):
        donor = tmp_path / "donor.txt"
        write_instance(generate_sk(16, "pm1", seed=1), donor)
        args = ["transfer", "--donor-instance", str(donor), "--d", "4", "--p", "2",
                "--hops", "1"]
        for k, n in enumerate((16, 16, 32)):
            path = tmp_path / f"t{k}.txt"
            write_instance(generate_sk(n, "gaussian", seed=10 + k), path)
            args += ["--target-instance", str(path)]
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"trans_j{jobs}.csv"
            result = runner.invoke(main, args + ["--jobs", jobs, "--out", str(out)])
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# command -> (argv given the instance file and the output path, written file)
RERUN_CASES = {
    "solve": lambda inst, out: (
        ["solve", "--instance", inst, "--d", "2", "--p", "2", "--hops", "1", "--local-evals", "30",
         "--allow-padding", "--out", out], out),
    "solve-shots": lambda inst, out: (
        ["solve", "--instance", inst, "--d", "2", "--p", "1", "--mode", "shots", "--shots", "300",
         "--hops", "1", "--local-evals", "30", "--seed", "2", "--out", out], out),
    "landscape-shots": lambda inst, out: (
        ["landscape", "--instance", inst, "--d", "2", "--beta-steps", "3", "--gamma-steps", "3",
         "--mode", "shots", "--shots", "200", "--seed", "4", "--out", out], out),
    "entropy": lambda inst, out: (
        ["entropy", "--n", "64", "--d-list", "2,4", "--samples", "3", "--seed", "2",
         "--out", out], out),
    "baseline": lambda inst, out: (
        ["baseline", "--instance", inst, "--d", "2", "--r-star", "1:0.5", "--out", out], out),
    "shots": lambda inst, out: (
        ["shots", "--instance", inst, "--d", "2", "--params", "0.5,0.2,0.1;0.3,-0.1,0",
         "--shot-counts", "50,100", "--replicas", "3", "--seed", "5", "--out", out], out),
    "transfer": lambda inst, out: (
        ["transfer", "--donor-instance", inst, "--target-instance", inst, "--d", "2",
         "--p", "1", "--donor-params", "0.4,0.05,0.3", "--out", out], out),
    "compile-check": lambda inst, out: (
        ["compile-check", "--fixture-n4", "--out", out], out),
    "generate": lambda inst, out: (
        ["generate", "--n", "8", "--count", "1", "--seed", "3", "--out", out],
        f"{out}/sk_n8_pm1_000.txt"),
}


@pytest.mark.parametrize("case", sorted(RERUN_CASES))
def test_rerun_reproduces_byte_for_byte(runner, fixture_file, tmp_path, case):
    argv, written = RERUN_CASES[case](str(fixture_file), str(tmp_path / "out"))
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    written = Path(written)
    first = written.read_bytes()
    written.unlink()
    result = runner.invoke(main, ["rerun", "--manifest", f"{written}.manifest.json"])
    assert result.exit_code == 0, result.output
    assert written.read_bytes() == first


@pytest.mark.parametrize("case", sorted(RERUN_CASES))
def test_manifest_config_is_the_parsed_flags(runner, fixture_file, tmp_path, case):
    argv, written = RERUN_CASES[case](str(fixture_file), str(tmp_path / "out"))
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    manifest = read_manifest(f"{written}.manifest.json")
    command = main.commands[argv[0]]
    params = command.make_context(argv[0], argv[1:]).params
    assert manifest.command == argv[0]
    assert manifest.seed == params.pop("seed")
    params.pop("out")
    assert manifest.config == json.loads(json.dumps(params))


@pytest.mark.parametrize("case", sorted(RERUN_CASES))
def test_out_under_a_file_exits_3(runner, fixture_file, tmp_path, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv, _ = RERUN_CASES[case](str(fixture_file), str(blocker / "out"))
    result = runner.invoke(main, argv)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ")


@pytest.mark.parametrize("case", ["landscape-shots", "baseline", "shots", "transfer"])
def test_d_below_one_exits_2(runner, fixture_file, tmp_path, case):
    argv, written = RERUN_CASES[case](str(fixture_file), str(tmp_path / "out"))
    argv[argv.index("--d") + 1] = "0"
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "--d must be >= 1" in result.output
    assert not Path(written).exists()


# bad flag value -> (argv given the instance file and the output path, expected message)
BAD_FLAG_CASES = {
    "solve-negative-hops": lambda inst, out: (
        ["solve", "--instance", inst, "--d", "2", "--hops", "-1", "--out", out],
        "--hops must be >= 0"),
    "solve-zero-local-evals": lambda inst, out: (
        ["solve", "--instance", inst, "--d", "2", "--local-evals", "0", "--out", out],
        "--local-evals must be >= 1"),
    "transfer-negative-hops": lambda inst, out: (
        ["transfer", "--donor-instance", inst, "--target-instance", inst, "--d", "2",
         "--hops", "-1", "--out", out], "--hops must be >= 0"),
    "transfer-zero-jobs": lambda inst, out: (
        ["transfer", "--donor-instance", inst, "--target-instance", inst, "--d", "2",
         "--donor-params", "0.4,0.05,0.3", "--jobs", "0", "--out", out], "--jobs must be >= 1"),
    "transfer-negative-jobs": lambda inst, out: (
        ["transfer", "--donor-instance", inst, "--target-instance", inst, "--d", "2",
         "--donor-params", "0.4,0.05,0.3", "--jobs", "-2", "--out", out],
        "--jobs must be >= 1"),
    "landscape-zero-jobs": lambda inst, out: (
        ["landscape", "--instance", inst, "--d", "2", "--beta-steps", "2", "--gamma-steps", "2",
         "--jobs", "0", "--out", out], "--jobs must be >= 1"),
    "landscape-negative-jobs": lambda inst, out: (
        ["landscape", "--instance", inst, "--d", "2", "--beta-steps", "2", "--gamma-steps", "2",
         "--jobs", "-1", "--out", out], "--jobs must be >= 1"),
    "entropy-one-variable": lambda inst, out: (
        ["entropy", "--n", "1", "--d-list", "1", "--out", out], "--n must be >= 2"),
    "entropy-zero-variables": lambda inst, out: (
        ["entropy", "--n", "0", "--out", out], "--n must be >= 2"),
    "compile-check-zero-d": lambda inst, out: (
        ["compile-check", "--d", "0", "--out", out], "--d must be >= 1"),
    "compile-check-d-above-n": lambda inst, out: (
        ["compile-check", "--n", "8", "--d", "9", "--out", out], "power-of-two quotient"),
    "compile-check-d-not-dividing-n": lambda inst, out: (
        ["compile-check", "--n", "8", "--d", "3", "--out", out], "power-of-two quotient"),
    "compile-check-fixture-wrong-n": lambda inst, out: (
        ["compile-check", "--fixture-n4", "--n", "8", "--out", out], "--fixture-n4 needs --n 4"),
    "baseline-r-star-depth-zero": lambda inst, out: (
        ["baseline", "--instance", inst, "--d", "2", "--r-star", "0:0.5", "--out", out],
        "depths must be >= 1"),
    "baseline-r-star-repeated-depth": lambda inst, out: (
        ["baseline", "--instance", inst, "--d", "2", "--r-star", "1:0.5,1:0.9", "--out", out],
        "--r-star lists a depth more than once"),
    "entropy-zero-d": lambda inst, out: (
        ["entropy", "--n", "64", "--d-list", "0,4", "--out", out], "d=0 does not divide N=64"),
    "compile-check-nan-gamma": lambda inst, out: (
        ["compile-check", "--gamma", "nan", "--out", out], "--gamma must be finite"),
    "compile-check-inf-beta": lambda inst, out: (
        ["compile-check", "--beta", "inf", "--out", out], "--beta must be finite"),
    "compile-check-nan-gamma-bias": lambda inst, out: (
        ["compile-check", "--gamma-bias", "-inf", "--out", out], "--gamma-bias must be finite"),
    "landscape-nan-gamma-bias": lambda inst, out: (
        ["landscape", "--instance", inst, "--d", "2", "--beta-steps", "2", "--gamma-steps", "2",
         "--gamma-bias", "nan", "--out", out], "--gamma-bias must be finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAG_CASES))
def test_bad_flag_value_exits_2(runner, fixture_file, tmp_path, case):
    out = tmp_path / "out"
    argv, message = BAD_FLAG_CASES[case](str(fixture_file), str(out))
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert one_error_line(result) and message in result.output
    assert not out.exists()


# a valid invocation of each command with integer flags in cli.FLAG_MINIMA
VALID_ARGV = {
    "generate": lambda inst, out: ["generate", "--n", "8", "--count", "1", "--out", out],
    "solve": lambda inst, out: [
        "solve", "--instance", inst, "--d", "2", "--p", "1", "--hops", "1",
        "--local-evals", "20", "--out", out],
    "landscape": lambda inst, out: [
        "landscape", "--instance", inst, "--d", "2", "--beta-steps", "2", "--gamma-steps", "2",
        "--jobs", "1", "--out", out],
    "entropy": lambda inst, out: [
        "entropy", "--n", "64", "--d-list", "2", "--samples", "2", "--out", out],
    "baseline": lambda inst, out: ["baseline", "--instance", inst, "--d", "2", "--out", out],
    "shots": lambda inst, out: [
        "shots", "--instance", inst, "--d", "2", "--params", "0.5,0.2,0.1",
        "--shot-counts", "50,100", "--replicas", "3", "--out", out],
    "transfer": lambda inst, out: [
        "transfer", "--donor-instance", inst, "--target-instance", inst, "--d", "2", "--p", "1",
        "--donor-params", "0.4,0.05,0.3", "--hops", "1", "--jobs", "1", "--out", out],
    "compile-check": lambda inst, out: ["compile-check", "--n", "4", "--d", "2", "--out", out],
}

# (command, flag, minimum) for every integer flag of every command in cli.FLAG_MINIMA
MINIMUM_CASES = [
    (name, param.opts[0], cli.FLAG_MINIMA[param.name])
    for name, command in sorted(main.commands.items())
    for param in command.params if param.name in cli.FLAG_MINIMA
]


@pytest.mark.parametrize("command, flag, minimum", MINIMUM_CASES,
                         ids=[f"{name}{flag}" for name, flag, _ in MINIMUM_CASES])
def test_flag_below_its_minimum_exits_2(runner, fixture_file, tmp_path, command, flag, minimum):
    out = tmp_path / "out"
    argv = VALID_ARGV[command](str(fixture_file), str(out))
    if flag in argv:
        argv[argv.index(flag) + 1] = str(minimum - 1)
    else:
        argv += [flag, str(minimum - 1)]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert one_error_line(result) and f"{flag} must be >= {minimum}" in result.output
    assert not out.exists()


def one_error_line(result) -> bool:
    lines = result.output.splitlines()
    return isinstance(result.exception, SystemExit) and [
        l for l in lines if l.startswith("Error:")] == lines[-1:]


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:1],
    lambda lines: [l.replace("pm1", "uniform") for l in lines],
    lambda lines: lines[:-1] + [lines[-2]],
], ids=["header-only", "unknown-kind", "repeated-pair"])
def test_malformed_instance_exits_3(runner, fixture_file, tmp_path, edit):
    fixture_file.write_text("\n".join(edit(fixture_file.read_text().splitlines())) + "\n")
    out = tmp_path / "base.csv"
    result = runner.invoke(main, ["baseline", "--instance", str(fixture_file), "--d", "2",
                                  "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert one_error_line(result)
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda data: {k: v for k, v in data.items() if k != "argv"},
    lambda data: {**data, "extra": 1},
    lambda data: [data],
    lambda data: {**data, "argv": ["rerun", "--manifest", data["outputs"][0] + ".manifest.json"]},
    lambda data: {**data, "argv": "solve"},
    lambda data: {**data, "argv": []},
], ids=["missing-key", "unknown-key", "not-an-object", "replays-itself", "argv-a-string",
        "argv-empty"])
def test_malformed_manifest_exits_3(runner, fixture_file, tmp_path, edit):
    out = tmp_path / "base.csv"
    assert runner.invoke(main, ["baseline", "--instance", str(fixture_file), "--d", "2",
                                "--out", str(out)]).exit_code == 0
    manifest = Path(f"{out}.manifest.json")
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    result = runner.invoke(main, ["rerun", "--manifest", str(manifest)])
    assert result.exit_code == 3, result.output
    assert one_error_line(result)


def test_help_lists_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("generate", "solve", "landscape", "entropy", "baseline", "shots",
                "transfer", "compile-check", "rerun"):
        assert cmd in result.output
