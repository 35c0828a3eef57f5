"""Command-line harness behavior."""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import errno
import io
import json
import math
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sols.cli
import sols.steps
from sols import Objective, SolverConfig
from sols.cgsolve import CgOutcome
from sols.cli import build_parser, main
from sols.driver import TRACE_COLUMNS


def read_report(out_dir: Path, problem: str, algo: str) -> dict:
    return json.loads((out_dir / f"{problem}_{algo}_report.json").read_text())


def test_run_quadratic_one_iteration(tmp_path, capsys):
    code = main(["run", "--problem", "quad-convex-2d", "--algo", "exact",
                 "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path, "quad-convex-2d", "exact")
    assert report["all_converged"] and report["all_envelope_checks_passed"]
    assert report["runs"][0]["iterations"] == 1
    out = capsys.readouterr().out
    assert "converged" in out


def test_run_writes_trace_with_declared_columns(tmp_path):
    main(["run", "--problem", "quartic-offset-2d", "--out", str(tmp_path)])
    trace = tmp_path / "quartic-offset-2d_exact_seed0_trace.csv"
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TRACE_COLUMNS
    assert len(rows) > 1


def test_run_rejects_invalid_tolerance(tmp_path, capsys):
    code = main(["run", "--problem", "quad-convex-2d", "--eps-g", "2",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "eps_g" in capsys.readouterr().err


def test_run_rejects_unknown_problem(tmp_path, capsys):
    code = main(["run", "--problem", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown problem" in capsys.readouterr().err


def test_run_inexact_seeds_within_iteration_bound(tmp_path):
    code = main([
        "run", "--problem", "quartic-saddle-50d", "--algo", "inexact",
        "--eps-g", "1e-4", "--eps-H", "1e-2", "--seed", "1,2,3,4,5",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = read_report(tmp_path, "quartic-saddle-50d", "inexact")
    assert len(report["runs"]) == 5
    for run in report["runs"]:
        checks = run["envelope_checks"]
        assert run["iterations"] <= checks["iteration_bound"]
        assert checks["ops_ok"]


def test_run_exact_local_algo(tmp_path):
    code = main(["run", "--problem", "quartic-convex-4d", "--algo", "exact-local",
                 "--eps-g", "1e-2", "--eps-H", "0.5", "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path, "quartic-convex-4d", "exact-local")
    assert report["runs"][0]["status"] == "converged"


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "solver.cfg"
    cfg_file.write_text("eps_g = 1e-5\ntheta = 0.5  # backtracking ratio\neta = 2.0\n")
    code = main(["run", "--problem", "quad-convex-2d", "--config", str(cfg_file),
                 "--eta", "1.0", "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path, "quad-convex-2d", "exact")
    assert report["config"]["eps_g"] == 1e-5
    assert report["config"]["eta"] == 1.0  # flag wins over file


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "solver.cfg"
    cfg_file.write_text("epsilon = 0.1\n")
    code = main(["run", "--problem", "quad-convex-2d", "--config", str(cfg_file),
                 "--out", str(tmp_path)])
    assert code == 2


def test_config_file_skips_comments_and_blank_lines_and_rejects_a_bare_line(tmp_path, capsys):
    cfg_file = tmp_path / "solver.cfg"
    cfg_file.write_text("# tolerances\n\neps_g 1e-5\n")
    code = main(["run", "--problem", "quad-convex-2d", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: invalid configuration: {cfg_file}:3: expected 'key = value', "
        "got 'eps_g 1e-5'\n"
    )


def test_default_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SOLS_OUT_DIR", str(tmp_path / "env-out"))
    code = main(["run", "--problem", "quad-convex-2d"])
    assert code == 0
    assert (tmp_path / "env-out" / "quad-convex-2d_exact_report.json").exists()


def test_envelope_command_reports_ratios(tmp_path, capsys):
    main(["run", "--problem", "quad-convex-2d", "--out", str(tmp_path)])
    capsys.readouterr()
    code = main(["envelope", "--in", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "quad-convex-2d" in out
    assert "ok" in out
    assert "K_iter" in out


def test_envelope_command_reports_ops_of_inexact_runs(tmp_path, capsys):
    main(["run", "--problem", "quad-convex-2d", "--algo", "inexact", "--out", str(tmp_path)])
    run = read_report(tmp_path, "quad-convex-2d", "inexact")["runs"][0]
    checks = run["envelope_checks"]
    capsys.readouterr()
    assert main(["envelope", "--in", str(tmp_path)]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("quad-convex-2d"))
    assert f"{checks['observed_ops']}/{checks['ops_bound']:.3g} ops" in row
    assert row.split()[-1] == "ok"


def test_envelope_missing_directory(tmp_path, capsys):
    code = main(["envelope", "--in", str(tmp_path / "missing")])
    assert code == 2


def test_list_problems(capsys):
    code = main(["list-problems"])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("quad-convex-2d", "rosenbrock-10d", "flat-1d"):
        assert name in out


def test_strict_second_order_flag(tmp_path):
    code = main(["run", "--problem", "quartic-offset-2d", "--strict-second-order",
                 "--out", str(tmp_path)])
    assert code == 0
    report = read_report(tmp_path, "quartic-offset-2d", "exact")
    assert report["strict_second_order"]
    assert report["runs"][0]["final_point_second_order_ok"]


def test_parallel_jobs_produce_same_report(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ["run", "--problem", "quartic-offset-2d", "--algo", "inexact",
            "--seed", "1,2", "--eps-g", "1e-4", "--eps-H", "0.1"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
    a = (serial / "quartic-offset-2d_inexact_report.json").read_bytes()
    b = (parallel / "quartic-offset-2d_inexact_report.json").read_bytes()
    assert a == b


def test_parallel_jobs_pool_bounded_by_seed_count(tmp_path, monkeypatch):
    # A stand-in pool that records its size and maps serially: no process starts.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert main(["run", "--problem", "quad-convex-2d", "--algo", "inexact", "--seed", "0,1",
                 "--jobs", "5000", "--out", str(tmp_path)]) == 0
    assert sizes == [2]


@pytest.mark.parametrize(
    "flags",
    [
        ["--problem", "rosenbrock-2d", "--max-ls-steps", "2"],
        ["--problem", "quad-convex-2d", "--theta", "0.999999"],
    ],
)
def test_run_rejects_ls_budget_below_declared_cap(tmp_path, capsys, flags):
    code = main(["run", *flags, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "backtracking cap" in err


@pytest.mark.parametrize("seed", ["-1", "", "0,-3", ","])
def test_run_rejects_negative_or_empty_seed_list(tmp_path, capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "quad-convex-2d", "--algo", "inexact",
              f"--seed={seed}", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument --seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_report_write_failure_names_the_report(tmp_path, capsys, monkeypatch):
    # A write that fails after the open carries no file name of its own.
    def no_space(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", no_space)
    code = main(["run", "--problem", "quad-convex-2d", "--out", str(tmp_path)])
    assert code == 2
    report = tmp_path / "quad-convex-2d_exact_report.json"
    assert capsys.readouterr().err == (
        f"error: cannot write {report}: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_rejects_repeated_seed(tmp_path, capsys, jobs):
    # Two runs of one seed would write one trace file, listed twice in the report.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "quad-convex-2d", "--algo", "inexact", "--seed", "0,1,0",
              "--jobs", jobs, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument --seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "blocked", ["quad-convex-2d_inexact_seed1_trace.csv", "quad-convex-2d_inexact_report.json"]
)
def test_run_output_that_cannot_be_written_exits_2(tmp_path, capsys, jobs, blocked):
    # A directory where an output file goes: the write fails with an OSError.
    (tmp_path / blocked).mkdir()
    code = main(["run", "--problem", "quad-convex-2d", "--algo", "inexact", "--seed", "0,1,2",
                 "--jobs", jobs, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / blocked}: Is a directory\n"
    )


def test_run_cg_cap_exits_3(tmp_path, capsys, monkeypatch):
    # d = -g puts the residual target at (zeta/2) eps_H ||g||, within float64's
    # reach, and a cap below n = 2 is one the condition-number bound set.
    def capped_cg(apply_A, g, m, M, zeta, n, precondition=None):
        return CgOutcome(d=-g, iters=1, final_residual_norm=1.0, status="cap_reached")

    monkeypatch.setattr(sols.steps, "cg_capped", capped_cg)
    code = main(["run", "--problem", "quad-convex-2d", "--algo", "inexact",
                 "--out", str(tmp_path)])
    assert code == 3
    assert read_report(tmp_path, "quad-convex-2d", "inexact")["runs"][0]["status"] == "cg_cap"
    assert capsys.readouterr().err == (
        "error: seed 0: CG reached its cap (1 iterations) with residual 1.000e+00; "
        "certified spectrum bounds appear to be violated\n"
    )


def test_run_cg_cap_at_n_names_both_causes(tmp_path, capsys):
    # Near the minimizer the carried curvature bound picks the Newton step
    # without a Lanczos call, so CG runs on Hessian-vector products. Its
    # target (zeta = 1e-9) lies above n eps_mach ||g||, and float64 CG does
    # not reach it within the cap of n = 2, which is what binds.
    code = main(["run", "--problem", "rosenbrock-2d", "--algo", "inexact", "--eps-g", "1e-10",
                 "--zeta", "1e-9", "--out", str(tmp_path)])
    assert code == 3
    assert read_report(tmp_path, "rosenbrock-2d", "inexact")["runs"][0]["status"] == "cg_cap"
    assert capsys.readouterr().err == (
        "error: seed 0: CG reached its cap (2 iterations) with residual 2.414e-23; "
        "that cap is n, which ends CG only in exact arithmetic: float64 CG can need "
        "more iterations, or the certified spectrum bounds are violated\n"
    )


@pytest.mark.parametrize(
    "problem, flags, iters, residual, target, floor",
    [
        ("quad-convex-2d", ["--zeta", "1e-200"], 2, "2.465e-32", "7.071e-203", "9.930e-16"),
        ("quad-convex-10d", ["--zeta", "0"], 10, "1.777e-151", "0.000e+00", "2.219e-13"),
        ("rosenbrock-2d", ["--eps-H", "1e-30"], 2, "2.602e-29", "9.537e-32", "1.034e-13"),
    ],
    ids=["quad-convex-2d-zeta-1e-200", "quad-convex-10d-zeta-0", "rosenbrock-2d-eps-H-1e-30"],
)
def test_run_cg_cap_below_float64_reach_names_the_target(
    tmp_path, capsys, problem, flags, iters, residual, target, floor
):
    # The residual target (zeta/2) min(||g||, eps_H ||d||) lies below what
    # float64 CG can reach, so CG runs to its cap; the message says so
    # instead of blaming the declared constants.
    code = main(["run", "--problem", problem, "--algo", "inexact", *flags,
                 "--out", str(tmp_path)])
    assert code == 3
    assert read_report(tmp_path, problem, "inexact")["runs"][0]["status"] == "cg_cap"
    assert capsys.readouterr().err == (
        f"error: seed 0: CG reached its cap ({iters} iterations) with residual {residual}; "
        f"its target {target} is below {floor} (n * eps_mach * ||g||), "
        "which float64 CG cannot reach\n"
    )


def test_run_runtime_error_exits_3_as_solver_failure(tmp_path, capsys, monkeypatch):
    def failing_run(*args, **kwargs):
        raise RuntimeError("stub failure")

    monkeypatch.setattr(sols.cli, "run_exact", failing_run)
    code = main(["run", "--problem", "quad-convex-2d", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == "error: solver failure: stub failure\n"
    assert not list(tmp_path.iterdir())


def test_run_indefinite_system_exits_3(tmp_path, capsys, monkeypatch):
    def zero_curvature_cg(apply_A, g, m, M, zeta, n, precondition=None):
        return CgOutcome(d=np.zeros_like(g), iters=1, final_residual_norm=1.0,
                         status="nonpositive_curvature", p=-g, p_curvature=0.0)

    monkeypatch.setattr(sols.steps, "cg_capped", zero_curvature_cg)
    code = main(["run", "--problem", "quad-convex-2d", "--algo", "inexact",
                 "--out", str(tmp_path)])
    assert code == 3
    run = read_report(tmp_path, "quad-convex-2d", "inexact")["runs"][0]
    assert run["status"] == "indefinite"
    assert "error: seed 0: indefinite-system" in capsys.readouterr().err


def test_envelope_marks_failed_run(tmp_path, capsys):
    # The default exact-local run on rosenbrock-10d ends in a line-search
    # stall after certifying; its envelope checks pass, yet the run failed.
    code = main(["run", "--problem", "rosenbrock-10d", "--algo", "exact-local",
                 "--out", str(tmp_path)])
    assert code == 3
    run = read_report(tmp_path, "rosenbrock-10d", "exact-local")["runs"][0]
    assert run["status"] == "ls_stall"
    assert all(v for k, v in run["envelope_checks"].items() if k.endswith("_ok"))
    capsys.readouterr()
    assert main(["envelope", "--in", str(tmp_path)]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("rosenbrock-10d"))
    assert row.split()[3] == "ls_stall"
    assert row.split()[-1] == "FAILED"


def test_run_without_a_certificate_does_not_pass_its_envelope_checks(tmp_path, capsys):
    code = main(["run", "--problem", "rosenbrock-2d", "--max-iters", "1",
                 "--out", str(tmp_path)])
    assert code == 1
    report = read_report(tmp_path, "rosenbrock-2d", "exact")
    run = report["runs"][0]
    assert run["status"] == "max_iters" and run["certificate"] is None
    assert run["envelope_checks"] == {}
    assert report["all_envelope_checks_passed"] is False
    capsys.readouterr()
    assert main(["envelope", "--in", str(tmp_path)]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("rosenbrock-2d"))
    assert row.split()[-1] == "FAILED"


def test_envelope_of_runs_without_an_envelope_prints_no_scaling_table(tmp_path, capsys):
    # A run of an objective without declared constants has no envelope.
    main(["run", "--problem", "quad-convex-2d", "--seed", "0,1", "--out", str(tmp_path)])
    report = read_report(tmp_path, "quad-convex-2d", "exact")
    for run in report["runs"]:
        run["envelope"], run["envelope_checks"] = None, {}
    (tmp_path / "quad-convex-2d_exact_report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["envelope", "--in", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("quad-convex-2d")]
    assert [row[2] for row in rows] == ["0", "1"]
    assert all(row[3:] == ["converged", "-", "-", "-", "-", "-"] for row in rows)
    assert "K_iter" not in out


def test_run_flags_mirror_config_fields():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    run = sub.choices["run"]
    other = {"--help", "--problem", "--algo", "--seed", "--strict-second-order",
             "--config", "--out", "--jobs"}
    flags = [s for a in run._actions for s in a.option_strings if s.startswith("--")]
    config_fields = [f for f in fields(SolverConfig) if f.name != "rng_seed"]
    assert [s for s in flags if s not in other] == [
        "--" + f.name.replace("_", "-") for f in config_fields
    ]
    for f in config_fields:
        flag = "--" + f.name.replace("_", "-")
        args = parser.parse_args(["run", "--problem", "p", flag, "3"])
        value = getattr(args, f.name)
        assert value == 3
        assert type(value) is (int if f.type == "int" else float)


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_reused_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    defaults = {f.name: getattr(SolverConfig(), f.name) for f in fields(SolverConfig)}
    first = tmp_path / "first"
    assert main(["run", "--problem", "quad-convex-2d", "--eps-g", "1e-3", "--seed", "3,4",
                 "--out", str(first)]) == 0
    report = read_report(first, "quad-convex-2d", "exact")
    assert report["config"] == {**defaults, "eps_g": 1e-3}
    assert [r["seed"] for r in report["runs"]] == [3, 4]

    second = tmp_path / "second"
    assert main(["run", "--problem", "quad-convex-2d", "--out", str(second)]) == 0
    report = read_report(second, "quad-convex-2d", "exact")
    assert report["config"] == defaults
    assert [r["seed"] for r in report["runs"]] == [0]

    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "quad-convex-2d", "--eps-g", "1e-3", "--seed", "a,b"])
    assert exc.value.code == 2
    third = tmp_path / "third"
    assert main(["run", "--problem", "quad-convex-2d", "--out", str(third)]) == 0
    assert read_report(third, "quad-convex-2d", "exact") == read_report(
        second, "quad-convex-2d", "exact"
    )
    capsys.readouterr()


def test_config_file_integer_keys(tmp_path, capsys):
    cfg_file = tmp_path / "solver.cfg"
    cfg_file.write_text("max_iters = 500\n")
    out = tmp_path / "out"
    assert main(["run", "--problem", "quad-convex-2d", "--config", str(cfg_file),
                 "--out", str(out)]) == 0
    max_iters = read_report(out, "quad-convex-2d", "exact")["config"]["max_iters"]
    assert max_iters == 500 and type(max_iters) is int
    cfg_file.write_text("max_iters = 1.5\n")
    code = main(["run", "--problem", "quad-convex-2d", "--config", str(cfg_file),
                 "--out", str(out)])
    assert code == 2
    assert "error: invalid configuration" in capsys.readouterr().err


def test_config_file_rng_seed_rejected(tmp_path, capsys):
    # --seed sets the seed of each run; a config-file seed would be reported
    # in the config but never run.
    cfg_file = tmp_path / "solver.cfg"
    cfg_file.write_text("rng_seed = 4\n")
    out = tmp_path / "out"
    code = main(["run", "--problem", "quad-convex-2d", "--config", str(cfg_file),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rng_seed" in err and "--seed" in err
    assert not out.exists()


def test_run_nonfinite_product_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Objective, "hessian_vector", lambda self, x, v: np.full_like(v, np.nan))
    code = main(["run", "--problem", "quartic-saddle-2d", "--algo", "inexact",
                 "--out", str(tmp_path)])
    assert code == 3
    run = read_report(tmp_path, "quartic-saddle-2d", "inexact")["runs"][0]
    assert run["status"] == "nonfinite"
    assert "error: seed 0: non-finite Hessian-vector product" in capsys.readouterr().err
    assert main(["envelope", "--in", str(tmp_path)]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("quartic-saddle-2d"))
    assert row.split()[3] == "nonfinite" and row.split()[-1] == "FAILED"


@pytest.mark.parametrize(
    "broken",
    [
        "{",
        '{"problem": "quad-convex-2d", "algo": "exact"}',
        "[]",
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
        # The written report with one field changed: (path to the field, new value).
        pytest.param((("runs", 0, "status"), 3), id="status-int"),
        pytest.param((("problem",), None), id="problem-null"),
        pytest.param((("algo",), ["x"]), id="algo-list"),
        # sols run writes no report without a run.
        pytest.param((("runs",), []), id="runs-empty"),
        # Integers too large for a float.
        pytest.param((("runs", 0, "envelope_checks", "iteration_bound"), 10**400),
                     id="iteration_bound-huge-int"),
        pytest.param((("config", "eps_g"), 10**400), id="eps_g-huge-int"),
    ],
)
def test_envelope_bad_report_exits_2(tmp_path, capsys, broken):
    main(["run", "--problem", "quad-convex-2d", "--out", str(tmp_path)])
    if isinstance(broken, str):
        text = broken
    else:
        (*parents, key), value = broken
        report = read_report(tmp_path, "quad-convex-2d", "exact")
        field = report
        for parent in parents:
            field = field[parent]
        field[key] = value
        text = json.dumps(report)
    (tmp_path / "broken_report.json").write_text(text)
    capsys.readouterr()
    code = main(["envelope", "--in", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "broken_report.json" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--eta", "inf"],
        ["--U-H", "inf", "--algo", "inexact"],
        # Tolerances whose factor eps**-3 overflows, or whose eps_H**2 is 0.
        ["--eps-H", "1e-300"],
        ["--eps-H", "1e-120", "--max-ls-steps", "1000"],
        ["--eps-H", "1e-300", "--max-ls-steps", "100000"],
        ["--eps-g", "1e-120"],
    ],
)
def test_run_rejects_nonfinite_config_values(tmp_path, capsys, flags):
    code = main(["run", "--problem", "quad-convex-2d", *flags, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid configuration:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags, algo",
    [
        # Every inner-iteration term overflows at this U_H and binds at n.
        pytest.param(["--U-H", "1e308"], "inexact", id="huge-U_H-inexact"),
        pytest.param(["--U-H", "1e308"], "exact", id="huge-U_H-exact"),
        # delta**2 underflows to zero inside log(n / delta**2).
        pytest.param(["--delta", "1e-200"], "inexact", id="tiny-delta-inexact"),
    ],
)
def test_run_with_extreme_finite_config_values(tmp_path, capsys, flags, algo):
    code = main(["run", "--problem", "quad-convex-2d", *flags, "--algo", algo,
                 "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    report = read_report(tmp_path, "quad-convex-2d", algo)
    assert report["all_converged"] and report["all_envelope_checks_passed"]


@pytest.mark.parametrize(
    "problem, flags, code",
    [
        # With L_H = 0, (4 / (2 zeta))**3 overflows: that term is far above the other.
        ("quad-convex-2d", ["--zeta", "1e-200", "--algo", "exact"], 0),
        # The envelope is finite; CG then stalls at its tiny tolerance, a classified failure.
        ("quad-convex-2d", ["--zeta", "1e-200", "--algo", "inexact"], 3),
        # s = L_H + eta is so small that s**3 underflows to 0.
        ("flat-1d", ["--eta", "1e-183"], 0),
        ("quad-convex-2d", ["--eta", "1e-120"], 0),
        # theta**3 underflows, so the decrease constant c is 0: no finite envelope.
        ("quad-convex-2d", ["--theta", "1e-120"], 2),
        ("quad-convex-2d", ["--theta", "5e-324"], 2),
        ("rosenbrock-2d", ["--theta", "1e-120"], 2),
    ],
)
def test_run_decrease_constants_at_extreme_values(tmp_path, capsys, problem, flags, code):
    assert main(["run", "--problem", problem, *flags, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: invalid configuration: the decrease constant c ")
        assert not list(tmp_path.iterdir())
    elif code == 3:
        assert read_report(tmp_path, problem, "inexact")["runs"][0]["status"] == "cg_cap"
    else:
        assert err == ""


@pytest.mark.parametrize("sub", ["", "x"])
def test_run_rejects_unusable_out_dir(tmp_path, capsys, sub):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["run", "--problem", "quad-convex-2d", "--out", str(blocker / sub)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot create output directory")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("jobs", ["0", "-3", "abc"])
def test_run_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "quad-convex-2d", f"--jobs={jobs}", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument --jobs" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# Each drawn key takes a value from its valid range about nine times in
# ten, so that most draws pass validation and run a solver, and otherwise
# an extreme value validate() sees: zero, subnormals, huge, infinite and nan
# floats, and integers around the lower bound. ``max_iters`` is always set,
# and kept small, so that a run that cannot converge still ends quickly.
def mostly(valid, extreme):
    return st.integers(0, 9).flatmap(lambda i: extreme if i == 9 else valid)


FLAG_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-310, 1e-200, 1e-120, 0.5, 1.0, 1e308, math.inf, -math.inf, math.nan]
) | st.floats()
VALID_FLOATS = {
    "eps_g": st.floats(1e-12, 1.0, exclude_max=True),
    "eps_H": st.floats(1e-6, 1.0, exclude_max=True),
    "theta": st.floats(0.1, 0.9),
    "eta": st.floats(1e-3, 1e3),
    "zeta": st.floats(0.0, 1.0, exclude_max=True),
    "delta": st.floats(0.0, 1.0, exclude_max=True),
    "U_H": st.floats(1e-3, 1e6),
}
FLAG_VALUES = st.fixed_dictionaries(
    {},
    optional={
        **{name: mostly(valid, FLAG_FLOATS) for name, valid in VALID_FLOATS.items()},
        "max_ls_steps": mostly(
            st.integers(100, 5000), st.integers(-1, 2) | st.sampled_from([200, 5000])
        ),
    },
)


PROBLEM_NAMES = (
    "quad-convex-2d", "quartic-saddle-2d", "flat-1d", "rosenbrock-2d",
    "quad-convex-10d", "rosenbrock-10d", "quartic-saddle-50d",
)
# Derandomized sampled_from draws bunch up (one problem got 4 of 200); a
# wide integer taken modulo the count spreads them more evenly.
FUZZ_PROBLEMS = st.integers(0, 2**32 - 1).map(
    lambda i: PROBLEM_NAMES[i % len(PROBLEM_NAMES)]
)
FUZZ_ALGOS = st.sampled_from(["exact", "exact-local", "inexact"])
FUZZ_MAX_ITERS = mostly(st.integers(1, 100), st.sampled_from([-1, 0, 1, 2, 100]))


def assert_run_exit_classified(argv: list[str]) -> None:
    """``sols run`` exits 0-3, or argparse rejects a flag with 2: never a traceback."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(["run", *argv, "--out", out])
            except SystemExit as exc:  # argparse rejecting a flag
                assert exc.code == 2
                return
    assert code in (0, 1, 2, 3)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(problem=FUZZ_PROBLEMS, algo=FUZZ_ALGOS, values=FLAG_VALUES, max_iters=FUZZ_MAX_ITERS)
@example(problem="quad-convex-2d", algo="exact", values={"zeta": 1e-200}, max_iters=100)
@example(problem="quad-convex-2d", algo="inexact", values={"zeta": 1e-200}, max_iters=100)
@example(problem="flat-1d", algo="exact", values={"eta": 1e-183}, max_iters=100)
@example(problem="quad-convex-2d", algo="exact", values={"eta": 1e-120}, max_iters=100)
@example(problem="quad-convex-2d", algo="exact", values={"theta": 1e-120}, max_iters=100)
@example(problem="quad-convex-2d", algo="exact", values={"theta": 5e-324}, max_iters=100)
@example(problem="rosenbrock-2d", algo="exact", values={"theta": 1e-120}, max_iters=100)
# The regularized-Newton backtracking cap's log argument underflows to 0.
@example(problem="quad-convex-2d", algo="exact", values={"eps_H": 2e-42, "eta": 4e240}, max_iters=100)
# Runs that pass validation on each higher-dimensional problem.
@example(problem="quad-convex-10d", algo="exact-local", values={"eta": 1e-120}, max_iters=100)
@example(problem="rosenbrock-10d", algo="inexact", values={"U_H": 1e300}, max_iters=100)
@example(problem="quartic-saddle-50d", algo="inexact", values={"delta": 5e-324}, max_iters=100)
def test_run_flags_never_crash(problem, algo, values, max_iters):
    flags = [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]
    assert_run_exit_classified(
        ["--problem", problem, "--algo", algo, f"--max-iters={max_iters}", *flags]
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(problem=FUZZ_PROBLEMS, algo=FUZZ_ALGOS, values=FLAG_VALUES, max_iters=FUZZ_MAX_ITERS)
def test_run_config_file_values_never_crash(tmp_path_factory, problem, algo, values, max_iters):
    cfg_file = tmp_path_factory.mktemp("cfg") / "solver.cfg"
    cfg_file.write_text(
        "".join(f"{name} = {value!r}\n" for name, value in values.items())
        + f"max_iters = {max_iters}\n"
    )
    assert_run_exit_classified(["--problem", problem, "--algo", algo, "--config", str(cfg_file)])
