"""The comparison tools every refactor's same-behaviour claim rests on."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from sols import get_problem, run_inexact

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def tool(monkeypatch):
    """A function importing a module of ``tools/`` by name. Importing
    ``pair_timing`` pins the BLAS variables in ``os.environ``; they are
    blank while the test runs and put back as they were when it ends."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    for var in BLAS_THREADS:
        monkeypatch.setenv(var, "")
    loaded = []

    def load(name: str):
        loaded.append(name)
        return importlib.import_module(name)

    yield load
    for name in loaded:
        sys.modules.pop(name, None)


def test_importing_pair_timing_pins_blas_threads_in_its_own_process(tool):
    tool("pair_timing")
    assert all(os.environ[var] == "1" for var in BLAS_THREADS)


def test_sols_imports_itself_only_relatively(tool, tmp_path):
    # Else two trees could not share the process pair_timing times them in.
    absolute_self_imports = tool("pair_timing").absolute_self_imports
    assert absolute_self_imports(ROOT / "src" / "sols") == []
    (tmp_path / "a.py").write_text("from . import b\nimport sols.b\n")
    (tmp_path / "b.py").write_text("import numpy\nfrom sols import a\n")
    assert absolute_self_imports(tmp_path) == [f"{tmp_path / 'a.py'}:2", f"{tmp_path / 'b.py'}:2"]


@pytest.mark.parametrize(
    "n, ranks",
    [
        (5, None),  # 2 / 2**5 > 5%: even the extremes miss too often
        (6, (1, 6)),  # 2 / 2**6 = 3.1%
        (10, (2, 9)),  # 2 * (1 + 10) / 2**10 = 2.1%; with C(10, 2) it would be 10.9%
        (17, (5, 13)),  # 2 * (1 + 17 + 136 + 680 + 2380) / 2**17 = 4.9%
    ],
)
def test_median_interval_takes_the_binomial_ranks(tool, n, ranks):
    values = [float(v) for v in range(n, 0, -1)]  # the value at rank r is r
    assert tool("pair_timing").median_interval(values) == (ranks and tuple(map(float, ranks)))


@pytest.fixture
def pair_timing(tool, monkeypatch):
    """``pair_timing.main``, run in this process. The ``sols`` trees it loads,
    and what it imports from ``bench/``, are dropped when the test ends."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    yield tool("pair_timing").main
    for name in list(sys.modules):
        if name.split(".")[0] in ("sols_base", "sols_new", "workloads", "checkout"):
            del sys.modules[name]


def sols_copy(tmp_path: Path) -> Path:
    """A ``src`` directory in ``tmp_path`` holding a copy of this checkout's ``sols``."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "sols", src / "sols", ignore=shutil.ignore_patterns("__pycache__"))
    return src


def test_load_tree_drops_a_tree_loaded_before_under_the_same_name(tool, tmp_path):
    load_tree = tool("pair_timing").load_tree
    first, second = sols_copy(tmp_path / "first"), sols_copy(tmp_path / "second")
    (second / "sols" / "extra.py").write_text("from . import driver\n")
    try:
        load_tree(first, "sols_x")
        package = load_tree(second, "sols_x")
        loaded = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "sols_x"}
        assert {"sols_x", "sols_x.cli", "sols_x.extra"} <= loaded.keys()
        assert package is loaded["sols_x"] and package.cli is loaded["sols_x.cli"]
        assert all(Path(m.__file__).is_relative_to(second) for m in loaded.values())
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] == "sols_x"]:
            del sys.modules[key]


def test_pair_timing_prints_what_run_inexact_did_on_one_tree(pair_timing, monkeypatch, capsys):
    assert pair_timing(["q50", "0", "1"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    cfg, problem = workloads.MC_CFG, get_problem("quartic-saddle-50d")
    expected = []
    for seed in (0, 1):
        obj = problem.make_objective()
        report, _records = run_inexact(obj, problem.start_point(), cfg.with_updates(rng_seed=seed))
        cert, c = report.certificate, report.counters
        failure = workloads.certificate_failure(
            obj.dense_hessian, cert.point, cert.g_norm_min, cfg.eps_g, cfg.eps_H)
        expected.append({
            "seed": seed, "status": report.status, "n_f": c.n_f, "n_grad": c.n_grad,
            "n_hv": c.n_hv, "iterations": report.iterations,
            "envelope_ok": report.all_envelope_checks_pass(), "oracle_ok": failure is None,
            "x_final_sha256": hashlib.sha256(report.x_final.tobytes()).hexdigest(),
        })
    assert rows[:2] == expected
    assert all(r["status"] == "converged" and r["oracle_ok"] for r in expected)
    means = {f"mean_{k}": (expected[0][k] + expected[1][k]) / 2
             for k in ("n_f", "n_grad", "n_hv", "iterations")}
    assert rows[2:] == [{"seeds": 2, **means}]


def test_pair_timing_times_a_tree_against_its_copy(pair_timing, tmp_path, capsys):
    assert pair_timing(["q50", "0", "5", "--base", str(sols_copy(tmp_path))]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert "95% interval" in summary and summary.endswith("x_final bytes differ on 0/6 seeds")


def test_pair_timing_stops_when_the_trees_disagree_on_counts(pair_timing, tmp_path):
    base = sols_copy(tmp_path)
    steps = base / "sols" / "steps.py"
    default = "max_iters: int = 10_000"
    assert default in steps.read_text()
    steps.write_text(steps.read_text().replace(default, "max_iters: int = 5"))
    with pytest.raises(SystemExit, match="seed 0: the trees disagree on status, counts or iterations"):
        pair_timing(["q50", "0", "5", "--base", str(base)])


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


REPORT = "runs/p_exact/p_exact_report.json"
TRACE = "runs/p_exact/p_exact_seed0_trace.csv"
HEADER = "k,phase,step_kind,j,lanczos_iters,cg_iters,cg_fallback,n_f,n_grad,n_hv,f\n"
ENVELOPE = "logs/envelope_p_exact.stdout"
ROW = "p        exact    0     converged  1/7.2e+07       1.39e-08  2/1.03e+09 f-evals  ok"


def outputs(exit_code=0, f_final=1.0, trace_rows=((0, 1.5), (0, 0.25)), row=ROW) -> dict[str, str]:
    """A spec_checksums output dir with one run: its exit code, report and
    trace, and the stdout of ``sols envelope`` on it."""
    run = {"seed": 0, "status": "converged", "iterations": len(trace_rows), "f_final": f_final,
           "counters": {"n_f": 3, "n_grad": 3, "n_hv": 2}, "certificate": None}
    rows = "".join(f"{k},main,newton,{j},0,0,0,3,3,2,{f}\n" for k, (j, f) in enumerate(trace_rows))
    return {
        "logs/run_p_exact.exit": f"{exit_code}\n",
        ENVELOPE: f"problem  algo  ...\n-------  ----  ...\n{row}\n",
        REPORT: json.dumps({"runs": [run]}),
        TRACE: HEADER + rows,
    }


@pytest.mark.parametrize(
    "change, moved",
    [
        ({}, {}),
        ({"f_final": 1.5, "trace_rows": ((0, 1.5), (0, 0.125))},
         {REPORT: "float bytes only", TRACE: "float bytes only"}),
        ({"trace_rows": ((0, 1.5), (1, 0.25))}, {TRACE: "row 2 j 0 -> 1"}),
        ({"trace_rows": ((0, 1.5), (0, 0.25), (0, 0.0))},
         {REPORT: "seed 0 iterations 2 -> 3", TRACE: "rows 2 -> 3"}),
        ({"exit_code": 1, "f_final": 1.5},
         {"logs/run_p_exact.exit": "line 1: 0 -> 1", REPORT: "exit code 0 -> 1"}),
        ({"row": ROW.replace("1/7.2e+07       1.39e-08", "1000000000000/7.2e+07  1.39e+04")},
         {ENVELOPE: "line 3: ...nverged  1/7.2e+07       1.39e-08  2/1.03e+09 f-evals  ok "
                    "-> ...nverged  1000000000000/7.2e+07  1.39e+04  2/1.03e+09 f..."}),
    ],
    ids=["nothing", "float-only", "j", "extra-row", "exit-code", "envelope-stdout"],
)
def test_spec_checksums_names_what_moved(tool, tmp_path, change, moved):
    spec_checksums = tool("spec_checksums")
    old = write_tree(tmp_path / "old", outputs())
    new = write_tree(tmp_path / "new", outputs(**change))
    lines = spec_checksums.compare(old, new, spec_checksums.digests(new))
    assert lines[0] == f"# against {old}: {len(moved)} of 4 files moved"
    assert lines[1:] == [
        f"# moved  {rel}" + (f"  ({note})" if note else "") for rel, note in sorted(moved.items())
    ]
