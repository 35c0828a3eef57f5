"""Structural pin of the CLI traces on a fixed spec set.

Each accepted step keeps its direction kind, its backtracking count ``j``
and the evaluation counters at that step. Kernel rewrites that only move
floating-point rounding (a preallocated Lanczos basis, a tridiagonal Ritz
solve, a banded Hessian-vector product, per-point Hessian coefficients)
must leave these rows unchanged.
Rows read ``step_kind j n_f n_grad n_hv``, led by ``phase`` on exact-local
traces, whose steps switch from the main loop to the local Newton phase.
"""

from __future__ import annotations

import csv

import pytest

from sols.cli import main

SPECS = {
    "q50": ["--problem", "quartic-saddle-50d", "--algo", "inexact",
            "--eps-g", "1e-4", "--eps-H", "1e-2", "--seed", "7,8"],
    "r10": ["--problem", "rosenbrock-10d", "--algo", "exact", "--seed", "0"],
    # The banded product, Lanczos and capped CG together.
    "r10-inexact": ["--problem", "rosenbrock-10d", "--algo", "inexact", "--seed", "0"],
    # A Lanczos budget of 32 < n = 50: its Newton steps run CG on oracle products.
    "q50-budget": ["--problem", "quartic-saddle-50d", "--algo", "inexact",
                   "--eps-H", "0.5", "--delta", "0.1"],
    # Four main-loop Newton steps to the certificate, then one local step.
    "c4-local": ["--problem", "quartic-convex-4d", "--algo", "exact-local",
                 "--eps-g", "1e-2", "--eps-H", "0.5", "--seed", "0"],
}

COLUMNS = ("step_kind", "j", "n_f", "n_grad", "n_hv")

PINNED = {
    "quartic-saddle-50d_inexact_seed7_trace.csv": """
negative_curvature 0 2 2 1
scaled_neg_curv_gradient 0 3 3 2
scaled_neg_curv_gradient 0 4 4 3
scaled_neg_curv_gradient 0 5 5 4
scaled_neg_curv_gradient 0 6 6 5
scaled_neg_curv_gradient 0 7 7 6
scaled_neg_curv_gradient 0 8 8 7
scaled_neg_curv_gradient 0 9 9 8
scaled_neg_curv_gradient 0 10 10 9
scaled_neg_curv_gradient 0 11 11 10
scaled_neg_curv_gradient 0 12 12 11
scaled_neg_curv_gradient 0 13 13 12
scaled_neg_curv_gradient 0 14 14 13
scaled_neg_curv_gradient 0 15 15 14
scaled_neg_curv_gradient 0 16 16 15
scaled_neg_curv_gradient 0 17 17 16
scaled_neg_curv_gradient 0 18 18 17
normalized_gradient 0 19 19 18
negative_curvature 0 20 20 22
negative_curvature 0 21 21 27
negative_curvature 0 22 22 32
negative_curvature 0 23 23 37
negative_curvature 0 24 24 42
negative_curvature 0 25 25 48
negative_curvature 0 26 26 53
negative_curvature 0 27 27 61
inexact_newton 2 30 28 112
inexact_newton 0 31 29 163
inexact_newton 0 32 30 214
inexact_newton 0 33 31 265
""",
    "quartic-saddle-50d_inexact_seed8_trace.csv": """
negative_curvature 0 2 2 1
scaled_neg_curv_gradient 0 3 3 2
scaled_neg_curv_gradient 0 4 4 3
scaled_neg_curv_gradient 0 5 5 4
scaled_neg_curv_gradient 0 6 6 5
scaled_neg_curv_gradient 0 7 7 6
scaled_neg_curv_gradient 0 8 8 7
scaled_neg_curv_gradient 0 9 9 8
scaled_neg_curv_gradient 0 10 10 9
scaled_neg_curv_gradient 0 11 11 10
scaled_neg_curv_gradient 0 12 12 11
scaled_neg_curv_gradient 0 13 13 12
scaled_neg_curv_gradient 0 14 14 13
scaled_neg_curv_gradient 0 15 15 14
scaled_neg_curv_gradient 0 16 16 15
scaled_neg_curv_gradient 0 17 17 16
normalized_gradient 0 18 18 17
negative_curvature 0 19 19 21
negative_curvature 0 20 20 26
negative_curvature 0 21 21 30
negative_curvature 0 22 22 35
negative_curvature 0 23 23 40
negative_curvature 0 24 24 45
negative_curvature 0 25 25 52
negative_curvature 0 26 26 57
negative_curvature 0 27 27 63
negative_curvature 0 28 28 74
negative_curvature 0 29 29 86
inexact_newton 4 34 30 137
inexact_newton 1 36 31 188
inexact_newton 0 37 32 239
inexact_newton 0 38 33 290
inexact_newton 0 39 34 292
inexact_newton 0 40 35 294
""",
    "quartic-saddle-50d_inexact_seed0_trace.csv": """
negative_curvature 0 2 2 1
scaled_neg_curv_gradient 0 3 3 2
scaled_neg_curv_gradient 0 4 4 3
normalized_gradient 0 5 5 4
normalized_gradient 0 6 6 5
normalized_gradient 0 7 7 6
normalized_gradient 0 8 8 7
normalized_gradient 0 9 9 8
negative_curvature 0 10 10 12
negative_curvature 0 11 11 16
negative_curvature 0 12 12 22
inexact_regularized_newton 0 13 13 58
inexact_newton 0 14 14 93
inexact_newton 0 15 15 127
""",
    "quartic-convex-4d_exact-local_seed0_trace.csv": """
main newton 0 2 2 1
main newton 0 3 3 2
main newton 0 4 4 3
main newton 0 5 5 4
local newton 0 6 6 4
""",
    "rosenbrock-10d_exact_seed0_trace.csv": """
newton 0 2 2 1
newton 0 3 3 2
newton 0 4 4 3
newton 0 5 5 4
negative_curvature 3 9 6 5
newton 0 10 7 6
newton 0 11 8 7
newton 1 13 9 8
newton 0 14 10 9
newton 1 16 11 10
newton 0 17 12 11
newton 0 18 13 12
newton 0 19 14 13
newton 0 20 15 14
newton 0 21 16 15
newton 0 22 17 16
newton 0 23 18 17
newton 1 25 19 18
newton 0 26 20 19
newton 0 27 21 20
newton 0 28 22 21
newton 0 29 23 22
newton 0 30 24 23
newton 0 31 25 24
newton 0 32 26 25
""",
    "rosenbrock-10d_inexact_seed0_trace.csv": """
inexact_newton 0 2 2 11
inexact_newton 0 3 3 22
inexact_newton 0 4 4 33
inexact_newton 0 5 5 44
negative_curvature 3 9 6 50
inexact_newton 0 10 7 61
inexact_newton 0 11 8 72
inexact_newton 1 13 9 83
inexact_newton 0 14 10 94
inexact_newton 1 16 11 105
inexact_newton 0 17 12 116
inexact_newton 0 18 13 127
inexact_newton 0 19 14 138
inexact_newton 1 21 15 149
inexact_newton 0 22 16 160
inexact_newton 0 23 17 171
inexact_newton 0 24 18 182
inexact_newton 0 25 19 193
inexact_newton 0 26 20 204
inexact_newton 0 27 21 215
inexact_newton 0 28 22 226
inexact_newton 0 29 23 237
inexact_newton 0 30 24 248
inexact_newton 0 31 25 259
inexact_newton 0 32 26 270
""",
}


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_cli_trace_rows_match_pin(spec, tmp_path):
    assert main(["run", *SPECS[spec], "--out", str(tmp_path)]) == 0
    traces = sorted(p.name for p in tmp_path.glob("*_trace.csv"))
    assert traces and set(traces) <= set(PINNED)
    for name in traces:
        cols = ("phase", *COLUMNS) if "_exact-local_" in name else COLUMNS
        with open(tmp_path / name, newline="") as fh:
            rows = [" ".join(row[c] for c in cols) for row in csv.DictReader(fh)]
        assert rows == PINNED[name].strip().splitlines(), name
