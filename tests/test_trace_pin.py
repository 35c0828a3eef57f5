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
negative_curvature 0 20 20 69
negative_curvature 0 21 21 120
negative_curvature 0 22 22 171
negative_curvature 0 23 23 222
negative_curvature 0 24 24 273
negative_curvature 0 25 25 324
negative_curvature 0 26 26 375
negative_curvature 0 27 27 426
negative_curvature 0 28 28 477
negative_curvature 0 29 29 528
negative_curvature 0 30 30 579
negative_curvature 0 31 31 630
negative_curvature 0 32 32 681
inexact_newton 4 37 33 732
inexact_newton 1 39 34 783
inexact_newton 0 40 35 834
inexact_newton 0 41 36 885
inexact_newton 0 42 37 936
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
negative_curvature 0 19 19 68
negative_curvature 0 20 20 119
negative_curvature 0 21 21 170
negative_curvature 0 22 22 221
negative_curvature 0 23 23 272
negative_curvature 0 24 24 323
negative_curvature 0 25 25 374
negative_curvature 0 26 26 425
negative_curvature 0 27 27 476
negative_curvature 0 28 28 527
negative_curvature 0 29 29 578
negative_curvature 0 30 30 629
negative_curvature 0 31 31 680
negative_curvature 0 32 32 731
negative_curvature 0 33 33 782
negative_curvature 0 34 34 833
negative_curvature 0 35 35 884
negative_curvature 0 36 36 935
negative_curvature 0 37 37 986
negative_curvature 0 38 38 1037
negative_curvature 0 39 39 1088
negative_curvature 0 40 40 1139
inexact_regularized_newton 5 46 41 1190
inexact_newton 1 48 42 1241
inexact_newton 0 49 43 1292
inexact_newton 0 50 44 1343
inexact_newton 0 51 45 1394
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
negative_curvature 0 10 10 41
negative_curvature 0 11 11 74
negative_curvature 0 12 12 107
negative_curvature 0 13 13 140
inexact_newton 0 14 14 175
inexact_newton 0 15 15 209
inexact_newton 0 16 16 243
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
negative_curvature 3 9 6 55
inexact_newton 0 10 7 66
inexact_newton 0 11 8 77
inexact_newton 1 13 9 88
inexact_newton 0 14 10 99
inexact_newton 1 16 11 110
inexact_newton 0 17 12 121
inexact_newton 0 18 13 132
inexact_newton 0 19 14 143
inexact_newton 0 20 15 154
inexact_newton 0 21 16 165
inexact_newton 0 22 17 176
inexact_newton 0 23 18 187
inexact_newton 1 25 19 198
inexact_newton 0 26 20 209
inexact_newton 0 27 21 220
inexact_newton 0 28 22 231
inexact_newton 0 29 23 242
inexact_newton 0 30 24 253
inexact_newton 0 31 25 264
inexact_newton 0 32 26 275
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
