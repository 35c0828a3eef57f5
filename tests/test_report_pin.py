"""Structural pin of the CLI run reports.

Each report's sorted key paths and every non-float value are pinned
exactly; floats are pinned to within 1e-12 relative, so a refactor of
how the report is assembled cannot add, drop, rename or retype a field.
Paths join dict keys and list indices with "/".
"""

from __future__ import annotations

import json

import pytest

from sols.cli import main

SPECS = {
    "rosenbrock-10d_exact_report.json": ["--problem", "rosenbrock-10d", "--algo", "exact"],
    "quartic-saddle-2d_inexact_report.json": ["--problem", "quartic-saddle-2d", "--algo", "inexact"],
}

PINNED = {
    "rosenbrock-10d_exact_report.json": {
        "algo": "exact",
        "all_converged": True,
        "all_envelope_checks_passed": True,
        "config/U_H": None,
        "config/delta": 1e-06,
        "config/eps_H": 0.01,
        "config/eps_g": 0.0001,
        "config/eta": 1.0,
        "config/max_iters": 10000,
        "config/max_ls_steps": 200,
        "config/rng_seed": 0,
        "config/theta": 0.5,
        "config/zeta": 0.5,
        "problem": "rosenbrock-10d",
        "runs/0/certificate/g_norm_min": 1.0435145475672415e-08,
        "runs/0/certificate/lambda": 0.5014622920220498,
        "runs/0/certificate/n_f": 32,
        "runs/0/certificate/n_grad": 26,
        "runs/0/certificate/n_hv": 25,
        "runs/0/certificate/point/0": -0.9932633537060503,
        "runs/0/certificate/point/1": 0.9966060014624373,
        "runs/0/certificate/point/2": 0.9982405355975921,
        "runs/0/certificate/point/3": 0.9989882817345859,
        "runs/0/certificate/point/4": 0.9992258468438524,
        "runs/0/certificate/point/5": 0.999073025035628,
        "runs/0/certificate/point/6": 0.9984528934776292,
        "runs/0/certificate/point/7": 0.9970535389448956,
        "runs/0/certificate/point/8": 0.9941733841707909,
        "runs/0/certificate/point/9": 0.9883784245877961,
        "runs/0/certificate/steps": 25,
        "runs/0/counters/n_f": 32,
        "runs/0/counters/n_grad": 26,
        "runs/0/counters/n_hv": 25,
        "runs/0/envelope/K_eval": 8.737865792197119e+27,
        "runs/0/envelope/K_hat": 1.1581432922790324e+28,
        "runs/0/envelope/K_iter": 1.809598894185988e+26,
        "runs/0/envelope/eval_log_term": 13.287712379549449,
        "runs/0/envelope/eval_log_term_negative": False,
        "runs/0/envelope/max_term": 1000000.0,
        "runs/0/envelope/ops_bound": 2.547915243013871e+29,
        "runs/0/envelope/success_prob": 0.0,
        "runs/0/envelope_checks/f_eval_bound": 8.737865792197119e+27,
        "runs/0/envelope_checks/f_evals_ok": True,
        "runs/0/envelope_checks/iteration_bound": 1.809598894185988e+26,
        "runs/0/envelope_checks/iterations_ok": True,
        "runs/0/envelope_checks/observed_f_evals": 32,
        "runs/0/envelope_checks/observed_iterations": 25,
        "runs/0/error": None,
        "runs/0/f_final": 3.986579112347138,
        "runs/0/fallback_count": 0,
        "runs/0/final_point_second_order_ok": True,
        "runs/0/g_norm_final": 1.0435145475672415e-08,
        "runs/0/iterations": 25,
        "runs/0/lambda_final": 0.5014622920220498,
        "runs/0/reentries": 0,
        "runs/0/seed": 0,
        "runs/0/status": "converged",
        "runs/0/trace_file": "rosenbrock-10d_exact_seed0_trace.csv",
        "runs/0/x_final/0": -0.9932633728477706,
        "runs/0/x_final/1": 0.9966060394263975,
        "runs/0/x_final/2": 0.9982406113571733,
        "runs/0/x_final/3": 0.9989884336999623,
        "runs/0/x_final/4": 0.9992261533038111,
        "runs/0/x_final/5": 0.999073647891015,
        "runs/0/x_final/6": 0.9984541768567422,
        "runs/0/x_final/7": 0.9970562505674683,
        "runs/0/x_final/8": 0.9941793730305325,
        "runs/0/x_final/9": 0.9883926257235163,
        "schema_version": 1,
        "strict_second_order": False,
    },
    "quartic-saddle-2d_inexact_report.json": {
        "algo": "inexact",
        "all_converged": True,
        "all_envelope_checks_passed": True,
        "config/U_H": None,
        "config/delta": 1e-06,
        "config/eps_H": 0.01,
        "config/eps_g": 0.0001,
        "config/eta": 1.0,
        "config/max_iters": 10000,
        "config/max_ls_steps": 200,
        "config/rng_seed": 0,
        "config/theta": 0.5,
        "config/zeta": 0.5,
        "problem": "quartic-saddle-2d",
        "runs/0/certificate/g_norm_min": 6.631865925377808e-07,
        "runs/0/certificate/lambda": 0.30547611130282903,
        "runs/0/certificate/n_f": 8,
        "runs/0/certificate/n_grad": 7,
        "runs/0/certificate/n_hv": 15,
        "runs/0/certificate/point/0": -1.0000247893407705,
        "runs/0/certificate/point/1": -1.0004704270531164,
        "runs/0/certificate/steps": 6,
        "runs/0/counters/n_f": 8,
        "runs/0/counters/n_grad": 7,
        "runs/0/counters/n_hv": 15,
        "runs/0/envelope/K_eval": 23115311557.656815,
        "runs/0/envelope/K_hat": 81106063998.60814,
        "runs/0/envelope/K_iter": 1267282249.9782522,
        "runs/0/envelope/eval_log_term": 13.287712379549449,
        "runs/0/envelope/eval_log_term_negative": False,
        "runs/0/envelope/max_term": 1000000.0,
        "runs/0/envelope/ops_bound": 486636383991.6488,
        "runs/0/envelope/success_prob": 0.0,
        "runs/0/envelope_checks/iteration_bound": 81106063998.60814,
        "runs/0/envelope_checks/iterations_ok": True,
        "runs/0/envelope_checks/observed_iterations": 6,
        "runs/0/envelope_checks/observed_ops": 22,
        "runs/0/envelope_checks/ops_bound": 486636383991.6488,
        "runs/0/envelope_checks/ops_ok": True,
        "runs/0/error": None,
        "runs/0/f_final": 1.099120794378905e-13,
        "runs/0/fallback_count": 0,
        "runs/0/final_point_second_order_ok": None,
        "runs/0/g_norm_final": 6.631865925377808e-07,
        "runs/0/iterations": 6,
        "runs/0/lambda_final": 0.30547611130282903,
        "runs/0/reentries": 0,
        "runs/0/seed": 0,
        "runs/0/status": "converged",
        "runs/0/trace_file": "quartic-saddle-2d_inexact_seed0_trace.csv",
        "runs/0/x_final/0": -1.0000000339317385,
        "runs/0/x_final/1": -1.0000003298524571,
        "schema_version": 1,
        "strict_second_order": False,
    },
}


def _flatten(value, path=()):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, (*path, str(i)))
    else:
        yield "/".join(path), value


def _matches(got, want) -> bool:
    """Floats agree to 1e-12 relative; every other value and every type exactly."""
    if isinstance(want, float):
        return type(got) is float and got == pytest.approx(want, rel=1e-12, abs=0.0)
    return (type(got), got) == (type(want), want)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_report_matches_pin(name, tmp_path):
    assert main(["run", *SPECS[name], "--seed", "0", "--out", str(tmp_path)]) == 0
    got = dict(_flatten(json.loads((tmp_path / name).read_text())))
    pinned = PINNED[name]
    # Every moved, added or dropped field at once, as (path, got, pinned).
    missing = "<missing>"
    moved = [
        (path, got.get(path, missing), want)
        for path, want in pinned.items()
        if path not in got or not _matches(got[path], want)
    ]
    moved += [(path, got[path], missing) for path in got if path not in pinned]
    assert not moved, "\n".join(f"{path}: got {v!r}, pinned {want!r}" for path, v, want in moved)
    assert list(got) == list(pinned)
