"""Solver loops: termination, certificates, local phase, failure handling."""

from __future__ import annotations

import math
import re
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest

import sols.driver
import sols.steps
from sols import (
    Objective,
    ProblemConstants,
    SolverConfig,
    StepKind,
    check_termination,
    get_problem,
    min_eigenpair_exact,
    run_exact,
    run_inexact,
    suite,
    theoretical_ls_cap,
)
from sols.cgsolve import CgOutcome
from sols.driver import TRACE_COLUMNS
from sols.eigen import EigEstimate
from sols.linesearch import max_ls_cap
from sols.operators import EvalCounters
from sols.steps import ConfigError

from conftest import LAW_CONFIGS, exhaustive_backtrack
from test_operators import quadratic_objective
from sols.problems import rosenbrock, separable_quartic


def trace_rows(records):
    """The records' trace fields, each by repr, so -0.0 and 0.0 differ."""
    return [tuple(map(repr, attrgetter(*TRACE_COLUMNS)(r))) for r in records]


def test_quadratic_converges_in_one_newton_iteration():
    # Far from the minimizer the cubic decrease threshold (eta/6)||d||^3
    # must stay below the attainable decrease, hence the small eta here.
    obj = quadratic_objective(np.eye(2))
    report, records = run_exact(
        obj, np.array([5.0, 5.0]), SolverConfig(eps_g=1e-6, eps_H=0.5, eta=0.1)
    )
    assert report.status == "converged"
    assert report.iterations == 1
    assert records[0].step_kind == StepKind.NEWTON
    assert records[0].alpha == 1.0 and records[0].j == 0
    cert = report.certificate
    assert cert is not None and cert.g_norm_min <= 1e-6 and cert.lam >= -0.5


def test_quadratic_suite_problem_single_iteration_from_canonical_start():
    p = get_problem("quad-convex-2d")
    obj = p.make_objective()
    report, records = run_exact(obj, p.start_point(), p.coverage_config)
    assert report.status == "converged"
    assert report.iterations == 1
    assert records[0].step_kind == StepKind.NEWTON and records[0].alpha == 1.0


def test_saddle_escape_decreases_and_does_not_certify():
    # Pure indefinite quadratic: unbounded below, used only to watch the
    # first escape steps. No constants declared, so no envelope either.
    obj = quadratic_objective(np.diag([1.0, -1.0]))
    cfg = SolverConfig(eps_g=1e-6, eps_H=0.5, max_iters=3)
    report, records = run_exact(obj, np.array([1.0, 0.0]), cfg)
    assert records[0].step_kind == StepKind.NEGATIVE_CURVATURE
    assert records[0].R == pytest.approx(1.0)
    assert records[0].lam == pytest.approx(-1.0)
    fs = [r.f for r in records] + [report.f_final]
    assert all(b < a for a, b in zip(fs, fs[1:]))
    assert report.status == "max_iters"
    assert report.envelope is None


def test_rosenbrock_exact_regression():
    p = get_problem("rosenbrock-2d")
    obj = p.make_objective()
    report, records = run_exact(obj, p.start_point(), p.coverage_config)
    assert report.status == "converged"
    assert np.allclose(report.x_final, [1.0, 1.0], atol=1e-4)
    assert report.g_norm_final <= 1e-5
    lam = min_eigenpair_exact(obj.dense_hessian(report.x_final)).lam
    assert lam >= -1e-3
    checks = report.envelope_checks()
    assert checks["iterations_ok"] and checks["f_evals_ok"]
    # regression pin: the exact path is deterministic
    assert report.iterations == 20


@pytest.mark.parametrize("algo", ["exact", "inexact"])
def test_all_envelope_checks_pass_reads_every_ok_flag(algo):
    p = get_problem("quad-convex-2d")
    run = run_inexact if algo == "inexact" else run_exact
    report, _ = run(p.make_objective(), p.start_point(), p.coverage_config)
    assert report.all_envelope_checks_pass()
    cert, checks = report.certificate, report.envelope_checks()
    # One past each bound; the cost bound is on n_f or on n_grad + n_hv.
    cost_bound, cost_ok = ("ops_bound", "ops_ok") if algo == "inexact" else (
        "f_eval_bound", "f_evals_ok")
    over_iters = math.ceil(checks["iteration_bound"]) + 1
    over_cost = math.ceil(checks[cost_bound]) + 1
    for bad_cert, failed in [
        (replace(cert, steps=over_iters), ["iterations_ok"]),
        (replace(cert, counters=EvalCounters(over_cost, over_cost, 0)), [cost_ok]),
    ]:
        bad = replace(report, certificate=bad_cert)
        flags = bad.envelope_checks().items()
        assert [k for k, v in flags if k.endswith("_ok") and not v] == failed
        assert not bad.all_envelope_checks_pass()


def test_a_run_without_envelope_checks_does_not_pass_them():
    # No certificate: one iteration is too few for rosenbrock-2d.
    p = get_problem("rosenbrock-2d")
    cfg = p.coverage_config.with_updates(max_iters=1)
    report, _ = run_exact(p.make_objective(), p.start_point(), cfg)
    assert report.status == "max_iters" and report.certificate is None
    assert report.envelope is not None and report.envelope_checks() == {}
    assert not report.all_envelope_checks_pass()
    # No constants: a certified run without an envelope.
    obj = quadratic_objective(np.diag([1.0, 2.0]))
    report, _ = run_exact(obj, np.array([1.0, 1.0]), SolverConfig())
    assert report.converged and report.certificate is not None and report.envelope is None
    assert report.envelope_checks() == {}
    assert not report.all_envelope_checks_pass()
    assert not sols.driver.envelope_checks_pass({"observed_iterations": 3})


def test_post_line_search_termination_certifies_previous_iterate():
    p = get_problem("quad-convex-2d")
    obj = p.make_objective()
    x0 = np.array([2.0, -1.0])
    report, records = run_exact(obj, x0, SolverConfig(eps_g=1e-6, eps_H=0.5))
    cert = report.certificate
    assert np.allclose(cert.point, x0)  # lambda was certified at the pre-step point
    assert cert.lam == records[0].lam
    assert cert.g_norm_min == records[0].g_next_norm
    assert report.final_point_second_order_ok


def test_check_termination_cases():
    cfg = SolverConfig(eps_g=1e-3, eps_H=0.5)
    assert check_termination(0.0, 0.0, cfg)
    assert check_termination(1e-3, -0.5, cfg)
    assert check_termination(1e-3, -0.25, cfg, inexact=True)
    assert not check_termination(1e-3 * 1.0001, 1.0, cfg)
    assert not check_termination(1e-4, -0.501, cfg)
    assert not check_termination(1e-4, -0.251, cfg, inexact=True)


# --- local phase -----------------------------------------------------------------

def _gradient_grows_after_certificate() -> Objective:
    """f = x'x/2 whose first gradient is shrunk 100-fold and the rest are exact.

    From x0 = [1e-3, 0] the shrunk gradient certifies x0 at once, the local
    Newton step moves only to [0.99e-3, 0], and the exact gradient there
    exceeds eps_g = 1e-4: the gradient has grown past eps_g in the local phase.
    """
    calls = []

    def gradient(x):
        calls.append(1)
        return x / 100.0 if len(calls) == 1 else x.copy()

    return _nan_objective(gradient=gradient)


def test_local_phase_immediately_reenters_on_large_gradient():
    cfg = SolverConfig(eps_g=1e-4, eps_H=0.5)
    report, records = run_exact(
        _gradient_grows_after_certificate(), np.array([1e-3, 0.0]), cfg, local_phase=True
    )
    # The grown gradient hands back before a second local step; the main
    # loop's Newton step then lands on the minimizer and the run converges.
    assert [(r.k, r.phase, r.step_kind) for r in records] == [
        (0, "local", StepKind.NEWTON), (1, "main", StepKind.NEWTON)
    ]
    assert records[0].g_next_norm > cfg.eps_g
    assert report.status == "converged"
    assert report.certificate.steps == 0
    assert report.iterations == 2 and report.g_norm_final == 0.0


def test_local_phase_unit_newton_to_floor():
    p = get_problem("quartic-convex-4d")
    cfg = SolverConfig(eps_g=1e-2, eps_H=0.5)
    obj = p.make_objective()
    report, records = run_exact(obj, p.start_point(), cfg, local_phase=True)
    assert report.status == "converged"
    local = [r for r in records if r.phase == "local"]
    assert local, "expected the run to enter the local phase"
    for row in local:
        assert row.step_kind == StepKind.NEWTON
        assert row.alpha == 1.0
    assert report.g_norm_final <= max(1e-14, cfg.eps_g * 1e-6)


def test_local_phase_reentry_counted():
    # A local step whose new gradient exceeds eps_g hands back to the main
    # loop, and the driver counts the re-entry.
    p = get_problem("quartic-convex-4d")
    cfg = SolverConfig(eps_g=1e-2, eps_H=0.5)
    obj = p.make_objective()
    report, _ = run_exact(obj, p.start_point(), cfg, local_phase=True)
    assert report.reentries == 0  # well-behaved convex run never bounces
    report, _ = run_exact(
        _gradient_grows_after_certificate(), np.array([1e-3, 0.0]),
        SolverConfig(eps_g=1e-4, eps_H=0.5), local_phase=True,
    )
    assert report.reentries == 1


def test_local_phase_regularized_branch_fires_on_flat_curvature():
    # The start point is certified at once, with a slightly negative
    # eigenvalue inside [-eps_H, 0]: the local loop must pick the
    # regularized system.
    prob = separable_quartic(
        "local-flat",
        d=[1.0, -0.02],
        beta=[0.0, 0.05],
        c0=0.002,
        x0=[1e-4, 1e-3],
        branch_coverage=[StepKind.REGULARIZED_NEWTON],
        coverage_config=SolverConfig(eps_g=1e-2, eps_H=0.5),
    )
    cfg = prob.coverage_config.with_updates(max_iters=800)
    report, records = run_exact(prob.make_objective(), prob.start_point(), cfg,
                                local_phase=True)
    assert report.certificate.steps == 0
    assert all(r.phase == "local" for r in records)
    assert StepKind.REGULARIZED_NEWTON in {r.step_kind for r in records}
    assert report.status == "converged"


def test_local_phase_regularizes_at_eigenvalue_minus_eps_H():
    # lambda = -eps_H exactly lies in the closed regularized interval; the
    # plain Newton system there is indefinite, and its solve would raise.
    obj = quadratic_objective(np.diag([1.0, -0.5]))
    cfg = SolverConfig(eps_g=1e-4, eps_H=0.5)
    report, records = run_exact(obj, np.array([1e-5, 0.0]), cfg, local_phase=True)
    assert report.status == "converged"
    assert records and all(r.step_kind == StepKind.REGULARIZED_NEWTON for r in records)
    assert all(r.lam == -0.5 for r in records)
    assert report.g_norm_final <= max(1e-14, cfg.eps_g * 1e-6)


@pytest.mark.parametrize(
    "name,cfg",
    [("rosenbrock-10d", SolverConfig()), ("quartic-offset-2d", None)],
    ids=["rosenbrock-10d-default", "quartic-offset-2d-coverage"],
)
def test_local_phase_stall_keeps_every_accepted_step(name, cfg):
    # These runs end in ls_stall in the local phase at the roundoff floor of
    # f; every accepted step before the stall is still a row of the run.
    p = get_problem(name)
    obj = p.make_objective()
    report, records = run_exact(obj, p.start_point(), cfg or p.coverage_config,
                                local_phase=True)
    assert report.status == "ls_stall"
    assert records[-1].phase == "local"
    assert report.iterations == len(records) == report.counters.n_grad - 1
    assert report.g_norm_final == records[-1].g_next_norm
    assert report.f_final == obj.value(report.x_final)


@pytest.mark.parametrize(
    "name, n_f, exhaustive_n_f, j",
    [("rosenbrock-10d", 76, 251, 26), ("quartic-offset-2d", 28, 210, 19)],
)
def test_local_phase_stall_ends_where_float64_absorbs_the_step(
    name, n_f, exhaustive_n_f, j, monkeypatch
):
    # At the coverage config the last local search reaches x itself at
    # theta**j d. Ending there leaves every row, the final point and value
    # and the status as the exhaustive loop has them, and saves its
    # 200 + 1 - j evaluations of x.
    p = get_problem(name)

    def run():
        return run_exact(p.make_objective(), p.start_point(), p.coverage_config,
                         local_phase=True)

    report, records = run()
    monkeypatch.setattr(sols.driver, "backtrack", exhaustive_backtrack)
    old_report, old_records = run()
    assert report.status == old_report.status == "ls_stall"
    assert trace_rows(records) == trace_rows(old_records)
    assert report.x_final.tobytes() == old_report.x_final.tobytes()
    assert report.f_final.hex() == old_report.f_final.hex()
    assert report.counters.n_f == n_f and old_report.counters.n_f == exhaustive_n_f
    assert exhaustive_n_f - n_f == 200 + 1 - j
    assert report.error == (
        f"line-search stall: trial point equals x at j={j} (step below float64 resolution)"
    )


def test_local_phase_reentry_resumes_main_loop(monkeypatch):
    # The local phase's first eigenvalue check reports strong negative
    # curvature, so it hands straight back; the main loop certifies again
    # and the second local phase converges.
    import sols.driver

    real = sols.driver.min_eigenpair_exact
    calls = []

    def first_call_negative(H):
        calls.append(H)
        est = real(H)
        return replace(est, lam=-1.0) if len(calls) == 1 else est

    monkeypatch.setattr(sols.driver, "min_eigenpair_exact", first_call_negative)
    p = get_problem("quartic-convex-4d")
    cfg = SolverConfig(eps_g=1e-2, eps_H=0.5)
    report, records = run_exact(p.make_objective(), p.start_point(), cfg, local_phase=True)
    assert report.status == "converged"
    assert report.reentries == 1
    assert [r.k for r in records] == [0, 1, 2, 3, 4]
    assert [r.phase for r in records] == ["main"] * 4 + ["local"]
    assert report.certificate.steps == 4


def test_trace_rows_are_numbered_by_step(law_corpus):
    runs = [(run.report, run.records) for run in law_corpus]
    for p in suite():
        runs.append(run_exact(p.make_objective(), p.start_point(), p.coverage_config,
                              local_phase=True))
    for report, records in runs:
        assert [r.k for r in records] == list(range(report.iterations))


def test_each_row_starts_from_the_gradient_its_predecessor_ended_at(law_corpus):
    for run in law_corpus:
        for prev, row in zip(run.records, run.records[1:]):
            assert repr(row.g_norm) == repr(prev.g_next_norm), (run.problem.name, row.k)


@pytest.mark.parametrize("algo", ["exact", "inexact"])
def test_a_gradient_callback_may_reuse_its_output_buffer(algo):
    p = get_problem("rosenbrock-10d")
    run = run_inexact if algo == "inexact" else run_exact
    inner = p.make_objective()
    buffer = np.empty(p.dim)

    def gradient(x):
        buffer[:] = inner.gradient(x)
        return buffer

    reusing = Objective(
        p.dim, inner.value, gradient, inner.hessian_vector, inner.dense_hessian,
        constants=p.constants, name=p.name,
    )
    report, records = run(reusing, p.start_point(), p.coverage_config)
    fresh_report, fresh_records = run(p.make_objective(), p.start_point(), p.coverage_config)
    assert len(records) > 1
    assert trace_rows(records) == trace_rows(fresh_records)
    assert report.certificate.g_norm_min == fresh_report.certificate.g_norm_min
    assert report.g_norm_final == fresh_report.g_norm_final


# --- inexact loop ---------------------------------------------------------------

def test_inexact_unit_newton_on_quadratic():
    p = get_problem("quad-convex-2d")
    obj = p.make_objective()
    cfg = SolverConfig(eps_g=1e-6, eps_H=0.5, zeta=0.5)
    report, records = run_inexact(obj, p.start_point(), cfg)
    assert report.status == "converged"
    assert report.iterations == 1
    assert records[0].step_kind == StepKind.INEXACT_NEWTON
    assert records[0].alpha == 1.0


def test_inexact_requires_hessian_bound():
    obj = quadratic_objective(np.eye(2))  # no constants attached
    with pytest.raises(ConfigError):
        run_inexact(obj, np.ones(2), SolverConfig())
    report, _ = run_inexact(obj, np.ones(2), SolverConfig(eps_g=1e-6, eps_H=0.5, U_H=1.5))
    assert report.status == "converged"


@pytest.mark.parametrize("s", [1.0, 2.0**-33, 2.0**-66, 2.0**-100], ids=["1", "2-33", "2-66", "2-100"])
@pytest.mark.parametrize("loop", ["exact", "exact-local", "inexact"])
def test_uniformly_scaled_quadratic_converges_in_one_newton_step(loop, s):
    # f(x) = x'(s A)x / 2 with its constants and tolerances scaled by s: each
    # loop takes the same single Newton step at every scale.
    obj = quadratic_objective(
        s * np.diag([1.0, 2.0, 3.0]),
        constants=ProblemConstants(L_H=0.0, U_g=10.0 * s, U_H=4.0 * s, f_low=0.0),
    )
    cfg = SolverConfig(eps_g=1e-4 * s, eps_H=1e-2 * s, eta=s)
    x0 = np.ones(3)
    if loop == "inexact":
        report, _ = run_inexact(obj, x0, cfg)
    else:
        report, _ = run_exact(obj, x0, cfg, local_phase=loop == "exact-local")
    assert (report.status, report.iterations) == ("converged", 1)


def test_inexact_zero_delta_matches_exact_branch_choice_at_start():
    kind_map = {
        StepKind.NEWTON: StepKind.INEXACT_NEWTON,
        StepKind.REGULARIZED_NEWTON: StepKind.INEXACT_REGULARIZED_NEWTON,
    }
    from sols import Terminate, select_direction_exact, select_direction_inexact

    for p in suite():
        cfg = p.coverage_config.with_updates(delta=0.0)
        obj_a, obj_b = p.make_objective(), p.make_objective()
        x = p.start_point()
        g_a, g_b = obj_a.gradient(x), obj_b.gradient(x)
        sel_a = select_direction_exact(obj_a, x, g_a, cfg)
        rng = np.random.Generator(np.random.Philox(0))
        sel_b = select_direction_inexact(obj_b, x, g_b, cfg, rng, U_H=p.constants.U_H)
        if isinstance(sel_a, Terminate):
            assert isinstance(sel_b, Terminate)
            continue
        lam = sel_a.lam
        if lam is not None:
            # skip straddling cases where exact and estimator thresholds differ
            thresholds = (-cfg.eps_H, -0.5 * cfg.eps_H, cfg.eps_H, 1.5 * cfg.eps_H)
            if min(abs(lam - t) for t in thresholds) < 1e-9:
                continue
        assert kind_map.get(sel_a.kind, sel_a.kind) == sel_b.kind


def test_inexact_seed_determinism_and_variation():
    p = get_problem("quartic-saddle-50d")
    cfg = p.coverage_config
    runs = {}
    for seed in (1, 1, 2):
        obj = p.make_objective()
        report, records = run_inexact(obj, p.start_point(), cfg.with_updates(rng_seed=seed))
        runs.setdefault(seed, []).append(trace_rows(records))
    assert runs[1][0] == runs[1][1]
    assert runs[1][0] != runs[2][0]


def test_driver_counts_cg_fallback_events(monkeypatch):
    def lying_lanczos(hv, n, M, eps, delta, rng, sigma=None):
        v = np.zeros(n)
        v[0] = 1.0
        return EigEstimate(lam=10.0, v_unit=v, iters=1, converged_by="lanczos_cap")

    prob = separable_quartic(
        "fallback-bowl",
        d=[2.0, -1.0],
        beta=[0.0, 0.5],
        c0=0.5,
        x0=[1.0, 0.1],
        branch_coverage=[StepKind.NEGATIVE_CURVATURE],
        coverage_config=SolverConfig(eps_g=1e-4, eps_H=0.5),
    )
    obj = prob.make_objective()
    monkeypatch.setattr(sols.steps, "lanczos_min_eig", lying_lanczos)
    report, records = run_inexact(obj, prob.start_point(), prob.coverage_config)
    fallback_rows = [r for r in records if r.cg_fallback]
    assert fallback_rows
    assert report.fallback_count == len(fallback_rows)
    assert all(r.step_kind == StepKind.NEGATIVE_CURVATURE for r in fallback_rows)


def count_dense_hessians(obj: Objective, nan_at: int | None = None) -> list:
    """Wrap ``obj``'s dense Hessian so that it logs each call's point and
    returns NaN at call number ``nan_at`` (1-based); returns the log."""
    real, calls = obj._dense_hessian, []

    def dense_hessian(x):
        calls.append(x)
        H = real(x)
        return H * np.nan if len(calls) == nan_at else H

    obj._dense_hessian = dense_hessian
    return calls


@pytest.mark.parametrize("local_phase", [False, True], ids=["exact", "exact-local"])
def test_a_non_finite_hessian_at_the_final_check_ends_nonfinite(local_phase):
    # The check of the final point makes the run's last dense Hessian. A NaN
    # there ends the run "nonfinite", keeping its rows and its certificate.
    p = get_problem("rosenbrock-2d")
    obj = p.make_objective()
    calls = count_dense_hessians(obj)
    clean, clean_records = run_exact(obj, p.start_point(), p.coverage_config,
                                     local_phase=local_phase)
    assert clean.status == "converged" and len(calls) > 1
    obj = p.make_objective()
    count_dense_hessians(obj, nan_at=len(calls))
    report, records = run_exact(obj, p.start_point(), p.coverage_config, local_phase=local_phase)
    assert (report.status, report.error) == ("nonfinite", "non-finite entry in the dense Hessian")
    assert records == clean_records
    assert (report.certificate.steps, report.certificate.lam) == (
        clean.certificate.steps, clean.certificate.lam
    )


def test_driver_reports_cg_cap_status(monkeypatch):
    def capped_cg(apply_A, g, m, M, zeta, n, precondition=None):
        return CgOutcome(d=np.zeros_like(g), iters=n, final_residual_norm=1.0,
                         status="cap_reached")

    p = get_problem("quad-convex-2d")
    obj = p.make_objective()
    monkeypatch.setattr(sols.steps, "cg_capped", capped_cg)
    report, _ = run_inexact(obj, np.array([5.0, 5.0]), SolverConfig(eps_g=1e-6, eps_H=0.5))
    assert report.status == "cg_cap"
    assert "cap" in report.error


def test_driver_reports_indefinite_system_status(monkeypatch):
    # H = diag(2, 0) and a gradient with a component in its null space. The
    # estimator claims lambda = 10, so CG meets a zero-curvature direction
    # that cannot become a negative-curvature step.
    H = np.diag([2.0, 0.0])
    obj = Objective(
        dim=2,
        value=lambda x: float(x[0] ** 2 + x[1]),
        gradient=lambda x: np.array([2.0 * x[0], 1.0]),
        hessian_vector=lambda x, v: H @ v,
        dense_hessian=lambda x: H,
    )

    def lying_lanczos(hv, n, M, eps, delta, rng, sigma=None):
        return EigEstimate(lam=10.0, v_unit=np.array([1.0, 0.0]), iters=1,
                           converged_by="lanczos_cap")

    monkeypatch.setattr(sols.steps, "lanczos_min_eig", lying_lanczos)
    report, records = run_inexact(obj, np.array([1.0, 0.0]), SolverConfig(U_H=3.0))
    assert report.status == "indefinite"
    assert "indefinite-system" in report.error
    assert report.iterations == len(records)


def test_driver_reports_line_search_stall_status(monkeypatch):
    obj = quadratic_objective(np.eye(2))  # no declared constants: budget unchecked
    # A sabotaged solver returns ascent.
    monkeypatch.setattr(sols.steps, "solve_exact", lambda est, g, shift: g.copy())
    cfg = SolverConfig(eps_g=1e-9, eps_H=0.5, max_ls_steps=5)
    report, _ = run_exact(obj, np.array([1.0, 1.0]), cfg)
    assert report.status == "ls_stall"
    assert "stall" in report.error


# (status, iterations, (n_f, n_grad, n_hv)) of each exact loop on rosenbrock-10d
# at the benchmark's tolerances.
ROSEN10_EXACT_RUNS = {
    False: ("converged", 25, (32, 26, 25)),
    True: ("ls_stall", 27, (76, 28, 25)),
}


@pytest.mark.parametrize("local_phase", [False, True])
def test_exact_runs_factor_each_hessian_once(monkeypatch, local_phase):
    # Each Newton system is solved from the eigendecomposition that chose
    # it; nothing is factored a second time.
    problem = get_problem("rosenbrock-10d")
    eighs = []
    real_eigh = np.linalg.eigh

    def eigh(H):
        eighs.append(H)
        return real_eigh(H)

    def refuse(*args, **kwargs):
        raise AssertionError("a Hessian was factored a second time")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    cfg = SolverConfig(eps_g=1e-5, eps_H=1e-2)
    report, records = run_exact(
        problem.make_objective(), problem.start_point(), cfg, local_phase=local_phase
    )
    c = report.counters
    assert (report.status, report.iterations, (c.n_f, c.n_grad, c.n_hv)) == (
        ROSEN10_EXACT_RUNS[local_phase]
    )
    # One eigh per second-order row, and one more: the final check of the
    # converged run, or the stalled run's last local iteration, which makes
    # no row.
    assert len(eighs) == sum(r.lam is not None for r in records) + 1


def test_ls_budget_asserted_against_declared_constants():
    p = get_problem("rosenbrock-2d")
    obj = p.make_objective()
    with pytest.raises(ConfigError):
        run_exact(obj, p.start_point(), p.coverage_config.with_updates(max_ls_steps=2))


def test_strict_second_order_terminates_pointwise():
    p = get_problem("quartic-offset-2d")
    obj = p.make_objective()
    report, _ = run_exact(obj, p.start_point(), p.coverage_config,
                          strict_second_order=True)
    assert report.status == "converged"
    assert report.final_point_second_order_ok
    assert report.g_norm_final <= p.coverage_config.eps_g
    lam = min_eigenpair_exact(obj.dense_hessian(report.x_final)).lam
    assert lam >= -p.coverage_config.eps_H


def test_start_point_already_certified():
    p = get_problem("quad-convex-2d")
    obj = p.make_objective()
    report, records = run_exact(obj, np.zeros(2), SolverConfig(eps_g=1e-6, eps_H=0.5))
    assert report.status == "converged"
    assert report.iterations == 0
    assert records == []
    assert report.certificate.steps == 0


@pytest.mark.parametrize("run", [run_exact, run_inexact], ids=["exact", "inexact"])
def test_a_run_without_steps_keeps_its_own_copy_of_x0(run):
    x0 = np.zeros(2)
    report, _ = run(get_problem("quad-convex-2d").make_objective(), x0,
                    SolverConfig(eps_g=1e-6, eps_H=0.5))
    assert report.iterations == 0
    x0[0] = 5.0
    assert report.x_final.tolist() == report.certificate.point.tolist() == [0.0, 0.0]


def test_nonfinite_start_rejected():
    bad = Objective(
        1, lambda x: float("inf"), lambda x: np.zeros(1), lambda x, v: v, lambda x: np.eye(1)
    )
    with pytest.raises(ValueError, match="the objective at the start point is not finite"):
        run_exact(bad, np.zeros(1), SolverConfig())


@pytest.mark.parametrize("local_phase", [False, True])
def test_exact_loops_reject_an_objective_without_a_dense_hessian(local_phase):
    # Rejected before any evaluation, like a start point of the wrong shape.
    obj = Objective(2, lambda x: float(x @ x), lambda x: 2.0 * x, lambda x, v: 2.0 * v,
                    name="bowl")
    with pytest.raises(ValueError, match="objective 'bowl' does not provide a dense Hessian"):
        run_exact(obj, np.ones(2), SolverConfig(), local_phase=local_phase)
    assert obj.counters == EvalCounters()


@pytest.mark.parametrize("x0", [[1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0], ids=["long", "row", "scalar"])
@pytest.mark.parametrize("algo", ["exact", "inexact"])
def test_start_point_of_the_wrong_shape_rejected(algo, x0):
    obj = quadratic_objective(np.eye(2))
    match = re.escape(f"x0 has shape {np.shape(x0)}, but the objective has dim = 2")
    with pytest.raises(ValueError, match=match):
        if algo == "exact":
            run_exact(obj, x0, SolverConfig())
        else:
            run_inexact(obj, x0, SolverConfig(U_H=1.0))
    assert obj.counters == EvalCounters()


def test_counters_match_trace_accounting(law_corpus):
    for run in law_corpus:
        rows = run.records
        nf = 1 + sum(r.j + 1 for r in rows)
        ngrad = 1 + len(rows)
        assert run.report.counters.n_f == nf
        assert run.report.counters.n_grad == ngrad
        # cumulative counters in the trace are nondecreasing
        for a, b in zip(rows, rows[1:]):
            assert b.n_f >= a.n_f and b.n_grad >= a.n_grad and b.n_hv >= a.n_hv


def test_trace_context_matches_recorded_kind(law_corpus):
    """Each row's (g_norm, R, lam) context must imply its recorded kind."""
    for run in law_corpus:
        eps_g, eps_H = run.cfg.eps_g, run.cfg.eps_H
        for r in run.records:
            kind = r.step_kind
            if kind == StepKind.SCALED_NEG_CURV_GRADIENT:
                assert r.R < -eps_H and r.g_norm > 0
            elif kind == StepKind.NORMALIZED_GRADIENT:
                assert -eps_H <= r.R <= eps_H and r.g_norm > eps_g
            elif kind == StepKind.NEGATIVE_CURVATURE:
                if r.cg_fallback:
                    assert r.lam < 0.0
                elif run.mode == "exact":
                    assert r.lam < -eps_H
                else:
                    assert r.lam < -0.5 * eps_H
            elif kind == StepKind.NEWTON:
                assert r.lam > eps_H
            elif kind == StepKind.REGULARIZED_NEWTON:
                assert -eps_H <= r.lam <= eps_H
            elif kind == StepKind.INEXACT_NEWTON:
                assert r.lam > 1.5 * eps_H
            elif kind == StepKind.INEXACT_REGULARIZED_NEWTON:
                assert -0.5 * eps_H <= r.lam <= 1.5 * eps_H
            if kind not in (StepKind.SCALED_NEG_CURV_GRADIENT, StepKind.NORMALIZED_GRADIENT):
                # second-order branches fire only when the first-order ones pass
                if r.R is not None:
                    assert r.R > eps_H or r.g_norm <= eps_g


def test_objective_strictly_decreases_along_trace(law_corpus):
    for run in law_corpus:
        fs = [r.f for r in run.records] + [run.report.f_final]
        assert all(b < a for a, b in zip(fs, fs[1:]))


def test_inexact_tolerates_inflated_hessian_bound():
    # The shift bound may be a loose overestimate; runs stay correct and
    # the envelope (computed from the same bound) stays valid.
    p = get_problem("quartic-saddle-2d")
    cfg = p.coverage_config.with_updates(U_H=50.0 * p.constants.U_H)
    obj = p.make_objective()
    report, _ = run_inexact(obj, p.start_point(), cfg)
    assert report.status == "converged"
    checks = report.envelope_checks()
    assert checks["iterations_ok"] and checks["ops_ok"]
    lam = min_eigenpair_exact(obj.dense_hessian(report.certificate.point)).lam
    assert lam >= -cfg.eps_H


@pytest.mark.parametrize("seed", [0, 1])
def test_inexact_converges_at_huge_finite_hessian_bound(seed):
    p = get_problem("quartic-saddle-50d")
    obj = p.make_objective()
    report, _ = run_inexact(obj, p.start_point(), SolverConfig(U_H=1e308, rng_seed=seed))
    assert report.status == "converged"
    lam = min_eigenpair_exact(obj.dense_hessian(report.certificate.point)).lam
    assert lam >= -SolverConfig().eps_H


def test_trace_columns_mirror_record_fields():
    import dataclasses

    from sols.driver import TRACE_COLUMNS, IterationRecord

    assert tuple(f.name for f in dataclasses.fields(IterationRecord)) == TRACE_COLUMNS


# The step kinds each loop may produce, written out here rather than read
# from StepKind, so the tests below check StepKind against a list of their own.
EXACT_KINDS = {
    StepKind.SCALED_NEG_CURV_GRADIENT,
    StepKind.NORMALIZED_GRADIENT,
    StepKind.NEGATIVE_CURVATURE,
    StepKind.NEWTON,
    StepKind.REGULARIZED_NEWTON,
}
INEXACT_KINDS = {
    StepKind.SCALED_NEG_CURV_GRADIENT,
    StepKind.NORMALIZED_GRADIENT,
    StepKind.NEGATIVE_CURVATURE,
    StepKind.INEXACT_NEWTON,
    StepKind.INEXACT_REGULARIZED_NEWTON,
}


def test_trace_step_kinds_legal_per_mode(law_corpus):
    for run in law_corpus:
        legal = EXACT_KINDS if run.mode == "exact" else INEXACT_KINDS
        assert {r.step_kind for r in run.records} <= legal


@pytest.mark.parametrize("inexact", [False, True])
def test_ls_budget_is_the_largest_cap_over_the_loops_kinds(inexact):
    kinds = INEXACT_KINDS if inexact else EXACT_KINDS
    # A kind whose cap never attains the max (newton beside regularized_newton)
    # leaves the caps unmoved when dropped, so the kinds are compared too.
    assert set(StepKind.INEXACT if inexact else StepKind.EXACT) == kinds
    for problem in suite():
        for cfg in LAW_CONFIGS:
            caps = [theoretical_ls_cap(problem.constants, cfg, k) for k in kinds]
            assert max_ls_cap(problem.constants, cfg, inexact) == max(caps)


@pytest.mark.parametrize("name", ["rosenbrock-10d", "quartic-saddle-50d"])
def test_every_product_enters_through_the_counted_method(name, monkeypatch):
    # Per-point memoisation sits below Objective.hessian_vector, so calls
    # through the class method, as a tracer wrapping it sees them, still
    # equal the program's own n_hv.
    calls = []
    original = Objective.hessian_vector

    def counted(self, x, v):
        calls.append(1)
        return original(self, x, v)

    monkeypatch.setattr(Objective, "hessian_vector", counted)
    p = get_problem(name)
    report, _ = run_inexact(p.make_objective(), p.start_point(), p.coverage_config)
    assert report.converged
    assert len(calls) == report.counters.n_hv > 0


def _nan_objective(gradient=None, hessian_vector=None, dense_hessian=None) -> Objective:
    """f = x'x/2 in two dimensions, with chosen derivatives replaced."""
    return Objective(
        2,
        lambda x: 0.5 * float(x @ x),
        gradient or (lambda x: x.copy()),
        hessian_vector or (lambda x, v: v.copy()),
        dense_hessian or (lambda x: np.eye(2)),
    )


NAN2 = np.full(2, np.nan)
X1 = np.array([1.0, -0.5])


def test_nonfinite_product_in_lanczos_is_classified():
    # A zero gradient at the start skips the curvature ratio, so Lanczos
    # takes the first product.
    obj = _nan_objective(hessian_vector=lambda x, v: NAN2.copy())
    report, records = run_inexact(obj, np.zeros(2), SolverConfig(U_H=2.0))
    assert report.status == "nonfinite"
    assert "Lanczos" in report.error
    assert records == [] and report.certificate is None


def test_nonfinite_product_in_cg_is_classified():
    # Products 1-2 (curvature ratio, one Lanczos step) are finite; CG's first is not.
    calls = []

    def hv(x, v):
        calls.append(1)
        return v.copy() if len(calls) <= 2 else NAN2.copy()

    report, _ = run_inexact(_nan_objective(hessian_vector=hv), X1, SolverConfig(U_H=2.0))
    assert report.status == "nonfinite"
    assert "CG iteration 1" in report.error
    assert report.counters.n_hv == 3


def test_nonfinite_gradient_inexact_is_not_cg_cap():
    obj = _nan_objective(gradient=lambda x: NAN2.copy())
    report, records = run_inexact(obj, X1, SolverConfig(U_H=2.0))
    assert report.status == "nonfinite"
    assert "gradient" in report.error
    assert records == [] and report.counters.n_hv == 0


# (callback replaced, its result, the shape it reports)
WRONG_SHAPES = {
    "value-(3,)": ("value", lambda x: x * x, (3,)),
    "value-(1,)": ("value", lambda x: np.array([x @ x]), (1,)),
    "gradient-(2,)": ("gradient", lambda x: 2.0 * x[:2], (2,)),
    "gradient-(3,1)": ("gradient", lambda x: (2.0 * x)[:, None], (3, 1)),
    "product-(2,)": ("hessian_vector", lambda x, v: 2.0 * v[:2], (2,)),
    "product-scalar": ("hessian_vector", lambda x, v: 2.0 * float(v @ v), ()),
    "dense-(2,2)": ("dense_hessian", lambda x: 2.0 * np.eye(2), (2, 2)),
    "dense-(3,)": ("dense_hessian", lambda x: 2.0 * np.ones(3), (3,)),
    "dense-(3,3,1)": ("dense_hessian", lambda x: 2.0 * np.eye(3)[:, :, None], (3, 3, 1)),
}
EXPECTED_SHAPES = {"value": (), "gradient": (3,), "hessian_vector": (3,), "dense_hessian": (3, 3)}


@pytest.mark.parametrize(
    "case, loop",
    [
        pytest.param(case, loop, id=f"{case}-{name}")
        for case in sorted(WRONG_SHAPES)
        for name, loop in (("exact", run_exact), ("inexact", run_inexact))
        # The inexact loop never asks for a dense Hessian.
        if name == "exact" or not case.startswith("dense")
    ],
)
def test_wrong_shape_callback_raises_a_named_error(case, loop):
    # Without the check, numpy raised "operands could not be broadcast",
    # "only 0-dimensional arrays can be converted to Python scalars" (a
    # TypeError), a mismatch in a core dimension, "1-dimensional array
    # given", or read a (3, 3, 1) Hessian as not symmetric.
    callback, bad, shape = WRONG_SHAPES[case]
    assert _bad_callback_error(loop, callback, bad) == (
        f"objective 'bowl': {callback} returned shape {shape}, "
        f"expected {EXPECTED_SHAPES[callback]}"
    )


def _bad_callback_error(loop, callback: str, bad) -> str:
    """The message of the ValueError ``loop`` raises on a 3-D bowl whose
    ``callback`` is replaced by ``bad``."""
    callbacks = {
        "value": lambda x: float(x @ x),
        "gradient": lambda x: 2.0 * x,
        "hessian_vector": lambda x, v: 2.0 * v,
        "dense_hessian": lambda x: 2.0 * np.eye(3),
    }
    callbacks[callback] = bad
    obj = Objective(3, name="bowl", **callbacks)
    with pytest.raises(ValueError) as info:
        loop(obj, np.ones(3), SolverConfig(U_H=3.0))
    assert info.type is ValueError
    return str(info.value)


# Results numpy reads as complex, string or object values. Without the check
# a None value read as NaN ("not finite at the start point"), a complex value
# raised a bare TypeError, a complex array kept its real part with a
# ComplexWarning, and a string raised "could not convert string to float".
NON_REAL = {
    "value-None": ("value", lambda x: None, "object"),
    "value-complex": ("value", lambda x: complex(x @ x, 1.0), "complex128"),
    "value-string": ("value", lambda x: "3.0", "<U3"),
    "gradient-complex": ("gradient", lambda x: (2.0 + 1j) * x, "complex128"),
    "gradient-string": ("gradient", lambda x: np.array(["2", "2", "2"]), "<U1"),
    "product-complex": ("hessian_vector", lambda x, v: 2.0 * v + 0j, "complex128"),
    "product-None": ("hessian_vector", lambda x, v: None, "object"),
    "dense-complex": ("dense_hessian", lambda x: 2.0 * np.eye(3) + 0j, "complex128"),
}


@pytest.mark.parametrize(
    "case, loop",
    [
        pytest.param(case, loop, id=f"{case}-{name}")
        for case in sorted(NON_REAL)
        for name, loop in (("exact", run_exact), ("inexact", run_inexact))
        if name == "exact" or not case.startswith("dense")
    ],
)
def test_non_real_callback_result_raises_a_named_error(case, loop):
    callback, bad, dtype = NON_REAL[case]
    assert _bad_callback_error(loop, callback, bad) == (
        f"objective 'bowl': {callback} returned {dtype} values, expected real numbers"
    )


NAN22 = np.full((2, 2), np.nan)


@pytest.mark.parametrize(
    "derivatives, where",
    [
        # A NaN gradient used to end in a ValueError from the Cholesky solve.
        ({"gradient": lambda x: NAN2.copy(), "dense_hessian": lambda x: NAN22},
         "gradient norm at the start point"),
        # The curvature ratio takes the first product, before any dense Hessian.
        ({"hessian_vector": lambda x, v: NAN2.copy(), "dense_hessian": lambda x: NAN22},
         "curvature ratio"),
        # Finite products, NaN dense Hessian: its NaN eigenvalue passes no branch test.
        ({"dense_hessian": lambda x: NAN22}, "dense Hessian"),
        # The Newton step from X1 lands on the origin, where the gradient is NaN.
        ({"gradient": lambda x: x.copy() if x @ x > 0.25 else NAN2.copy()},
         "gradient norm after step 0"),
    ],
    ids=["gradient", "product", "dense-hessian", "gradient-after-step"],
)
def test_nonfinite_exact_is_classified(derivatives, where):
    report, records = run_exact(_nan_objective(**derivatives), X1, SolverConfig())
    assert report.status == "nonfinite"
    assert where in report.error
    assert records == [] and report.final_point_second_order_ok is None


BOTH_LOOPS = pytest.mark.parametrize(
    "run, cfg", [(run_exact, SolverConfig()), (run_inexact, SolverConfig(U_H=10.0))],
    ids=["exact", "inexact"],
)


@BOTH_LOOPS
def test_run_backtracks_past_nan_trial_values(run, cfg):
    # f = sum(x - log x) is NaN at x < 0. The first Newton step from x = 3 is
    # d = -6: trials j = 0 and 1 land at x <= 0, and j = 2 is accepted.
    values = []

    def value(x):
        with np.errstate(invalid="ignore"):
            values.append(float(np.sum(x - np.log(x))))
        return values[-1]

    obj = Objective(
        1, value, lambda x: 1 - 1 / x, lambda x, v: v / x**2, lambda x: np.diag(1 / x**2)
    )
    report, records = run(obj, np.array([3.0]), cfg)
    assert report.converged
    assert records[0].j == 2 and math.isnan(values[1]) and math.isnan(values[2])


def _nan_basin_objective() -> Objective:
    """f = x'Dx/2 + sum(x^4)/4 with D = diag(1, -1, 2), NaN wherever |x_1| <= 0.45."""
    D = np.array([1.0, -1.0, 2.0])

    def value(x):
        if abs(x[0]) <= 0.45:
            return math.nan
        return 0.5 * float(x @ (D * x)) + 0.25 * float(np.sum(x**4))

    return Objective(
        3, value, lambda x: D * x + x**3, lambda x, v: D * v + 3 * x**2 * v,
        lambda x: np.diag(D + 3 * x**2),
    )


@pytest.mark.parametrize(
    "run, cfg, nan_trials",
    [(run_exact, SolverConfig(), 54), (run_inexact, SolverConfig(U_H=10.0), 52)],
    ids=["exact", "inexact"],
)
def test_stall_through_nan_trial_values_names_them(run, cfg, nan_trials):
    # The minimizer lies where f is NaN, so the last search backtracks through
    # NaN trials to float64 resolution; the reason says the trials were NaN.
    report, records = run(_nan_basin_objective(), np.array([0.5, 0.1, 0.2]), cfg)
    assert report.status == "ls_stall"
    assert report.error == (
        "line-search stall: trial point equals x at j=54 (step below float64 resolution); "
        f"{nan_trials} of its trial values were NaN"
    )
    assert report.iterations == len(records) >= 1


@BOTH_LOOPS
def test_an_accepted_minus_inf_value_ends_nonfinite(run, cfg):
    # f = x^2/2, but -inf near 0, where the first Newton step lands: the
    # search accepts -inf as a decrease, and the run ends there.
    obj = Objective(
        1, lambda x: -math.inf if abs(x[0]) < 0.1 else 0.5 * float(x[0]) ** 2,
        lambda x: x.copy(), lambda x, v: v.copy(), lambda x: np.eye(1),
    )
    report, records = run(obj, np.array([1.0]), cfg)
    assert (report.status, report.error) == ("nonfinite", "the objective after step 0 is not finite")
    assert records == [] and report.f_final == 0.5


@pytest.mark.parametrize(
    "run, cfg", [(run_exact, SolverConfig()), (run_inexact, SolverConfig(U_H=2e120))],
    ids=["exact", "inexact"],
)
def test_direction_whose_cubic_term_overflows_ends_ls_stall(run, cfg):
    # f = -c x^2 / 2 + x at x = 0: R = -c picks the scaled negative-curvature
    # gradient step, of length 1e120, whose ||d||**3 is beyond float64. The
    # decrease threshold is then -inf, which no trial value beats.
    c = 1e120
    obj = Objective(
        1, lambda x: -0.5 * c * float(x[0]) ** 2 + float(x[0]),
        lambda x: np.array([-c * float(x[0]) + 1.0]), lambda x, v: np.array([-c * float(v[0])]),
        lambda x: np.array([[-c]]),
    )
    report, records = run(obj, np.zeros(1), cfg)
    assert report.status == "ls_stall"
    assert report.error == "line-search stall: no acceptable step within 200 backtracks"
    assert (report.iterations, records, obj.counters.n_f) == (0, [], 202)


def test_run_outputs_hold_python_floats(law_corpus):
    # The run path stores these values as it gets them, without float(): each
    # must already be a Python float, as every trace, report and law reads them.
    p = get_problem("rosenbrock-10d")
    local = run_exact(p.make_objective(), p.start_point(), p.coverage_config, local_phase=True)
    assert any(r.phase == "local" for r in local[1])
    for report, records in [(run.report, run.records) for run in law_corpus] + [local]:
        assert report.certificate is not None
        for obj in (report, report.certificate, *records):
            for f in fields(obj):
                if "float" in f.type:
                    value = getattr(obj, f.name)
                    if value is None:
                        assert "None" in f.type, f.name
                    else:
                        assert type(value) is float, (type(obj).__name__, f.name, type(value))


# ROADMAP item 6: two float64-floor defects, pinned so that a fix flips them.
R9_X0 = [-1.2259160595644087, 0.45716628753606736, 0.6506030108721443, 0.5272197443317226,
         0.39577689120944815, -1.3969391324323897, 1.770833109685062, -0.9139552177949244,
         0.30410437897152365]
R9_CONFIG = SolverConfig(eps_g=3.527418588364305e-07, eps_H=0.14091572541513264,
                         theta=0.15357881736435408, eta=2.204319888512492,
                         zeta=0.5364380644314443)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: a main-phase inexact search stalls at the float64 floor "
    "just above eps_g (trial point equals x)",
)
@pytest.mark.parametrize("seed", [0, 1])
def test_inexact_search_does_not_stall_just_above_eps_g(seed):
    # Ends ls_stall at ||g|| = 4.86e-7 (seed 0) and 6.09e-7 (seed 1), eps_g = 3.53e-7.
    # Nor is it converged above eps_g: the fix names the float64 floor.
    prob = rosenbrock("r9", 9, R9_X0, [], R9_CONFIG)
    report, _records = run_inexact(prob.make_objective(), prob.start_point(),
                                   R9_CONFIG.with_updates(rng_seed=seed))
    assert report.status not in ("ls_stall", "converged"), report.error


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: exact-local contracts the gradient only sublinearly at a "
    "degenerate minimizer and spends max_iters",
)
def test_exact_local_does_not_spend_max_iters_at_a_degenerate_minimizer():
    # As exact, the run converges in 11 rows; as exact-local it ends
    # max_iters after 10 000 rows.
    prob = separable_quartic("q", d=[0.0, -1e-300], beta=[1.0, 1.0], c0=0.0, x0=[1.0, 0.0],
                             branch_coverage=[], coverage_config=SolverConfig())
    report, _records = run_exact(prob.make_objective(), prob.start_point(), SolverConfig(),
                                 local_phase=True)
    assert report.status != "max_iters"
