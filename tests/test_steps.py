"""Direction selection: branch tables, scalings, and fallbacks."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

import sols.driver
import sols.steps
from sols import (
    CgCapError,
    Direction,
    EvalCounters,
    IndefiniteSystemError,
    SolverConfig,
    StepKind,
    Terminate,
    get_problem,
    lanczos_min_eig,
    run_exact,
    run_inexact,
    scale_eigvector,
    select_direction_exact,
    select_direction_inexact,
    suite,
)
from sols.cgsolve import CgOutcome
from sols.eigen import EigEstimate
from sols.operators import Objective, ProblemConstants, norm
from sols.steps import ConfigError, CurvatureBound

from conftest import LAW_CONFIGS
from test_operators import quadratic_objective

CFG = SolverConfig(eps_g=0.5, eps_H=0.25)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def stub_lanczos(lam: float, v_unit: np.ndarray):
    def provider(hv, n, M, eps, delta, rng, sigma=None):
        return EigEstimate(lam=lam, v_unit=np.asarray(v_unit, float), iters=1,
                           converged_by="lanczos_cap")

    return provider


# --- spec'd concrete selections -------------------------------------------

def test_exact_scaled_neg_curv_gradient_example():
    obj = quadratic_objective(np.diag([-2.0, 1.0]))
    x = np.array([1.0, 0.0])
    g = obj.gradient(x)
    sel = select_direction_exact(obj, x, g, SolverConfig(eps_g=1e-3, eps_H=0.5))
    assert isinstance(sel, Direction) and sel.kind == StepKind.SCALED_NEG_CURV_GRADIENT
    assert sel.R == pytest.approx(-2.0)
    assert np.allclose(sel.d, [2.0, 0.0])


def test_exact_newton_example():
    obj = quadratic_objective(np.eye(2))
    x = np.array([3.0, 4.0])
    sel = select_direction_exact(obj, x, obj.gradient(x), SolverConfig(eps_g=1e-3, eps_H=0.5))
    assert sel.kind == StepKind.NEWTON
    assert np.allclose(sel.d, [-3.0, -4.0], atol=1e-12)


def test_exact_regularized_newton_example():
    obj = quadratic_objective(np.diag([1.0, -0.1]))
    x = np.array([1.0, 1.0])
    g = obj.gradient(x)
    cfg = SolverConfig(eps_g=1e-3, eps_H=0.5)
    R_expected = (1.0 - 0.001) / 1.01
    sel = select_direction_exact(obj, x, g, cfg)
    assert sel.kind == StepKind.REGULARIZED_NEWTON
    assert sel.R == pytest.approx(R_expected, abs=1e-15)
    assert sel.lam == pytest.approx(-0.1)
    # regularized system is diag(2, 0.9)
    assert np.allclose(sel.d, [-g[0] / 2.0, -g[1] / 0.9], atol=1e-12)


# --- eigenvector scaling ----------------------------------------------------

def test_scale_eigvector_flips_to_descent():
    w = scale_eigvector(np.array([1.0, 0.0]), -2.0, np.array([3.0, 0.0]))
    assert np.allclose(w, [-2.0, 0.0])


def test_scale_eigvector_orthogonal_keeps_orientation():
    w = scale_eigvector(np.array([0.0, 1.0]), -2.0, np.array([3.0, 0.0]))
    assert np.allclose(w, [0.0, 2.0])


def test_scale_eigvector_nonnegative_curvature_is_zero():
    w = scale_eigvector(np.array([1.0, 0.0]), 0.5, np.array([9.0, 9.0]))
    assert np.allclose(w, [0.0, 0.0])


# --- exhaustive branch table (exact) ---------------------------------------
# eps_g = 0.5, eps_H = 0.25; gradients use power-of-two scales so that the
# curvature ratio and the norm comparisons hit the advertised boundaries
# exactly. One case per reachable context cell, boundaries included.

EXACT_CELLS = [
    # (H diag, g, expected kind or "terminate", note)
    (np.diag([-1.0, 1.0]), np.zeros(2), StepKind.NEGATIVE_CURVATURE, "zero grad, lam < -eps_H"),
    (np.diag([0.0, 1.0]), np.zeros(2), "terminate", "zero grad, lam >= -eps_H"),
    (np.diag([-0.25, 1.0]), np.zeros(2), "terminate", "zero grad, lam = -eps_H boundary"),
    (np.diag([-0.5, 1.0]), np.array([1.0, 0.0]), StepKind.SCALED_NEG_CURV_GRADIENT, "R < -eps_H, big grad"),
    (np.diag([-0.5, 1.0]), np.array([0.5, 0.0]), StepKind.SCALED_NEG_CURV_GRADIENT, "R < -eps_H, small grad"),
    (np.diag([-0.25, 1.0]), np.array([1.0, 0.0]), StepKind.NORMALIZED_GRADIENT, "R = -eps_H boundary, big grad"),
    (np.diag([0.25, 1.0]), np.array([1.0, 0.0]), StepKind.NORMALIZED_GRADIENT, "R = +eps_H boundary, big grad"),
    (np.diag([0.0, -1.0]), np.array([0.5, 0.0]), StepKind.NEGATIVE_CURVATURE, "small R, small grad, lam < -eps_H"),
    (np.diag([0.0, 0.1]), np.array([0.5, 0.0]), "terminate", "small R, small grad, lam >= -eps_H"),
    (np.diag([0.5, -1.0]), np.array([1.0, 0.0]), StepKind.NEGATIVE_CURVATURE, "R > eps_H, lam < -eps_H"),
    (np.diag([0.5, -0.25]), np.array([1.0, 0.0]), StepKind.REGULARIZED_NEWTON, "R > eps_H, lam = -eps_H boundary"),
    (np.diag([0.5, 0.25]), np.array([1.0, 0.0]), StepKind.REGULARIZED_NEWTON, "R > eps_H, lam = +eps_H boundary"),
    (np.diag([0.5, 0.3]), np.array([1.0, 0.0]), StepKind.NEWTON, "R > eps_H, lam > eps_H"),
    (np.diag([0.5, 0.3]), np.array([0.5, 0.0]), "terminate", "R > eps_H, small grad, lam fine"),
    (np.diag([0.5, -1.0]), np.array([0.5, 0.0]), StepKind.NEGATIVE_CURVATURE, "R > eps_H, small grad, lam < -eps_H"),
]


@pytest.mark.parametrize("H,g,expected,note", EXACT_CELLS, ids=[c[3] for c in EXACT_CELLS])
def test_exact_branch_table(H, g, expected, note):
    obj = quadratic_objective(H)
    sel = select_direction_exact(obj, np.zeros(2), g, CFG)
    if expected == "terminate":
        assert isinstance(sel, Terminate)
    else:
        assert isinstance(sel, Direction)
        assert sel.kind == expected


# --- inexact thresholds (stubbed estimator hits boundaries exactly) ---------

INEXACT_CELLS = [
    # (lam_i, g scale, expected) with eps_g=0.5, eps_H=0.25 and R > eps_H
    (-0.125, 0.5, "terminate"),  # boundary lam_i = -eps_H/2, small grad
    (-0.2, 0.5, StepKind.NEGATIVE_CURVATURE),
    (-0.125, 1.0, StepKind.INEXACT_REGULARIZED_NEWTON),  # boundary, big grad
    (0.375, 1.0, StepKind.INEXACT_REGULARIZED_NEWTON),  # boundary lam_i = 1.5 eps_H
    (0.376, 1.0, StepKind.INEXACT_NEWTON),
    (0.376, 0.5, "terminate"),  # lanczos failed to see anything bad, small grad
]


@pytest.mark.parametrize("lam_i,gscale,expected", INEXACT_CELLS)
def test_inexact_threshold_table(lam_i, gscale, expected, monkeypatch):
    H = np.diag([0.5, 1.0])  # R = 0.5 > eps_H routes to the second-order branch
    obj = quadratic_objective(H)
    g = np.array([gscale, 0.0])
    monkeypatch.setattr(sols.steps, "lanczos_min_eig", stub_lanczos(lam_i, np.array([0.0, 1.0])))
    sel = select_direction_inexact(obj, np.zeros(2), g, CFG, rng_for(0), U_H=1.0)
    if expected == "terminate":
        assert isinstance(sel, Terminate)
        assert sel.lam == lam_i
    else:
        assert isinstance(sel, Direction)
        assert sel.kind == expected
        if expected == StepKind.NEGATIVE_CURVATURE:
            assert np.linalg.norm(sel.d) == pytest.approx(abs(lam_i))


def test_inexact_dense_matrix_lands_in_regularized_branch():
    # Spectrum reaching down to -0.3 with eps_H = 1: the estimate can sit
    # anywhere in [-0.3, 0.2], always inside the regularized-Newton band.
    rng = np.random.default_rng(42)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    spectrum = np.linspace(-0.3, 2.0, 20)
    H = Q @ np.diag(spectrum) @ Q.T
    obj = quadratic_objective(H)
    cfg = SolverConfig(eps_g=1e-3, eps_H=1.0, delta=1e-6, zeta=0.5)
    g = 2.0 * Q[:, -1]  # strong curvature along g so R > eps_H
    sel = select_direction_inexact(obj, np.zeros(20), g, cfg, rng_for(1), U_H=float(np.abs(spectrum).max()) + 0.1)
    assert sel.kind == StepKind.INEXACT_REGULARIZED_NEWTON
    assert -0.3 - 1e-9 <= sel.lam <= 0.2 + 1e-9


def test_first_order_branch_agreement():
    cases = [
        (np.diag([-2.0, -2.0]), np.array([0.7, -0.4])),  # R < -eps_H
        (np.diag([0.1, 0.05]), np.array([2.0, 1.0])),  # |R| <= eps_H, big grad
    ]
    for H, g in cases:
        obj_a = quadratic_objective(H)
        obj_b = quadratic_objective(H)
        sel_a = select_direction_exact(obj_a, np.zeros(2), g, CFG)
        sel_b = select_direction_inexact(obj_b, np.zeros(2), g, CFG, rng_for(2), U_H=3.0)
        assert sel_a.kind == sel_b.kind
        assert np.allclose(sel_a.d, sel_b.d)


# --- direction invariants ----------------------------------------------------

def test_direction_invariants_on_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(200):
        A = rng.standard_normal((4, 4))
        H = 0.5 * (A + A.T)
        obj = quadratic_objective(H)
        x = rng.standard_normal(4)
        g = obj.gradient(x)
        sel = select_direction_exact(obj, x, g, CFG)
        if isinstance(sel, Terminate):
            continue
        dnorm = float(np.linalg.norm(sel.d))
        gnorm = float(np.linalg.norm(g))
        assert float(sel.d @ g) <= 1e-12 * max(dnorm * gnorm, 1.0)
        if sel.kind == StepKind.NORMALIZED_GRADIENT:
            assert dnorm == pytest.approx(np.sqrt(gnorm), rel=1e-12)
        if sel.kind in StepKind.CUBIC_CURVATURE:
            curv = float(sel.d @ H @ sel.d) / dnorm**2
            assert curv == pytest.approx(-dnorm, rel=1e-10)


def test_newton_branch_requires_definite_curvature(law_corpus):
    for run in law_corpus:
        for row in run.records:
            if row.step_kind in (StepKind.NEWTON,):
                assert row.lam > run.cfg.eps_H
            if row.step_kind == StepKind.INEXACT_NEWTON:
                assert row.lam > 1.5 * run.cfg.eps_H


# --- CG failure handling -----------------------------------------------------

def test_cg_nonpositive_curvature_falls_back_to_negative_curvature(monkeypatch):
    H = np.diag([2.0, -1.0])
    obj = quadratic_objective(H)
    g = np.array([1.0, 1.0])
    # The estimator lies: it claims definiteness.
    monkeypatch.setattr(sols.steps, "lanczos_min_eig", stub_lanczos(10.0, np.array([1.0, 0.0])))
    sel = select_direction_inexact(obj, np.zeros(2), g, CFG, rng_for(3), U_H=2.0)
    assert isinstance(sel, Direction)
    assert sel.kind == StepKind.NEGATIVE_CURVATURE
    assert sel.cg_fallback
    dnorm = float(np.linalg.norm(sel.d))
    assert float(sel.d @ H @ sel.d) / dnorm**2 == pytest.approx(-dnorm, rel=1e-10)
    assert float(sel.d @ g) <= 1e-12


def test_cg_zero_curvature_direction_raises(monkeypatch):
    H = np.diag([2.0, 0.0])
    obj = quadratic_objective(H)
    g = np.array([1.0, 1.0])
    monkeypatch.setattr(sols.steps, "lanczos_min_eig", stub_lanczos(10.0, np.array([1.0, 0.0])))
    with pytest.raises(IndefiniteSystemError):
        select_direction_inexact(obj, np.zeros(2), g, CFG, rng_for(4), U_H=2.0)


def test_cg_cap_reached_raises(monkeypatch):
    def capped_cg(apply_A, g, m, M, zeta, n):
        return CgOutcome(d=np.zeros_like(g), iters=n, final_residual_norm=1.0,
                         status="cap_reached")

    obj = quadratic_objective(np.diag([1.0, 2.0]))
    g = np.array([1.0, 0.0])
    monkeypatch.setattr(sols.steps, "lanczos_min_eig", stub_lanczos(1.0, np.array([1.0, 0.0])))
    monkeypatch.setattr(sols.steps, "cg_capped", capped_cg)
    with pytest.raises(CgCapError):
        select_direction_inexact(obj, np.zeros(2), g, CFG, rng_for(5), U_H=2.0)


# --- Newton CG in the Lanczos basis -----------------------------------------

# The CG shift of each Newton kind, in units of eps_H.
NEWTON_SHIFT = {StepKind.INEXACT_NEWTON: 0.0, StepKind.INEXACT_REGULARIZED_NEWTON: 2.0}


@dataclass
class SpiedRun:
    problem: object
    cfg: SolverConfig
    records: list
    # (x, g, Lanczos estimate or None, selection) of every selector call.
    calls: list


def spy_inexact(specs) -> list[SpiedRun]:
    """Inexact runs of ``(problem, cfg)`` specs, with the inputs, the Lanczos
    estimate and the result of every direction selection."""
    real_lanczos, real_select = sols.steps.lanczos_min_eig, sols.driver.select_direction_inexact
    calls, ests = [], []

    def lanczos(*args, **kwargs):
        ests.append(real_lanczos(*args, **kwargs))
        return ests[-1]

    def select(obj, x, g, cfg, rng, U_H, bound=None):
        ests.clear()
        sel = real_select(obj, x, g, cfg, rng, U_H, bound=bound)
        calls.append((np.array(x), np.array(g), ests[0] if ests else None, sel))
        return sel

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sols.steps, "lanczos_min_eig", lanczos)
        mp.setattr(sols.driver, "select_direction_inexact", select)
        for problem, cfg in specs:
            calls = []
            _, records = run_inexact(problem.make_objective(), problem.start_point(), cfg)
            runs.append(SpiedRun(problem, cfg, records, calls))
    return runs


@pytest.fixture(scope="module")
def spied_runs() -> list[SpiedRun]:
    """Spied inexact runs of every suite problem at its coverage config, of
    q50 at seeds 7 and 8, and of q50 at a Lanczos budget of 32 < n."""
    q50 = get_problem("quartic-saddle-50d")
    specs = [(p, p.coverage_config) for p in suite()]
    specs += [(q50, q50.coverage_config.with_updates(rng_seed=s)) for s in (7, 8)]
    specs.append((q50, q50.coverage_config.with_updates(eps_H=0.5, delta=0.1)))
    return spy_inexact(specs)


def test_newton_cg_after_a_full_span_lanczos_call_costs_no_products(spied_runs):
    # Each row's products: the curvature ratio, then Lanczos, then CG unless
    # Lanczos spanned R^n.
    paths = set()
    for run in spied_runs:
        n_hv = 0
        for row in run.records:
            expected = (row.R is not None) + (row.lanczos_iters or 0)
            if row.cg_iters is not None:
                full_span = row.lanczos_iters == run.problem.dim
                paths.add(full_span)
                expected += 0 if full_span else row.cg_iters
            assert row.n_hv - n_hv == expected, (run.problem.name, row.k)
            n_hv = row.n_hv
    assert paths == {True, False}


def test_newton_steps_in_the_lanczos_basis_meet_the_cg_target_in_x(spied_runs):
    checked = 0
    for run in spied_runs:
        cfg, obj = run.cfg, run.problem.make_objective()
        for x, g, est, sel in run.calls:
            if getattr(sel, "kind", None) not in NEWTON_SHIFT or est is None or est.basis is None:
                continue
            Q, n = est.basis, obj.dim
            assert np.abs(Q @ Q.T - np.eye(n)).max() <= 1e-12
            A = obj.dense_hessian(x) + NEWTON_SHIFT[sel.kind] * cfg.eps_H * np.eye(n)
            target = 0.5 * cfg.zeta * min(norm(g), cfg.eps_H * norm(sel.d))
            assert norm(A @ sel.d + g) <= target * (1.0 + 1e-6), (run.problem.name, x)
            checked += 1
    assert checked >= 20


# --- the curvature bound carried between calls ------------------------------

def decided_by_the_bound(est, sel) -> bool:
    """Whether a selector call took its second-order branch from the bound alone."""
    if est is not None:
        return False
    return isinstance(sel, Terminate) or (sel.kind in NEWTON_SHIFT and not sel.cg_fallback)


def test_the_curvature_bound_is_below_the_dense_spectrum(spied_runs):
    # The law configs on every suite problem, beside the spied runs (q50
    # seeds 7 and 8 among them). A certificate is the (x, lam) of a
    # Terminate or of a Newton step's selector call, so the calls cover it.
    runs = spied_runs + spy_inexact([(p, cfg) for p in suite() for cfg in LAW_CONFIGS])
    certified = newton = 0
    for run in runs:
        cfg, obj = run.cfg, run.problem.make_objective()
        for x, g, est, sel in run.calls:
            if not decided_by_the_bound(est, sel):
                continue
            H = obj.dense_hessian(x)
            assert np.linalg.eigvalsh(H)[0] >= sel.lam, (run.problem.name, x)
            if isinstance(sel, Terminate):
                certified += 1
                continue
            assert sel.kind == StepKind.INEXACT_NEWTON and sel.lanczos_iters is None
            target = 0.5 * cfg.zeta * min(norm(g), cfg.eps_H * norm(sel.d))
            assert norm(H @ sel.d + g) <= target * (1.0 + 1e-6), (run.problem.name, x)
            newton += 1
    assert certified >= 1 and newton >= 20


@pytest.mark.parametrize(
    "converged_by, lanczos_calls",
    [("full_n", 1), ("breakdown", 2), ("below_sigma", 2), ("lanczos_cap", 2)],
)
def test_only_a_full_span_estimate_sets_the_curvature_bound(
    converged_by, lanczos_calls, monkeypatch
):
    # R = 0.5 > eps_H and ||g|| > eps_g: each call needs the second-order
    # branch, and an estimate of 10 picks the plain Newton step.
    obj = quadratic_objective(np.diag([0.5, 1.0]))
    g = np.array([1.0, 0.0])
    ests = []

    def lanczos(hv, n, M, eps, delta, rng, sigma=None):
        ests.append(EigEstimate(lam=10.0, v_unit=np.array([0.0, 1.0]), iters=2,
                                converged_by=converged_by))
        return ests[-1]

    monkeypatch.setattr(sols.steps, "lanczos_min_eig", lanczos)
    bound = CurvatureBound(L_H=0.0)
    sels = [select_direction_inexact(obj, np.zeros(2), g, CFG, rng_for(0), U_H=1.0, bound=bound)
            for _ in range(2)]
    assert [sel.kind for sel in sels] == [StepKind.INEXACT_NEWTON] * 2
    assert len(ests) == lanczos_calls
    if converged_by == "full_n":
        assert bound.lam == 10.0 - 2 * sys.float_info.epsilon * 3.0
        assert (sels[1].lam, sels[1].lanczos_iters) == (bound.lam, None)
    else:
        assert bound.lam == -math.inf and sels[1].lanczos_iters == 2


def test_the_curvature_bound_falls_by_the_path_walked():
    bound = CurvatureBound(L_H=2.0, lam=1.0)
    x = np.zeros(2)
    assert bound.at(x) == 1.0
    # The bound keeps its own copy of the point it saw.
    x[0] = 3.0
    assert bound.at(x) == 1.0 - 2.0 * 3.0
    # Back to the start: the path is 3 + 3, not the chord 0.
    assert bound.at(np.zeros(2)) == 1.0 - 2.0 * 6.0


def test_a_convex_quadratic_makes_one_lanczos_call(spied_runs):
    # L_H = 0: the first full-span call decides every later branch.
    (run,) = [r for r in spied_runs if r.problem.name == "quad-convex-10d"]
    assert run.cfg == run.problem.coverage_config
    assert sum(est is not None for _x, _g, est, _sel in run.calls) == 1
    assert len(run.calls) > 1


def saddle_2d(L_H: float) -> Objective:
    """f = (y^2 - 1/2) x^2 / 2 + x^4/4 + y^2/2 + y^4/4, with the declared ``L_H``.

    A saddle at 0 and minimizers at (+-1/sqrt 2, 0). From (0, 2) the true
    L_H along the path is at least ~12, since dH_yy/dy = 6y.
    """

    def hessian(p):
        x, y = p
        return np.array([[y * y - 0.5 + 3.0 * x * x, 2.0 * x * y],
                         [2.0 * x * y, x * x + 1.0 + 3.0 * y * y]])

    return Objective(
        dim=2,
        value=lambda p: 0.5 * (p[1] ** 2 - 0.5) * p[0] ** 2 + p[0] ** 4 / 4
        + p[1] ** 2 / 2 + p[1] ** 4 / 4,
        gradient=lambda p: np.array([(p[1] ** 2 - 0.5) * p[0] + p[0] ** 3,
                                     p[0] ** 2 * p[1] + p[1] + p[1] ** 3]),
        hessian_vector=lambda p, v: hessian(p) @ v,
        dense_hessian=hessian,
        constants=ProblemConstants(L_H, 100.0, 100.0, -1.0),
    )


UNDERSTATED_L_H = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: the carried curvature bound trusts the declared L_H, "
    "so an understated one certifies the saddle at 0",
)


@pytest.mark.parametrize(
    "L_H",
    [
        pytest.param(1e-6, marks=UNDERSTATED_L_H),
        pytest.param(1.0, marks=UNDERSTATED_L_H),
        4.0,
        30.0,
    ],
)
def test_an_inexact_certificate_passes_the_dense_oracle(L_H):
    obj = saddle_2d(L_H)
    cfg = SolverConfig()
    report, _records = run_inexact(obj, np.array([0.0, 2.0]), cfg)
    assert report.status == "converged"
    point = report.certificate.point
    assert np.linalg.eigvalsh(obj.dense_hessian(point))[0] >= -cfg.eps_H, point


@pytest.mark.parametrize(
    "H, cfg, converged_by",
    [
        # Two distinct eigenvalues: the Krylov space is invariant after 2 of 6.
        (np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]), SolverConfig(eps_g=0.5, eps_H=0.25),
         "breakdown"),
        # log(50 / 0.1^2) / (2 sqrt 2) sqrt(4 / 0.25) gives a budget of 13 < 50.
        (np.diag(np.linspace(1.0, 2.0, 50)), SolverConfig(eps_g=0.5, eps_H=0.5, delta=0.1),
         "lanczos_cap"),
        (np.diag(np.linspace(1.0, 2.0, 50)), SolverConfig(eps_g=0.5, eps_H=0.5, delta=0.0),
         "full_n"),
    ],
)
def test_newton_cg_pays_products_unless_lanczos_spanned_the_space(H, cfg, converged_by):
    obj = quadratic_objective(H)
    x = np.ones(H.shape[0])
    ests = []

    def lanczos(*args, **kwargs):
        ests.append(lanczos_min_eig(*args, **kwargs))
        return ests[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sols.steps, "lanczos_min_eig", lanczos)
        sel = select_direction_inexact(obj, x, obj.gradient(x), cfg, rng_for(3), U_H=2.0)
    assert sel.kind == StepKind.INEXACT_NEWTON and sel.cg_iters >= 1
    assert np.allclose(H @ sel.d, -obj.gradient(x), rtol=0.0, atol=cfg.zeta * norm(H @ x))
    assert ests[0].converged_by == converged_by
    cg_products = 0 if converged_by == "full_n" else sel.cg_iters
    assert obj.counters.n_hv == 1 + sel.lanczos_iters + cg_products


def test_negative_curvature_step_stops_lanczos_below_minus_half_eps_H():
    # At g = 0 the selector goes straight to Lanczos, which stops at a Ritz
    # value below -eps_H/2 in fewer than n products; the step still has the
    # curvature d'Hd = -||d||^3.
    H = np.diag(np.linspace(-1.0, 1.0, 40))
    obj = quadratic_objective(H)
    cfg = SolverConfig(eps_g=0.5, eps_H=0.25, delta=0.0)
    sel = select_direction_inexact(obj, np.zeros(40), np.zeros(40), cfg, rng_for(5), U_H=1.0)
    assert sel.kind == StepKind.NEGATIVE_CURVATURE and sel.lam < -0.5 * cfg.eps_H
    assert obj.counters.n_hv == sel.lanczos_iters < 40
    dnorm = norm(sel.d)
    assert float(sel.d @ H @ sel.d) == pytest.approx(-dnorm**3, rel=1e-12)


def test_basis_cg_nonpositive_curvature_maps_back_to_x(monkeypatch):
    # The estimator lies about definiteness, but hands over a true basis:
    # CG finds the negative curvature in Lanczos coordinates, and the step
    # has the unshifted curvature -||d|| along d in x.
    H = np.diag([2.0, -1.0, 3.0, 0.5])
    obj = quadratic_objective(H)
    g = np.array([1.0, 1.0, 1.0, 1.0])

    def lying_lanczos(*args, sigma=None):
        # Without sigma: the lie is a full-span estimate, which has a basis.
        est = lanczos_min_eig(*args)
        assert est.basis is not None
        est.lam = 10.0
        return est

    monkeypatch.setattr(sols.steps, "lanczos_min_eig", lying_lanczos)
    sel = select_direction_inexact(obj, np.zeros(4), g, CFG, rng_for(3), U_H=3.0)
    assert sel.kind == StepKind.NEGATIVE_CURVATURE and sel.cg_fallback
    assert obj.counters.n_hv == 1 + 4
    dnorm = norm(sel.d)
    assert float(sel.d @ H @ sel.d) / dnorm**2 == pytest.approx(-dnorm, rel=1e-10)
    assert sel.lam == pytest.approx(float(sel.d @ H @ sel.d) / dnorm**2, rel=1e-10)
    assert float(sel.d @ g) <= 0.0


# --- config validation -------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps_g": 2.0},
        {"eps_g": 0.0},
        {"eps_H": 1.0},
        {"theta": 1.0},
        {"eta": 0.0},
        {"zeta": 1.0},
        {"delta": -0.1},
        {"U_H": 0.0},
        {"max_iters": 0},
        {"max_ls_steps": 0},
        {"max_iters": 2.5},
        {"max_iters": 3.0},
        {"max_ls_steps": 40.5},
        {"max_ls_steps": True},
        {"rng_seed": -1},
        {"rng_seed": 1.5},
        {"rng_seed": False},
        {"rng_seed": np.float64(2.0)},
    ],
)
def test_config_validation_rejects_out_of_range(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(**kwargs).validate()


@pytest.mark.parametrize(
    "field, value",
    [("max_iters", 2.5), ("max_ls_steps", 40.5), ("rng_seed", -1), ("rng_seed", 1.5)],
)
def test_config_error_names_the_integer_field_before_any_evaluation(field, value):
    p = get_problem("quad-convex-2d")
    cfg = SolverConfig(**{field: value})
    for run in (run_exact, run_inexact):
        obj = p.make_objective()
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            run(obj, p.start_point(), cfg)
        assert obj.counters.snapshot() == EvalCounters()


def test_config_accepts_numpy_integers():
    SolverConfig(max_iters=np.int64(5), max_ls_steps=np.int32(60), rng_seed=np.uint64(3)).validate()


def test_config_defaults_valid():
    SolverConfig().validate()
