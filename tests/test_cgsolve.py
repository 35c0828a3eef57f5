"""Exact solves from an eigendecomposition and capped conjugate gradient."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

import sols.driver
import sols.steps
from sols import (
    CgOutcome, NonFiniteError, SolverConfig, StepKind, cg_capped, cg_iteration_cap, get_problem,
    min_eigenpair_exact, run_exact, solve_exact,
)
from sols.cgsolve import CURVATURE_TOL

from conftest import bench_hessians, cg_iterates


def reference_cg(A: np.ndarray, g: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Independent factorization-free oracle for A d = -g, run to roundoff."""
    d = np.zeros_like(g)
    r = g.copy()
    p = -r
    rr = float(r @ r)
    for _ in range(10 * g.size):
        Ap = A @ p
        alpha = rr / float(p @ Ap)
        d = d + alpha * p
        r = r + alpha * Ap
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= tol * np.linalg.norm(g):
            break
        p = -r + (rr_new / rr) * p
        rr = rr_new
    return d


def operator(A):
    return lambda v: A @ v


def test_solve_exact_identity():
    d = solve_exact(min_eigenpair_exact(np.eye(2)), np.array([2.0, -2.0]))
    assert np.allclose(d, [-2.0, 2.0], atol=1e-14)


def test_solve_exact_diagonal_with_shift():
    d = solve_exact(min_eigenpair_exact(np.diag([-0.5, 3.0])), np.array([1.0, 1.0]), shift=2.0)
    assert np.allclose(d, [-1.0 / 1.5, -0.2], atol=1e-14)


def test_solve_exact_matches_cg_oracle():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((20, 20))
    H = A @ A.T + 0.5 * np.eye(20)
    g = rng.standard_normal(20)
    d = solve_exact(min_eigenpair_exact(H), g)
    assert np.allclose(d, reference_cg(H, g), atol=1e-9 * np.linalg.norm(d))


def test_solve_exact_indefinite_raises():
    with pytest.raises(scipy.linalg.LinAlgError):
        solve_exact(min_eigenpair_exact(np.diag([1.0, -1.0])), np.ones(2))


# --- capped CG ------------------------------------------------------------------

def test_identity_system_converges_in_one_step():
    out = cg_capped(operator(np.eye(3)), np.array([1.0, 2.0, 3.0]), m=1.0, M=1.0,
                    zeta=0.5, n=3)
    assert out.status == "converged"
    assert out.iters == 1
    assert out.final_residual_norm <= 1e-14
    assert np.allclose(out.d, [-1.0, -2.0, -3.0])


def test_diagonal_system_within_cap():
    A = np.diag(np.arange(1.0, 11.0))
    g = np.ones(10)
    assert cg_iteration_cap(10, 1.0, 10.0, 0.1) == 10  # formula value 11.3 caps at n
    out = cg_capped(operator(A), g, m=1.0, M=10.0, zeta=0.1, n=10)
    assert out.status == "converged"
    assert out.iters <= 10


def test_nonpositive_curvature_detected_first_direction():
    A = np.diag([-1.0, 2.0])
    out = cg_capped(operator(A), np.array([1.0, 0.0]), m=0.5, M=2.0, zeta=0.5, n=2)
    assert out.status == "nonpositive_curvature"
    assert out.iters == 1
    assert out.p_curvature <= 0.0


def test_nonpositive_curvature_detected_second_direction():
    A = np.diag([-1.0, 2.0])
    out = cg_capped(operator(A), np.array([1.0, 1.0]), m=0.5, M=2.0, zeta=0.5, n=2)
    assert out.status == "nonpositive_curvature"
    assert out.iters == 2
    assert float(out.p @ A @ out.p) <= 0.0


def test_zero_rhs_rejected():
    with pytest.raises(ValueError):
        cg_capped(operator(np.eye(2)), np.zeros(2), m=1.0, M=1.0, zeta=0.5, n=2)


def test_two_sided_stopping_criterion_on_converged():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        spectrum = rng.uniform(0.5, 8.0, size=n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(spectrum) @ Q.T
        m, M = float(spectrum.min()), float(spectrum.max())
        g = rng.standard_normal(n)
        zeta = float(rng.uniform(0.05, 0.9))
        out = cg_capped(operator(A), g, m=m, M=M, zeta=zeta, n=n)
        assert out.status == "converged"
        resid = np.linalg.norm(A @ out.d + g)
        bound = 0.5 * zeta * min(np.linalg.norm(g), m * np.linalg.norm(out.d))
        assert resid <= bound + 1e-10 * np.linalg.norm(g)
        assert out.iters <= cg_iteration_cap(n, m, M, zeta)


def test_residual_envelope_and_direction_norm_floor():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        spectrum = rng.uniform(0.2, 12.0, size=n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(spectrum) @ Q.T
        m, M = float(spectrum.min()), float(spectrum.max())
        g = rng.standard_normal(n)
        out = cg_capped(operator(A), g, m=m, M=M, zeta=0.2, n=n)
        history = cg_iterates(operator(A), g, m, M, 0.2, out.iters)
        assert np.array_equal(history[-1].d, out.d)
        assert history[-1].final_residual_norm == out.final_residual_norm
        kappa = M / m
        gnorm = np.linalg.norm(g)
        rho = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
        for q, it in enumerate(history, start=1):
            envelope = 2.0 * np.sqrt(kappa) * rho**q * gnorm
            assert it.final_residual_norm <= envelope * (1.0 + 1e-10) + 1e-12
            assert np.linalg.norm(it.d) >= gnorm / M - 1e-12


def residual_orthogonality_probe(residuals: list[np.ndarray]) -> float:
    """Max normalized pairwise inner product of recorded CG residuals.

    Exact CG produces mutually orthogonal residuals; this probe quantifies
    how far a recorded trace drifts from that. Residuals at the roundoff
    floor (a terminal residual on an exactly solved system is pure noise)
    carry no directional information and are excluded. Traces with fewer
    than two informative residuals are vacuously orthogonal.
    """
    norms = [float(np.linalg.norm(r)) for r in residuals]
    floor = 1e-12 * max(norms, default=0.0)
    live = [r for r, n in zip(residuals, norms) if n > floor]
    if len(live) < 2:
        return 0.0
    worst = 0.0
    for i in range(len(live)):
        for j in range(i + 1, len(live)):
            ni = float(np.linalg.norm(live[i]))
            nj = float(np.linalg.norm(live[j]))
            worst = max(worst, abs(float(live[i] @ live[j])) / (ni * nj))
    return worst


def test_orthogonality_probe_on_spd_system():
    rng = np.random.default_rng(3)
    A5 = rng.standard_normal((5, 5))
    A = A5 @ A5.T + np.eye(5)
    g = rng.standard_normal(5)
    M = float(np.linalg.norm(A, 2))
    out = cg_capped(operator(A), g, m=0.5, M=M, zeta=0.01, n=5)
    history = cg_iterates(operator(A), g, 0.5, M, 0.01, out.iters)
    assert residual_orthogonality_probe([A @ it.d + g for it in history]) <= 1e-8


def test_orthogonality_probe_trivial_traces():
    assert residual_orthogonality_probe([]) == 0.0
    assert residual_orthogonality_probe([np.array([1.0, 0.0])]) == 0.0
    g = np.ones(2)
    out = cg_capped(operator(np.eye(2)), g, m=1.0, M=1.0, zeta=0.5, n=2)
    history = cg_iterates(operator(np.eye(2)), g, 1.0, 1.0, 0.5, out.iters)
    assert residual_orthogonality_probe([it.d + g for it in history]) == 0.0


def test_cap_formula_guards():
    assert cg_iteration_cap(7, 1.0, 4.0, 0.0) == 7  # zeta = 0 demands an exact solve
    with pytest.raises(ValueError):
        cg_iteration_cap(7, 0.0, 4.0, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_curvature_raises(bad):
    def apply_A(p):
        out = p.copy()
        out[1] = bad
        return out

    with pytest.raises(NonFiniteError, match="CG iteration 1"):
        cg_capped(apply_A, np.array([1.0, 2.0, 3.0]), m=0.5, M=2.0, zeta=0.5, n=3)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 60])
@pytest.mark.parametrize("shift", [0.0, 2.0])
def test_solve_exact_matches_cho_solve_oracle(n, shift):
    rng = np.random.default_rng(1000 * n + int(shift))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    # With a shift the matrix itself may be indefinite; H + shift I is not.
    low = 0.5 - shift
    H = (Q * rng.uniform(low, low + 50.0, n)) @ Q.T
    H = 0.5 * (H + H.T)
    g = rng.standard_normal(n)
    d = solve_exact(min_eigenpair_exact(H), g, shift)
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H + shift * np.eye(n)), -g)
    assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_exact_shift_below_spectrum_raises():
    with pytest.raises(np.linalg.LinAlgError):
        solve_exact(min_eigenpair_exact(np.diag([-3.0, 1.0])), np.ones(2), shift=2.0)


# ||(H + shift I) d + g|| <= C n eps_mach ||H + shift I|| ||d||: the residual a
# solve through a backward-stable eigendecomposition leaves, at any condition.
RESIDUAL_C = 4.0


def residual_in_rounding_units(H, g, shift, d) -> float:
    """||(H + shift I) d + g|| over n eps_mach ||H + shift I||_2 ||d||."""
    n = len(g)
    A = H + shift * np.eye(n)
    scale = n * np.finfo(float).eps * np.linalg.norm(A, 2) * np.linalg.norm(d)
    return float(np.linalg.norm(A @ d + g) / scale)


@pytest.mark.parametrize("n", [2, 10, 50])
@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("shift", [0.0, 2.0])
def test_solve_exact_residual_is_at_rounding_level(n, kappa, shift):
    rng = np.random.default_rng([n, int(math.log10(kappa)), int(shift)])
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # H + shift I is positive definite with eigenvalues from 1 to 1/kappa.
        H = (Q * (np.geomspace(1.0, 1.0 / kappa, n) - shift)) @ Q.T
        H = 0.5 * (H + H.T)
        g = rng.standard_normal(n)
        d = solve_exact(min_eigenpair_exact(H), g, shift)
        assert residual_in_rounding_units(H, g, shift, d) <= RESIDUAL_C


def test_solve_exact_residual_on_rosenbrock_newton_rows(monkeypatch):
    # Every Newton system of an exact and an exact-local run on rosenbrock-10d
    # at the benchmark's tolerances, with the Hessian each one was solved for.
    systems = []
    for module in (sols.steps, sols.driver):
        def eig(H, real=module.min_eigenpair_exact):
            systems.append([H])
            return real(H)

        def solve(est, g, shift, real=module.solve_exact):
            d = real(est, g, shift)
            systems[-1] += [g, shift, d]
            return d

        monkeypatch.setattr(module, "min_eigenpair_exact", eig)
        monkeypatch.setattr(module, "solve_exact", solve)
    problem = get_problem("rosenbrock-10d")
    cfg = SolverConfig(eps_g=1e-5, eps_H=1e-2)
    newton_rows = 0
    for local_phase in (False, True):
        _, records = run_exact(problem.make_objective(), problem.start_point(), cfg, local_phase)
        newton_rows += sum(r.step_kind in StepKind.NEWTON_LIKE for r in records)
    solved = [system for system in systems if len(system) == 4]
    # The exact-local run ends in its known stall: its last system has no row.
    assert len(solved) == newton_rows + 1 > 20
    for H, g, shift, d in solved:
        assert residual_in_rounding_units(H, g, shift, d) <= RESIDUAL_C


# --- bitwise equality with the matmul loop ---------------------------------------

def matmul_cg_capped(apply_A, g, m, M, zeta, n):
    """Capped CG as written with ``@`` and fresh arrays before it moved to
    ``ndarray.dot`` and in-place updates. The rewrite does the same
    floating-point operations in the same order, so the two agree bit for bit."""
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))
    d = np.zeros_like(g)
    r = g.copy()
    p = -r
    rr = float(r @ r)
    outcome = CgOutcome(d=d, iters=0, final_residual_norm=gnorm, status="cap_reached")
    for q in range(1, cg_iteration_cap(n, m, M, zeta) + 1):
        Ap = np.asarray(apply_A(p), dtype=float)
        pAp = float(p @ Ap)
        if pAp <= CURVATURE_TOL * float(p @ p):
            outcome.status = "nonpositive_curvature"
            outcome.p = p
            outcome.p_curvature = pAp
            outcome.iters = q
            return outcome
        alpha = rr / pAp
        d = d + alpha * p
        r = r + alpha * Ap
        rr_new = float(r @ r)
        rnorm = math.sqrt(rr_new)
        dnorm = math.sqrt(float(d @ d))
        outcome.d = d
        outcome.iters = q
        outcome.final_residual_norm = rnorm
        if rnorm <= 0.5 * zeta * min(gnorm, m * dnorm):
            outcome.status = "converged"
            return outcome
        p = -r + (rr_new / rr) * p
        rr = rr_new
    return outcome


def shifted(hv, shift):
    """``v -> H v + shift v``, the operator the inexact loop hands CG."""
    return lambda v: hv(v) if shift == 0.0 else hv(v) + shift * v


def _bitwise_cases():
    """``(id, apply_A, g, m, M, zeta, n)``."""
    rng = np.random.default_rng(21)
    for name, hv, n, U_H in bench_hessians():
        g = rng.standard_normal(n)
        # Shifts 0 and 2 eps_H as in the inexact loop, then one past -lambda_min.
        for shift in (0.0, 0.02, U_H):
            yield f"{name}-shift{shift:g}", shifted(hv, shift), g, 0.01, U_H + shift, 0.5, n
    for n in (1, 2, 5, 50, 100):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = rng.uniform(0.5, 8.0, n)
        A = (Q * spectrum) @ Q.T
        g = rng.standard_normal(n)
        m, M = float(spectrum.min()), float(spectrum.max())
        for zeta in (0.5, 1e-3):
            yield f"spd-n{n}-zeta{zeta:g}", operator(A), g, m, M, zeta, n
        # A cap of two iterations below the needed count.
        yield f"spd-n{n}-cap", operator(A), g, m, M, 1e-9, min(n, 2)
        indefinite = (Q * rng.uniform(-1.0, 8.0, n)) @ Q.T
        yield f"indefinite-n{n}", operator(indefinite), g, 0.5, 8.0, 0.1, n
    npc = np.diag([-1.0, 2.0])
    yield "npc-first-direction", operator(npc), np.array([1.0, 0.0]), 0.5, 2.0, 0.5, 2
    yield "npc-second-direction", operator(npc), np.array([1.0, 1.0]), 0.5, 2.0, 0.5, 2
    yield "apply-returns-argument", lambda p: p, rng.standard_normal(7), 1.0, 1.0, 0.5, 7


BITWISE_CASES = list(_bitwise_cases())


def _same_bytes(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "apply_A, g, m, M, zeta, n", [pytest.param(*c[1:], id=c[0]) for c in BITWISE_CASES]
)
def test_bitwise_equal_to_matmul_loop(apply_A, g, m, M, zeta, n):
    ref = matmul_cg_capped(apply_A, g, m, M, zeta, n)
    out = cg_capped(apply_A, g, m, M, zeta, n)
    assert (out.status, out.iters) == (ref.status, ref.iters)
    assert _same_bytes(out.d, ref.d)
    assert _same_bytes(out.final_residual_norm, ref.final_residual_norm)
    assert _same_bytes(out.p, ref.p)
    assert _same_bytes(out.p_curvature, ref.p_curvature)


def test_bitwise_cases_reach_every_exit():
    exits = set()
    for _, apply_A, g, m, M, zeta, n in BITWISE_CASES:
        out = cg_capped(apply_A, g, m, M, zeta, n)
        exits.add(out.status if out.status != "nonpositive_curvature"
                  else f"npc-q{min(out.iters, 2)}")
    assert exits == {"converged", "cap_reached", "npc-q1", "npc-q2"}
