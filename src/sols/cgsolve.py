"""Linear solvers for Newton-type systems: eigendecomposition solves and capped CG."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import EigEstimate
from .operators import Array, NonFiniteError, pow_or_inf

CURVATURE_TOL = 1e-14  # p'Ap <= tol * ||p||^2 counts as nonpositive curvature


class CgCapError(RuntimeError):
    """CG hit its iteration cap without meeting the stopping criterion."""


@dataclass
class CgOutcome:
    """Result of a capped conjugate-gradient solve of A d = -g.

    On ``converged`` the residual satisfies the two-sided criterion
    ||A d + g|| <= (zeta/2) min(||g||, m ||d||). On ``nonpositive_curvature``
    the violating search direction and its curvature are exposed so the
    caller can recover a descent direction from them. Each exit of
    ``cg_capped`` builds its own outcome.
    """

    d: Array
    iters: int
    final_residual_norm: float
    status: str  # "converged", "cap_reached", or "nonpositive_curvature"
    p: Array | None = None
    p_curvature: float | None = None


def solve_exact(est: EigEstimate, g: Array, shift: float = 0.0) -> Array:
    """Solve (H + shift I) d = -g from the estimate ``min_eigenpair_exact(H)``.

    Its basis Q and diagonal w give H = Q' diag(w) Q, so d = Q' z with
    z = -(Q g) / (w + shift), and H is not factored a second time. The
    callers' branch conditions keep the smallest eigenvalue w[0] + shift above
    zero (at least eps_H); one at or below zero signals a violated branch
    condition and raises ``np.linalg.LinAlgError``.
    """
    w = est.bands[0] + shift
    if not w[0] > 0.0:
        raise np.linalg.LinAlgError(f"H + shift I is not positive definite: lambda_min {w[0]:.3e}")
    Q = est.basis
    z = -Q.dot(g) / w
    return z.dot(Q)


def cg_iteration_cap(n: int, m: float, M: float, zeta: float) -> int:
    """A-priori CG budget from the condition-number bound kappa = M/m."""
    if m <= 0.0:
        raise ValueError("m must be positive")
    if zeta <= 0.0:
        # An exact solve is demanded; plain CG delivers it in n steps.
        return n
    kappa = max(M / m, 1.0)
    cap = 0.5 * math.sqrt(kappa) * math.log(4.0 * pow_or_inf(kappa, 1.5) / zeta)
    return n if not cap < n else max(1, math.ceil(cap))


def cg_capped(
    apply_A,
    g: Array,
    m: float,
    M: float,
    zeta: float,
    n: int,
) -> CgOutcome:
    """Conjugate gradient for A d = -g with a two-sided stop and a hard cap.

    The caller certifies m I <= A <= M I. After every iteration (never at
    the zero initial iterate, where the m||d|| side is vacuous) the
    residual test ||A d + g|| <= (zeta/2) min(||g||, m ||d||) is applied.
    The curvature of every search direction is checked; nonpositive
    curvature aborts the solve and surfaces the direction, and a non-finite
    one raises ``NonFiniteError``. ``apply_A`` is passed the search direction,
    which is then updated in place, so it must not keep its argument.

    Each exit returns its own ``CgOutcome``: nonpositive curvature or
    convergence at iteration q, or the cap after ``cap`` iterations, with
    the residual norm of the last iterate (||g|| before the first).
    """
    g = np.asarray(g, dtype=float)
    r = g.copy()  # residual of A d + g at d = 0
    rr = float(r.dot(r))
    gnorm = math.sqrt(rr)
    if gnorm == 0.0:
        raise ValueError("cg_capped requires a nonzero right-hand side")

    cap = cg_iteration_cap(n, m, M, zeta)
    d = np.zeros_like(g)
    p = -r
    rnorm = gnorm

    for q in range(1, cap + 1):
        Ap = np.asarray(apply_A(p), dtype=float)
        pAp = float(p.dot(Ap))
        if not math.isfinite(pAp):
            raise NonFiniteError(f"non-finite curvature p'Ap in CG iteration {q}")
        if pAp <= CURVATURE_TOL * float(p.dot(p)):
            return CgOutcome(d, q, rnorm, "nonpositive_curvature", p=p, p_curvature=pAp)
        alpha = rr / pAp
        d += alpha * p
        r += alpha * Ap
        rr_new = float(r.dot(r))
        rnorm = math.sqrt(rr_new)
        dnorm = math.sqrt(float(d.dot(d)))
        if rnorm <= 0.5 * zeta * min(gnorm, m * dnorm):
            return CgOutcome(d, q, rnorm, "converged")
        # t - r, the same IEEE result as -r + t.
        p *= rr_new / rr
        p -= r
        rr = rr_new

    return CgOutcome(d, cap, rnorm, "cap_reached")

