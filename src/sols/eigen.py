"""Minimum-eigenpair computation: exact dense path and randomized Lanczos."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import NonFiniteError

Array = np.ndarray


@dataclass
class EigEstimate:
    """A minimum-eigenvalue estimate with its unit direction.

    ``lam`` is the exact smallest eigenvalue on the dense path, and the
    Rayleigh quotient v'Hv of the returned unit vector on the Lanczos path
    (an upper bound on the true minimum in either case). ``iters`` counts
    Lanczos matrix-vector products, summed across restarts; ``restarts``
    counts the fresh start vectors drawn after a Krylov breakdown.
    """

    lam: float
    v_unit: Array
    iters: int
    converged_by: str  # "exact", "lanczos_cap", or "full_n"
    restarts: int = 0
    ritz_values: list[float] | None = None


def min_eigenpair_exact(H: Array) -> EigEstimate:
    """Smallest eigenpair of a dense symmetric matrix via full eigendecomposition."""
    H = np.asarray(H, dtype=float)
    scale = float(np.max(np.abs(H))) if H.size else 0.0
    if not math.isfinite(scale):
        raise NonFiniteError("non-finite entry in the dense Hessian")
    asym = float(np.max(np.abs(H - H.T))) if H.size else 0.0
    if asym > 1e-10 * max(scale, 1.0):
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
    w, V = np.linalg.eigh(H)
    v = V[:, 0]
    v = v / np.linalg.norm(v)
    return EigEstimate(lam=float(w[0]), v_unit=v, iters=0, converged_by="exact")


def lanczos_iteration_cap(n: int, M: float, eps: float, delta: float) -> int:
    """Iteration budget for the randomized estimator.

    ``delta = 0`` demands the probability-one regime and forces a full
    n-dimensional Krylov space. Fractional budgets round up.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if delta == 0.0:
        return n
    cap = math.log(n / delta**2) / (2.0 * math.sqrt(2.0)) * math.sqrt(M / eps)
    return min(n, max(1, math.ceil(cap)))


def _ritz_max(alphas: list[float], betas: list[float]) -> tuple[float, Array]:
    """Largest eigenpair of the tridiagonal matrix built from the recurrence."""
    # Imported here, not at module level: only the Lanczos path pays its load time.
    from scipy.linalg import eigh_tridiagonal

    k = len(alphas)
    w, Y = eigh_tridiagonal(
        alphas, betas[: k - 1], select="i", select_range=(k - 1, k - 1)
    )
    return float(w[0]), Y[:, 0]


def lanczos_min_eig(
    hv,
    n: int,
    M: float,
    eps: float,
    delta: float,
    rng: np.random.Generator,
    track_ritz: bool = False,
) -> EigEstimate:
    """Estimate the smallest eigenvalue of H through products v -> H v.

    Runs the Lanczos iteration on the shifted operator v -> M v - H v (so
    that the target becomes the largest eigenvalue of a positive
    semidefinite matrix) from a start vector drawn uniformly on the unit
    sphere. The caller guarantees ``M >= ||H||``. The returned ``lam`` is
    the Rayleigh quotient of the returned unit vector, which satisfies
    lam <= lambda_min(H) + eps with probability at least 1 - delta within
    the iteration budget.

    The basis is fully reorthogonalized (budgets are small at this scale).
    It lives in one preallocated ``(budget, n)`` array, row k holding the
    k-th Lanczos vector, next to a second one holding the products H v_k,
    so a call holds ``2 * budget * n`` floats and the Ritz vector's
    Rayleigh quotient needs no extra product. Only the largest Ritz pair
    of the tridiagonal matrix is computed, by ``eigh_tridiagonal``.

    A breakdown means the Krylov space became exactly invariant; we restart
    from a fresh random vector at most 3 times, reusing both arrays and
    sharing the remaining budget so the total product count never exceeds
    the cap, and keep the best estimate seen. A product that makes the
    recurrence non-finite raises ``NonFiniteError``.
    """
    budget = lanczos_iteration_cap(n, M, eps, delta)
    breakdown_tol = 1e-13 * max(1.0, 2.0 * abs(M))
    V = np.empty((budget, n))
    HV = np.empty((budget, n))

    best_lam = math.inf
    best_v: Array | None = None
    total_iters = 0
    sweeps = 0
    ritz_history: list[float] = []

    while total_iters < budget and sweeps <= 3:
        sweeps += 1
        alphas: list[float] = []
        betas: list[float] = []
        sweep_ritz: list[float] = []

        v = rng.standard_normal(n)
        nv = np.linalg.norm(v)
        while nv == 0.0:
            v = rng.standard_normal(n)
            nv = np.linalg.norm(v)
        v = v / nv

        k = 0
        broke = False
        while total_iters < budget:
            V[k] = v
            hvk = HV[k]
            hvk[:] = hv(v)
            w = M * v
            w -= hvk
            alpha = float(v @ w)
            if not math.isfinite(alpha):
                raise NonFiniteError(
                    f"non-finite Hessian-vector product in Lanczos step {total_iters}"
                )
            alphas.append(alpha)
            k += 1
            total_iters += 1

            w -= alpha * v
            if k > 1:
                w -= betas[-1] * V[k - 2]
            # Full reorthogonalization against the stored basis.
            Vk = V[:k]
            w -= Vk.T @ (Vk @ w)

            if track_ritz:
                sweep_ritz.append(_ritz_max(alphas, betas)[0])

            beta = math.sqrt(float(w @ w))
            if beta <= breakdown_tol:
                broke = True
                break
            betas.append(beta)
            v = w / beta

        _, y = _ritz_max(alphas, betas)
        v_ritz = y @ V[:k]
        nv = float(np.linalg.norm(v_ritz))
        if nv > 0.0:
            lam = float(v_ritz @ (y @ HV[:k])) / (nv * nv)
            if lam < best_lam:
                best_lam = lam
                best_v = v_ritz / nv
                ritz_history = sweep_ritz

        if not broke:
            break

    assert best_v is not None
    return EigEstimate(
        lam=best_lam,
        v_unit=best_v,
        iters=total_iters,
        converged_by="full_n" if total_iters >= n else "lanczos_cap",
        restarts=sweeps - 1,
        ritz_values=ritz_history if track_ritz else None,
    )
