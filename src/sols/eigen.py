"""Minimum-eigenpair computation: exact dense path and randomized Lanczos."""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .operators import Array, NonFiniteError, norm


@dataclass
class EigEstimate:
    """A minimum-eigenvalue estimate with its unit direction.

    ``lam`` is the exact smallest eigenvalue on the dense path. On the
    Lanczos path it is the smallest Ritz value, the quantity the
    Kuczynski-Wozniakowski bound is stated for, which equals the Rayleigh
    quotient v'Hv of the returned unit vector up to rounding (an upper bound
    on the true minimum in either case). ``iters`` counts Lanczos
    matrix-vector products. ``converged_by`` says where the estimate
    stopped: "exact" on the dense path; on the Lanczos path "full_n" after
    n products, "lanczos_cap" at a budget below n, "breakdown" where the
    Krylov space became invariant before the budget, and "below_sigma" at
    the early stop of a call given a threshold ``sigma``: a Ritz value
    below it with a small residual.

    ``basis`` holds n orthonormal rows Q, and ``bands`` the diagonal and
    off-diagonal of the tridiagonal T = Q H Q'. On an "exact" estimate Q
    holds the eigenvectors of H and T is diagonal, the eigenvalues ascending
    with zero off-diagonal; on a "full_n" one Q holds the Lanczos vectors.
    Both are None on every other estimate.
    """

    lam: float
    v_unit: Array
    iters: int
    converged_by: str
    basis: Array | None = None
    bands: tuple[Array, Array] | None = None


def min_eigenpair_exact(H: Array) -> EigEstimate:
    """Smallest eigenpair of a dense symmetric matrix via full eigendecomposition.

    The matrix counts as symmetric when its largest asymmetry is at most
    1e-10 times its largest entry, at any scale. The estimate keeps the whole
    decomposition H = V diag(w) V': ``basis`` is V' and ``bands`` is
    (w, zeros), so a caller solves with H + shift I without factoring H again.
    """
    H = np.asarray(H, dtype=float)
    scale = float(np.abs(H).max())
    if not math.isfinite(scale):
        raise NonFiniteError("non-finite entry in the dense Hessian")
    asym = float(np.abs(H - H.T).max())
    if asym > 1e-10 * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
    w, V = np.linalg.eigh(H)
    v = V[:, 0]
    v = v / norm(v)
    return EigEstimate(
        lam=float(w[0]), v_unit=v, iters=0, converged_by="exact",
        basis=V.T, bands=(w, np.zeros(len(w) - 1)),
    )


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
    cap = log_n_over_delta_sq(n, delta) / (2.0 * math.sqrt(2.0)) * math.sqrt(M / eps)
    # Not below n, an overflow to inf or NaN included: the cap binds at n.
    return n if not cap < n else max(1, math.ceil(cap))


def log_n_over_delta_sq(n: int, delta: float) -> float:
    """log(n / delta^2), as a difference of logs where delta^2 underflows."""
    d2 = delta**2
    return math.log(n / d2) if d2 > 0.0 else math.log(n) - 2.0 * math.log(delta)


# The early stop of ``lanczos_min_eig`` takes a Ritz pair (theta, y) of T_k
# below sigma once its residual beta_k |e_k' y| is at most this times |theta|.
# Inexact runs of the 50-D quartic saddle, seeds 0-999, made 344 products each
# at 0.5, 389 at the first Ritz value below sigma, and 1144 without the stop.
EARLY_STOP_RESIDUAL = 0.5


@functools.cache
def _lapack():
    """scipy's compiled LAPACK extension, ``scipy.linalg._flapack``, alone.

    The Ritz solve needs two of its routines, ``dstebz`` and ``dstein``.
    Importing them through ``scipy.linalg.lapack`` would first run the whole
    ``scipy.linalg`` package init: 85 modules with scipy 1.17, about 20 MB
    resident and a quarter of a second. The extension itself needs only
    numpy, so it is loaded from its file in the scipy package directory,
    which is found without importing scipy, and registered in
    ``sys.modules`` under its own name. A later ``import scipy.linalg`` then
    reuses this module object, and one that scipy loaded earlier is reused
    here. This relies on scipy shipping ``linalg/_flapack<extension
    suffix>``, as every scipy from 1.10, the floor in pyproject.toml, does.
    """
    import importlib.machinery
    import importlib.util

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    stem = os.path.join(package.submodule_search_locations[0], "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # CPython registers a single-phase-init extension itself, but
            # not a multi-phase-init (PEP 489) one.
            sys.modules[name] = module
            return module
    raise ImportError(
        f"no LAPACK extension {stem}<suffix> for any suffix in "
        f"{importlib.machinery.EXTENSION_SUFFIXES}", name=name, path=stem,
    )


def _ritz_min(alphas: Array, betas: Array) -> tuple[float, Array]:
    """Smallest eigenvalue and its unit eigenvector of the tridiagonal matrix
    with diagonal ``alphas`` and off-diagonal ``betas``, from the two LAPACK
    calls ``eigh_tridiagonal(select="i")`` makes, without its argument checks."""
    k = len(alphas)
    if k == 1:
        return float(alphas[0]), np.ones(1)
    lapack = _lapack()
    m, w, iblock, isplit, info = lapack.dstebz(alphas, betas, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        y, info = lapack.dstein(alphas, betas, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolve failed (info={info})")
    return float(w[0]), y[:, 0]


def lanczos_min_eig(
    hv,
    n: int,
    M: float,
    eps: float,
    delta: float,
    rng: np.random.Generator,
    sigma: float = -math.inf,
) -> EigEstimate:
    """Estimate the smallest eigenvalue of H through products v -> H v.

    Runs the Lanczos iteration on H from a start vector drawn uniformly on
    the unit sphere. The caller guarantees ``M >= ||H||``. The returned
    ``lam`` is the smallest Ritz value, the quantity the bound below is
    stated for: lam <= lambda_min(H) + eps with probability at least
    1 - delta within the iteration budget. It equals the Rayleigh quotient
    of the returned unit vector up to rounding.

    The budget is the Kuczynski-Wozniakowski bound for the largest
    eigenvalue of the positive semidefinite M I - H. That shift is needed
    only by the analysis: M I - H has the same Krylov spaces as H and a
    tridiagonal matrix shifted by M, so the recurrence runs on H itself,
    and M sets only the budget.

    The basis is fully reorthogonalized (budgets are small at this scale).
    It lives in one preallocated ``(budget, n)`` array, row k holding the
    k-th Lanczos vector, so a call holds ``budget * n`` floats. ``hv`` is
    passed a view of a basis row and must not write into it. Only the
    smallest Ritz pair of the tridiagonal matrix is computed (``_ritz_min``).

    A call that makes n products without a breakdown ("full_n") returns that
    basis Q, an orthogonal n x n matrix, with the bands of its tridiagonal T.
    Then Q H Q' = T, and a caller may solve with H + shift I in the basis,
    through T, without further products. That identity holds to working
    precision only because every vector is reorthogonalized against the whole
    basis: a cheaper scheme that lets orthogonality drift must keep it on
    full-n calls, or return no basis.

    A breakdown means the Krylov space became exactly invariant: a beta at
    most 1e-13 times the recurrence's own scale, the largest |alpha| or beta
    seen so far in the call. Scaling H scales both sides of the test, so it
    has no absolute floor; H = 0 breaks down at once, with beta = 0. The
    iteration stops there, with no restart: the random start has a component
    in every eigenspace with probability one, so an invariant Krylov space
    contains an eigenvector for lambda_min(H), and its smallest Ritz value
    already is lambda_min(H).
    A product that makes the recurrence non-finite raises
    ``NonFiniteError``.

    A caller that needs only some unit v with v'Hv < sigma passes ``sigma``.
    The call tracks the LDL' pivots of T_k - sigma I, one division per
    product; the first negative pivot is the first k at which T_k has a
    Ritz value below sigma (the Sturm count). From there it takes the
    smallest Ritz pair (theta, y) of T_k after each new beta_k, and stops
    ("below_sigma", with no basis) once theta < sigma and beta_k |e_k' y| <=
    ``EARLY_STOP_RESIDUAL`` |theta|. The smallest Ritz value does not rise
    with k (Cauchy interlacing), so the full-budget call would end below
    sigma too. Such an estimate has no failure probability: its theta is
    v'Hv of the returned vector, up to rounding, not a bound on
    lambda_min(H). At the default sigma = -inf every pivot stays +inf, so the
    call never stops early; such a call gives the same bits at any ``sigma``.
    """
    budget = lanczos_iteration_cap(n, M, eps, delta)
    scale = 0.0
    V = np.empty((budget, n))
    alphas = np.empty(budget)
    betas = np.empty(budget)
    # The three-term update writes into these instead of fresh arrays.
    w = np.empty(n)
    tmp = np.empty(n)

    # The loop runs once per product, so its ufunc and math names are bound
    # once per call, and ufuncs take their output by position.
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    sqrt, isfinite = math.sqrt, math.isfinite

    nv = 0.0
    while nv == 0.0:
        v = rng.standard_normal(n)
        nv = sqrt(float(v.dot(v)))
    v = divide(v, nv, V[0])

    # The last LDL' pivot of T_k - sigma I, tracked while none is negative.
    # After a zero pivot, T_k has a Ritz value below sigma by strict
    # interlacing, so the next pivot counts as -inf.
    pivot = math.inf
    beta = 0.0
    converged_by = None

    # k counts the products; the loop ends at the budget, at a breakdown or
    # at the early stop. ``prev`` is the basis row before v, from k = 2 on.
    k = 0
    while True:
        hvk = hv(v)
        alpha = float(v.dot(hvk))
        if not isfinite(alpha):
            raise NonFiniteError(f"non-finite Hessian-vector product in Lanczos step {k}")
        alphas[k] = alpha
        # Comparisons, not max(): this runs once per product.
        if abs(alpha) > scale:
            scale = abs(alpha)
        if pivot >= 0.0:
            pivot = alpha - sigma - beta * beta / pivot if pivot else -math.inf
        k += 1
        if k == budget:
            # T_k never reads the next beta.
            break

        subtract(hvk, multiply(v, alpha, tmp), w)
        if k > 1:
            subtract(w, multiply(prev, beta, tmp), w)
        # Full reorthogonalization against the stored basis: (Vk w)' Vk makes
        # the same BLAS gemv call as Vk' (Vk w), without the transposed view.
        Vk = V[:k]
        subtract(w, Vk.dot(w).dot(Vk), w)

        beta = sqrt(float(w.dot(w)))
        if beta <= 1e-13 * scale:
            break
        betas[k - 1] = beta
        if beta > scale:
            scale = beta
        if pivot < 0.0:
            lam, y = _ritz_min(alphas[:k], betas[: k - 1])
            if lam < sigma and beta * abs(y[-1]) <= EARLY_STOP_RESIDUAL * abs(lam):
                converged_by = "below_sigma"
                break
        prev = v
        v = divide(w, beta, V[k])

    if converged_by is None:
        lam, y = _ritz_min(alphas[:k], betas[: k - 1])
        converged_by = "breakdown" if k < budget else "full_n" if k >= n else "lanczos_cap"
    v_ritz = y.dot(V[:k])
    nv = math.sqrt(float(v_ritz.dot(v_ritz)))
    basis, bands = (V, (alphas, betas[: n - 1])) if converged_by == "full_n" else (None, None)
    return EigEstimate(
        lam=lam, v_unit=v_ritz / nv, iters=k, converged_by=converged_by, basis=basis, bands=bands
    )
