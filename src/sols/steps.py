"""Direction selection for the exact and inexact solver loops."""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .cgsolve import CgCapError, cg_capped, solve_exact, tridiagonal_solver
from .eigen import EigEstimate, lanczos_min_eig, min_eigenpair_exact
from .operators import (
    Array, NonFiniteError, Objective, banded_product, norm, pow_or_inf, rayleigh_quotient,
)


class StepKind:
    """Names of the possible search directions."""

    SCALED_NEG_CURV_GRADIENT = "scaled_neg_curv_gradient"
    NORMALIZED_GRADIENT = "normalized_gradient"
    NEGATIVE_CURVATURE = "negative_curvature"
    NEWTON = "newton"
    REGULARIZED_NEWTON = "regularized_newton"
    INEXACT_NEWTON = "inexact_newton"
    INEXACT_REGULARIZED_NEWTON = "inexact_regularized_newton"

    # Kinds whose scaling makes d'Hd = -||d||^3 hold by construction.
    CUBIC_CURVATURE = (SCALED_NEG_CURV_GRADIENT, NEGATIVE_CURVATURE)
    NEWTON_LIKE = (NEWTON, REGULARIZED_NEWTON, INEXACT_NEWTON, INEXACT_REGULARIZED_NEWTON)
    # The kinds each loop can produce; the exact-local phase makes a subset of EXACT.
    EXACT = (*CUBIC_CURVATURE, NORMALIZED_GRADIENT, NEWTON, REGULARIZED_NEWTON)
    INEXACT = (*CUBIC_CURVATURE, NORMALIZED_GRADIENT, INEXACT_NEWTON, INEXACT_REGULARIZED_NEWTON)


class IndefiniteSystemError(RuntimeError):
    """indefinite-system encountered: CG found a direction of exactly zero
    curvature on an unshifted Newton system, which gives no descent step."""


class ConfigError(ValueError):
    """Solver configuration violates a range constraint."""


@dataclass
class Direction:
    """A selected search direction with its diagnostic scalars."""

    kind: str
    d: Array
    R: float | None = None
    lam: float | None = None
    lanczos_iters: int | None = None
    cg_iters: int | None = None
    cg_fallback: bool = False


@dataclass
class Terminate:
    """Marker returned when the second-order branch certifies the iterate."""

    lam: float


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and algorithm parameters shared by both solver loops.

    ``zeta``, ``delta``, and ``U_H`` only matter for the inexact loop;
    ``U_H`` overrides the problem-declared Hessian-norm bound when set.
    """

    eps_g: float = 1e-4
    eps_H: float = 1e-2
    theta: float = 0.5
    eta: float = 1.0
    zeta: float = 0.5
    delta: float = 1e-6
    U_H: float | None = None
    max_iters: int = 10_000
    max_ls_steps: int = 200
    rng_seed: int = 0

    def validate(self) -> None:
        for name in ("eps_g", "eps_H", "theta", "eta", "zeta", "delta", "U_H"):
            value = getattr(self, name)
            if name == "U_H" and value is None:
                continue
            # bool is a Real subclass, but True is no tolerance.
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.eps_g < 1.0:
            raise ConfigError(f"eps_g must lie in (0, 1), got {self.eps_g}")
        if not 0.0 < self.eps_H < 1.0:
            raise ConfigError(f"eps_H must lie in (0, 1), got {self.eps_H}")
        for name in ("eps_g", "eps_H"):
            tol = getattr(self, name)
            # The complexity bounds scale with tol**-3; while that is
            # finite, the eps_H**2 in the backtracking caps is above 0.
            if pow_or_inf(tol, -3) == math.inf:
                raise ConfigError(f"{name}={tol} is too small: {name}**-3 overflows")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta}")
        if not 0.0 < self.eta < math.inf:
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 <= self.zeta < 1.0:
            raise ConfigError(f"zeta must lie in [0, 1), got {self.zeta}")
        if not 0.0 <= self.delta < 1.0:
            raise ConfigError(f"delta must lie in [0, 1), got {self.delta}")
        if self.U_H is not None and not 0.0 < self.U_H < math.inf:
            raise ConfigError(f"U_H must be positive and finite, got {self.U_H}")
        for name, low in (("max_iters", 1), ("max_ls_steps", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            # bool is an int subclass, but True is no count or seed.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")

    def with_updates(self, **kwargs) -> SolverConfig:
        return replace(self, **kwargs)


def check_termination(
    g_norm: float, lam: float, cfg: SolverConfig, inexact: bool = False
) -> bool:
    """Approximate second-order criticality: a small gradient norm and a
    certified eigenvalue estimate.

    The exact loops accept eigenvalue estimates down to -eps_H; the inexact
    loop tightens the eigenvalue threshold to -eps_H/2 so that the
    estimator's eps_H/2 slack still certifies -eps_H. Both inequalities
    are closed.
    """
    floor = -0.5 * cfg.eps_H if inexact else -cfg.eps_H
    return g_norm <= cfg.eps_g and lam >= floor


def scale_eigvector(v_unit: Array, lam: float, g: Array) -> Array:
    """Scale a unit curvature direction to norm [-lam]_+ with nonpositive slope.

    The sign is flipped only when the slope along ``g`` is strictly
    positive; an exactly orthogonal direction keeps the estimator's
    orientation. Nonnegative curvature scales to the zero vector.
    """
    if lam >= 0.0:
        return np.zeros_like(v_unit)
    w = (-lam) * v_unit
    if float(w.dot(g)) > 0.0:
        w = -w
    return w


def _first_order_direction(
    obj: Objective, x: Array, g: Array, gnorm: float, cfg: SolverConfig
) -> tuple[Direction | None, float | None]:
    """Step 1 of both loops: returns a gradient-based direction or defers.

    A zero gradient defers straight to the second-order branch without
    spending the Hessian-vector product for the curvature ratio.
    """
    if gnorm == 0.0:
        return None, None
    R = rayleigh_quotient(obj, x, g)
    if not math.isfinite(R):
        raise NonFiniteError(f"non-finite curvature ratio g'Hg/||g||^2 = {R}")
    if R < -cfg.eps_H:
        return Direction(StepKind.SCALED_NEG_CURV_GRADIENT, (R / gnorm) * g, R=R), R
    if R <= cfg.eps_H and gnorm > cfg.eps_g:
        return Direction(StepKind.NORMALIZED_GRADIENT, -g / math.sqrt(gnorm), R=R), R
    return None, R


def newton_kind(
    lam: float, cut: float, cfg: SolverConfig, inexact: bool = False
) -> tuple[str, float]:
    """The Newton system of every loop: plain, shift 0, for lam above ``cut``,
    else regularized by the shift 2 eps_H, which keeps it positive definite."""
    if lam > cut:
        return (StepKind.INEXACT_NEWTON if inexact else StepKind.NEWTON), 0.0
    kind = StepKind.INEXACT_REGULARIZED_NEWTON if inexact else StepKind.REGULARIZED_NEWTON
    return kind, 2.0 * cfg.eps_H


def select_direction_exact(
    obj: Objective,
    x: Array,
    g: Array,
    cfg: SolverConfig,
) -> Direction | Terminate:
    """Choose the search direction of the exact loop, or certify the iterate."""
    g = np.asarray(g, dtype=float)
    gnorm = norm(g)
    direction, R = _first_order_direction(obj, x, g, gnorm, cfg)
    if direction is not None:
        return direction

    est = min_eigenpair_exact(obj.dense_hessian(x))
    lam = est.lam
    if check_termination(gnorm, lam, cfg):
        return Terminate(lam=lam)
    if lam < -cfg.eps_H:
        d = scale_eigvector(est.v_unit, lam, g)
        return Direction(StepKind.NEGATIVE_CURVATURE, d, R=R, lam=lam)
    kind, shift = newton_kind(lam, cfg.eps_H, cfg)
    return Direction(kind, solve_exact(est, g, shift), R=R, lam=lam)


def _neg_curvature_from_cg(
    p: Array, p_curvature: float, shift: float, g: Array
) -> tuple[Array, float]:
    """Convert a nonpositive-curvature CG direction into an eigen-style step.

    The curvature of the unshifted Hessian along p is recovered from the
    already-computed product, so the fallback costs no extra evaluations.
    """
    pn2 = float(p.dot(p))
    R_p = (p_curvature - shift * pn2) / pn2
    if R_p >= 0.0:
        raise IndefiniteSystemError(
            "indefinite-system encountered: CG curvature direction has "
            f"nonnegative Hessian curvature {R_p:.3e}"
        )
    d = scale_eigvector(p / math.sqrt(pn2), R_p, g)
    return d, R_p


@dataclass
class CurvatureBound:
    """A certified lower bound ``lam`` on lambda_min(H) at the last point seen.

    A full-span Lanczos call gives lambda_min(H(x)) up to rounding; the
    Hessian is L_H-Lipschitz along the line-search segments, so by Weyl's
    inequality lambda_min at each later iterate is at least that value less
    L_H times the path length walked since. The bound starts at -inf, which
    decides nothing.
    """

    L_H: float
    lam: float = -math.inf
    last: Array | None = None

    def at(self, x: Array) -> float:
        """Move the bound along the accepted step from the last point seen to x."""
        if self.last is not None:
            self.lam -= self.L_H * norm(x - self.last)
        # A copy: the caller may change x in place.
        self.last = x.copy()
        return self.lam

    def learn(self, est: EigEstimate, M: float) -> None:
        """Set the bound from an estimate at the last point seen, if it is exact.

        Only a "full_n" estimate is, after its n = ``iters`` products:
        T = Q H Q' with Q orthogonal, so its smallest Ritz value is
        lambda_min(H) up to n * eps_mach * ||H||, with ||H|| <= M. A
        breakdown is exact with probability one only, and an early stop or a
        budget below n bounds lambda_min from above only.
        """
        if est.converged_by == "full_n":
            self.lam = est.lam - est.iters * sys.float_info.epsilon * M


def select_direction_inexact(
    obj: Objective,
    x: Array,
    g: Array,
    cfg: SolverConfig,
    rng: np.random.Generator,
    U_H: float,
    bound: CurvatureBound | None = None,
) -> Direction | Terminate:
    """Choose the search direction of the inexact loop, or certify the iterate.

    The eigenvalue estimate targets accuracy eps_H/2 with shift U_H + 2,
    and stops early at a Ritz pair below -eps_H/2, which gives the
    negative-curvature step. CG solves of (H + shift I) d = -g run with
    curvature floor m = eps_H and ceiling M = U_H + shift, one
    Hessian-vector product per iteration. When the Lanczos call spanned
    R^n, CG instead runs in its basis Q on (T + shift I) z = -Q g and the
    step is d = Q'z: Q is orthonormal, so every norm CG tests and the
    curvature of every search direction equal those of the solve in x, and
    T answers the products at no evaluation cost. That CG is preconditioned
    by the exact LDL' factorization of T + shift I (``tridiagonal_solver``),
    so its first iteration is a direct solve, still checked against the
    residual target; where the factorization meets a pivot that is not
    positive, which takes an eps_H below rounding, CG runs with P = I, as on
    Hessian-vector products. If CG uncovers nonpositive curvature (a
    low-probability estimator failure), the violating direction is rescaled
    into a negative-curvature step so the cubic decrease law still applies;
    the event is flagged for the run report's probability accounting.

    A ``bound`` carried between calls, moved to x on every call, skips the
    Lanczos call where it already decides the branch: any estimate is at
    least lambda_min(H), so a bound of at least -eps_H/2 with a small
    gradient certifies x, and one above 1.5 eps_H picks the plain Newton
    step, solved by CG on Hessian-vector products. Such a result carries
    the bound as ``lam`` and no ``lanczos_iters``. Without a bound every
    second-order call runs Lanczos.
    """
    g = np.asarray(g, dtype=float)
    gnorm = norm(g)
    lam_i = -math.inf if bound is None else bound.at(x)
    direction, R = _first_order_direction(obj, x, g, gnorm, cfg)
    if direction is not None:
        return direction

    hv = functools.partial(obj.hessian_vector, x)
    sigma = -0.5 * cfg.eps_H
    newton_cut = 1.5 * cfg.eps_H
    lanczos_iters = Q = None
    if not (check_termination(gnorm, lam_i, cfg, inexact=True) or lam_i > newton_cut):
        M = U_H + 2.0
        est = lanczos_min_eig(hv, obj.dim, M, cfg.eps_H / 2.0, cfg.delta, rng, sigma=sigma)
        if bound is not None:
            bound.learn(est, M)
        lam_i, lanczos_iters, Q = est.lam, est.iters, est.basis
        if lam_i < sigma:
            d = scale_eigvector(est.v_unit, lam_i, g)
            return Direction(
                StepKind.NEGATIVE_CURVATURE, d, R=R, lam=lam_i, lanczos_iters=lanczos_iters
            )
    if check_termination(gnorm, lam_i, cfg, inexact=True):
        return Terminate(lam=lam_i)

    kind, shift = newton_kind(lam_i, newton_cut, cfg, inexact=True)
    if Q is None:
        product, rhs, precondition = hv, g, None
    else:
        product, rhs = functools.partial(banded_product, est.bands), Q.dot(g)
        precondition = tridiagonal_solver(est.bands, shift)

    def apply_A(v: Array) -> Array:
        return product(v) + shift * v

    outcome = cg_capped(
        apply_A, rhs, cfg.eps_H, U_H + shift, cfg.zeta, obj.dim, precondition=precondition
    )
    d = outcome.d if Q is None else outcome.d.dot(Q)
    fallback = outcome.status == "nonpositive_curvature"
    if fallback:
        p = outcome.p if Q is None else outcome.p.dot(Q)
        kind = StepKind.NEGATIVE_CURVATURE
        d, lam_i = _neg_curvature_from_cg(p, outcome.p_curvature, shift, g)
    elif outcome.status == "cap_reached":
        head = (
            f"CG reached its cap ({outcome.iters} iterations) with residual "
            f"{outcome.final_residual_norm:.3e}"
        )
        target = 0.5 * cfg.zeta * min(gnorm, cfg.eps_H * norm(d))
        # Roughly the smallest residual float64 CG reaches from d = 0.
        floor = obj.dim * np.finfo(float).eps * gnorm
        if target < floor:
            raise CgCapError(
                f"{head}; its target {target:.3e} is below {floor:.3e} "
                "(n * eps_mach * ||g||), which float64 CG cannot reach"
            )
        if outcome.iters == obj.dim:
            raise CgCapError(
                f"{head}; that cap is n, which ends CG only in exact arithmetic: "
                "float64 CG can need more iterations, or the certified spectrum "
                "bounds are violated"
            )
        raise CgCapError(f"{head}; certified spectrum bounds appear to be violated")
    return Direction(
        kind,
        d,
        R=R,
        lam=lam_i,
        lanczos_iters=lanczos_iters,
        cg_iters=outcome.iters,
        cg_fallback=fallback,
    )
