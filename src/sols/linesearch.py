"""Backtracking line search with a cubic decrease condition, plus its caps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import Array, Objective, ProblemConstants, norm, pow_or_inf
from .steps import ConfigError, SolverConfig, StepKind


class LineSearchStallError(RuntimeError):
    """Backtracking found no acceptable step; on problems with honestly
    declared constants this must never fire, so it signals misdeclared
    constants or numerical breakdown."""

    def __init__(self, message: str, context: dict):
        super().__init__(message)
        self.context = context


@dataclass
class LineSearchResult:
    """Accepted step of the backtracking search.

    ``alpha`` equals theta**j bit-for-bit because it is produced by
    repeated multiplication, never by a power call.
    """

    alpha: float
    j: int
    decrease: float
    probes: int
    f_new: float


def backtrack(
    obj: Objective,
    x: Array,
    f_x: float,
    d: Array,
    cfg: SolverConfig,
    kind: str | None = None,
) -> LineSearchResult:
    """Find the smallest j >= 0 whose step theta**j gives cubic decrease.

    The acceptance test is the strict inequality
    f(x + alpha d) < f(x) - (eta/6) alpha^3 ||d||^3; exact equality
    rejects. ``f_x`` must be f at ``x``; it is passed in, never recomputed,
    so an accepted search consumes exactly j + 1 objective evaluations.

    A search stalls, raising ``LineSearchStallError``, in one of two ways:
    - a trial point after j >= 1 rejections equals ``x`` byte for byte: the
      step is below float64 resolution at ``x``. Its value would be
      ``f_x``, which fails the strict test, and rounding is monotone, so
      every smaller step lands on ``x`` too. Such a trial is not
      evaluated, and the search has consumed j evaluations;
    - ``max_ls_steps`` backtracks all fail, after max_ls_steps + 1
      evaluations.

    A NaN or +inf trial value is an ordinary rejection, so a shorter step
    can land back where f is defined and be accepted. A stall's reason
    counts its NaN trial values, which tell a search that left the domain
    of f from one that met float64 roundoff.
    """
    d = np.asarray(d, dtype=float)
    dnorm = norm(d)
    if dnorm == 0.0:
        raise ValueError("backtrack requires a nonzero direction")
    base = (cfg.eta / 6.0) * pow_or_inf(dnorm, 3)
    alpha = 1.0
    x_key = np.asarray(x, dtype=float).tobytes()
    nans = 0
    for j in range(cfg.max_ls_steps + 1):
        trial = x + alpha * d
        if j and trial.tobytes() == x_key:
            reason = f"trial point equals x at j={j} (step below float64 resolution)"
            break
        f_trial = obj.value(trial)
        if f_trial < f_x - base * alpha**3:
            return LineSearchResult(
                alpha=alpha, j=j, decrease=f_x - f_trial, probes=j + 1, f_new=f_trial
            )
        nans += math.isnan(f_trial)
        alpha *= cfg.theta
    else:
        reason = f"no acceptable step within {cfg.max_ls_steps} backtracks"
    if nans:
        reason += f"; {nans} of its trial values were NaN"
    raise LineSearchStallError(
        f"line-search stall: {reason}",
        context={
            "x": np.asarray(x, dtype=float).tolist(),
            "f_x": float(f_x),
            "d_norm": dnorm,
            "kind": kind,
            "theta": cfg.theta,
            "eta": cfg.eta,
            "j": j,
        },
    )


def _log_base_theta(z: float, theta: float) -> float:
    if z == 0.0:
        # z underflowed: its true value is positive but below every float.
        raise ConfigError("a backtracking-cap argument underflows to 0: no finite backtracking cap")
    return math.log(z) / math.log(theta)


def ls_cap_exponent(kind: str, constants: ProblemConstants, cfg: SolverConfig) -> float:
    """Real-valued backtracking exponent bound for a direction kind.

    Evaluates the positive-part log expressions symbol for symbol; the
    accepted count always satisfies j <= exponent + 1.
    """
    th, eta = cfg.theta, cfg.eta
    L_H, U_g = constants.L_H, constants.U_g
    eps_g, eps_H, zeta = cfg.eps_g, cfg.eps_H, cfg.zeta
    if kind in StepKind.CUBIC_CURVATURE:
        arg = 3.0 / (L_H + eta)
    elif kind == StepKind.NORMALIZED_GRADIENT:
        arg = min(5.0 / 3.0, math.sqrt(1.0 / (L_H + eta))) * min(
            math.sqrt(eps_g) / eps_H, 1.0
        )
    elif kind == StepKind.NEWTON:
        arg = math.sqrt(3.0 / (L_H + eta)) * eps_H / math.sqrt(U_g)
    elif kind == StepKind.REGULARIZED_NEWTON:
        arg = 6.0 / (L_H + eta) * eps_H**2 / U_g
    elif kind in (StepKind.INEXACT_NEWTON, StepKind.INEXACT_REGULARIZED_NEWTON):
        arg = (
            3.0
            / (L_H + eta)
            * (1.0 - zeta)
            * eps_H**2
            / (U_g * math.sqrt(1.0 + zeta**2 / 4.0))
        )
        return max(0.5 * _log_base_theta(arg, th), 0.0)
    else:
        raise ValueError(f"unknown direction kind {kind!r}")
    return max(_log_base_theta(arg, th), 0.0)


def theoretical_ls_cap(constants: ProblemConstants, cfg: SolverConfig, kind: str) -> int:
    """Integer backtracking cap for a direction kind.

    The exponent bound is real-valued; the integer cap is its ceiling
    plus one, the tightest integer dominating j <= exponent + 1.
    """
    return math.ceil(ls_cap_exponent(kind, constants, cfg)) + 1


def max_ls_cap(constants: ProblemConstants, cfg: SolverConfig, inexact: bool) -> int:
    """Largest cap over the direction kinds a loop can produce."""
    kinds = StepKind.INEXACT if inexact else StepKind.EXACT
    return max(theoretical_ls_cap(constants, cfg, k) for k in kinds)
