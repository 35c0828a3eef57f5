"""Decrease constants and complexity envelopes as executable formulas."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eigen import log_n_over_delta_sq
from .operators import ProblemConstants, pow_or_inf
from .steps import ConfigError, SolverConfig


@dataclass(frozen=True)
class DecreaseConstants:
    """Per-step decrease coefficients and their aggregate minima.

    Each field is the closed-form coefficient of the matching decrease
    guarantee, evaluated symbol for symbol so it can be diffed against the
    derivation. ``c`` aggregates the exact-path steps, ``c_hat`` the
    inexact-path ones (with the eigen coefficient divided by 8 to absorb
    the halved curvature threshold).
    """

    c_e: float
    c_g: float
    c_n: float
    c_r: float
    c_in: float
    c_ir: float
    c: float
    c_hat: float


def _ratio(num: float, den: float) -> float:
    """num / den for num >= 0, or +inf where den underflowed to 0."""
    return num / den if den > 0.0 else math.inf


def decrease_constants(
    theta: float, eta: float, L_H: float, zeta: float = 0.0
) -> DecreaseConstants:
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if L_H < 0.0:
        raise ValueError("L_H must be nonnegative")
    if not 0.0 <= zeta < 1.0:
        raise ValueError("zeta must lie in [0, 1)")

    s = L_H + eta
    c_e = eta / 6.0 * min(1.0, _ratio(27.0 * theta**3, pow_or_inf(s, 3)))
    c_g = eta / 6.0 * min(1.0, _ratio(theta**3, pow_or_inf(s, 1.5)), 125.0 * theta**3 / 27.0)
    newton_unit = pow_or_inf(_ratio(2.0, L_H), 1.5)
    c_n = eta / 6.0 * min(newton_unit, pow_or_inf(3.0 * theta / s, 3))
    c_r = eta / 6.0 * min(
        (1.0 / (1.0 + math.sqrt(1.0 + L_H / 2.0))) ** 3, pow_or_inf(6.0 * theta / s, 3)
    )
    denom_in = zeta + math.sqrt(zeta**2 + 8.0 * L_H)
    in_unit = pow_or_inf(_ratio(4.0, denom_in), 3)
    inexact_backtrack = pow_or_inf(3.0 * theta**2 * (1.0 - zeta) / s, 3)
    c_in = eta / 6.0 * min(in_unit, inexact_backtrack)
    denom_ir = 4.0 + zeta + math.sqrt((4.0 + zeta) ** 2 + 8.0 * L_H)
    c_ir = eta / 6.0 * min((4.0 / denom_ir) ** 3, inexact_backtrack)

    return DecreaseConstants(
        c_e=c_e,
        c_g=c_g,
        c_n=c_n,
        c_r=c_r,
        c_in=c_in,
        c_ir=c_ir,
        c=min(c_g, c_e, c_n, c_r),
        c_hat=min(c_e / 8.0, c_g, c_in, c_ir),
    )


def tolerance_max_term(eps_g: float, eps_H: float) -> float:
    """The tolerance factor max(eps_g^-3 eps_H^3, eps_g^-3/2, eps_H^-3)."""
    return max(eps_g**-3 * eps_H**3, eps_g**-1.5, eps_H**-3)


@dataclass(frozen=True)
class ComplexityEnvelope:
    """Worst-case bounds a run must stay under, fully evaluated.

    ``K_iter`` bounds iterations to the first certificate on the exact
    path, ``K_eval`` objective evaluations, ``K_hat`` iterations on the
    inexact path, and ``ops_bound`` the gradient evaluations plus
    Hessian-vector products of the inexact path. ``success_prob`` is the
    lower bound 1 - K_hat * delta clamped at 0, the vacuous bound it
    reaches once K_hat * delta >= 1. ``eval_log_term`` stores the log
    aggregate of the evaluation bound; it is flagged rather than clamped if
    it ever comes out negative.
    """

    K_iter: float
    K_eval: float
    K_hat: float
    ops_bound: float
    success_prob: float
    max_term: float
    eval_log_term: float
    eval_log_term_negative: bool


def iteration_envelope(
    constants: ProblemConstants, cfg: SolverConfig, f0: float, n: int
) -> ComplexityEnvelope:
    """Evaluate every complexity bound for a run starting at value ``f0``.

    The operation bound uses the shift M = U_H + 2 and eigen accuracy
    eps_H / 2, and bounds both Newton-type condition numbers by
    (U_H + 2) / eps_H. ``delta = 0`` or ``zeta = 0`` puts the matching
    inner-iteration term at its dimension cap n.
    """
    if f0 < constants.f_low:
        raise ValueError("f0 must be at least f_low")
    dc = decrease_constants(cfg.theta, cfg.eta, constants.L_H, cfg.zeta)
    for name in ("c", "c_hat"):
        if getattr(dc, name) == 0.0:
            raise ConfigError(
                f"the decrease constant {name} underflows to 0 at theta={cfg.theta}, "
                f"eta={cfg.eta}, zeta={cfg.zeta}, L_H={constants.L_H}: no finite "
                "complexity envelope"
            )
    gap = f0 - constants.f_low
    mt = tolerance_max_term(cfg.eps_g, cfg.eps_H)
    C = gap / dc.c
    C_hat = gap / dc.c_hat
    K_iter = C * mt
    K_hat = C_hat * mt

    s = constants.L_H + cfg.eta
    U_g = constants.U_g
    agg = min(
        3.0 / s,
        5.0 / 3.0,
        1.0 / math.sqrt(s),
        math.sqrt(3.0 / (s * U_g)),
        6.0 / (s * U_g),
    )
    K_const = max(math.log(agg) / math.log(cfg.theta), 0.0)
    log_term = math.log(min(cfg.eps_H**2, math.sqrt(cfg.eps_g) / cfg.eps_H)) / math.log(
        cfg.theta
    )
    K_eval = (1.0 + K_const + log_term) * C * mt

    U_H = cfg.U_H if cfg.U_H is not None else constants.U_H
    M = U_H + 2.0
    # Each inner term is capped at n; one whose formula overflows (M**1.5 at a
    # huge U_H) is far above n.
    cg_term = lanczos_term = float(n)
    if cfg.zeta > 0.0:
        root_half_kappa = 1.0 / math.sqrt(2.0) * math.sqrt(M) / math.sqrt(cfg.eps_H)
        log_factor = math.log(4.0 * pow_or_inf(M, 1.5) * cfg.eps_H**-1.5 / cfg.zeta)
        cg_term = min(cg_term, root_half_kappa * log_factor)
    if cfg.delta > 0.0:
        lanczos_term = min(
            lanczos_term,
            math.sqrt(M) / math.sqrt(cfg.eps_H) * log_n_over_delta_sq(n, cfg.delta) / 2.0,
        )
    ops_bound = (2.0 + cg_term + lanczos_term) * K_hat

    return ComplexityEnvelope(
        K_iter=K_iter,
        K_eval=K_eval,
        K_hat=K_hat,
        ops_bound=ops_bound,
        success_prob=max(0.0, 1.0 - K_hat * cfg.delta),
        max_term=mt,
        eval_log_term=log_term,
        eval_log_term_negative=log_term < 0.0,
    )

