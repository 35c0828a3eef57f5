"""The solver loops: exact, exact with local phase, and inexact."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .bounds import ComplexityEnvelope, iteration_envelope
from .cgsolve import CgCapError, solve_exact
from .eigen import min_eigenpair_exact
from .linesearch import LineSearchStallError, backtrack, max_ls_cap
from .operators import Array, EvalCounters, NonFiniteError, Objective, norm
from .steps import (
    ConfigError,
    CurvatureBound,
    Direction,
    IndefiniteSystemError,
    SolverConfig,
    StepKind,
    Terminate,
    check_termination,
    newton_kind,
    select_direction_exact,
    select_direction_inexact,
)

SCHEMA_VERSION = 1

# The solver hard errors that end a run, keeping its rows, and the status
# each gives the run.
HARD_ERROR_STATUS = {
    LineSearchStallError: "ls_stall",
    CgCapError: "cg_cap",
    IndefiniteSystemError: "indefinite",
    NonFiniteError: "nonfinite",
}


# The report keys (observed, bound, ok) of the iteration check both loops make,
# and of each loop's cost check with its ``sols envelope`` label, keyed by inexact.
ITERATION_CHECK = ("observed_iterations", "iteration_bound", "iterations_ok")
COST_CHECK = {
    False: (("observed_f_evals", "f_eval_bound", "f_evals_ok"), "f-evals"),
    True: (("observed_ops", "ops_bound", "ops_ok"), "ops"),
}


@dataclass
class IterationRecord:
    """One accepted step of a run, with cumulative evaluation counts.

    ``lam`` is the eigenvalue estimate that chose the step. On an inexact
    Newton row whose branch the carried curvature bound decided, it is that
    certified lower bound on lambda_min, and ``lanczos_iters`` is None: no
    Lanczos call was made.
    """

    k: int
    phase: str  # "main" or "local"
    step_kind: str
    f: float
    g_norm: float
    x_norm: float
    R: float | None
    lam: float | None
    d_norm: float
    j: int
    alpha: float
    decrease: float
    g_next_norm: float
    lanczos_iters: int | None
    cg_iters: int | None
    cg_fallback: int  # 1 when CG's nonpositive curvature gave the step, else 0
    n_f: int
    n_grad: int
    n_hv: int


TRACE_COLUMNS = tuple(f.name for f in fields(IterationRecord))


@dataclass
class Certificate:
    """The first iterate pair certified approximately second-order critical.

    ``lam`` is the eigenvalue estimate at ``point``, or on the inexact loop
    the carried lower bound on lambda_min there when that bound decided the
    certificate; ``g_norm_min`` is the smaller gradient norm of the
    certified pair. ``steps`` and the counter snapshot freeze the cost at
    first satisfaction, which is what the complexity envelopes bound.
    """

    point: Array
    g_norm_min: float
    lam: float
    steps: int
    counters: EvalCounters


@dataclass
class RunReport:
    """Summary of one solver run."""

    status: str  # "converged", "max_iters", or a value of HARD_ERROR_STATUS
    algo: str
    x_final: Array
    f_final: float
    g_norm_final: float
    lambda_final: float | None
    iterations: int
    reentries: int
    fallback_count: int
    counters: EvalCounters
    certificate: Certificate | None
    envelope: ComplexityEnvelope | None
    final_point_second_order_ok: bool | None = None
    error: str | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def envelope_checks(self) -> dict:
        """Observed-versus-bound numbers for the run, empty without constants or a certificate."""
        if self.envelope is None or self.certificate is None:
            return {}
        env, cert = self.envelope, self.certificate
        inexact = self.algo == "inexact"
        if inexact:
            measured = ((cert.steps, env.K_hat), (cert.counters.grad_plus_hv, env.ops_bound))
        else:
            measured = ((cert.steps, env.K_iter), (cert.counters.n_f, env.K_eval))
        checks = {}
        for keys, (observed, bound) in zip((ITERATION_CHECK, COST_CHECK[inexact][0]), measured):
            checks.update(zip(keys, (observed, bound, observed <= bound)))
        return checks

    def all_envelope_checks_pass(self) -> bool:
        return envelope_checks_pass(self.envelope_checks())


def envelope_checks_pass(checks: dict) -> bool:
    """Whether ``checks`` holds ``*_ok`` flags and all of them hold; no checks is no pass."""
    flags = [v for k, v in checks.items() if k.endswith("_ok")]
    return bool(flags) and all(flags)


def local_phase_floor(cfg: SolverConfig) -> float:
    # The local loop as stated never stops; a finite artifact needs a hard
    # gradient floor far below eps_g so complexity accounting is unaffected.
    return max(1e-14, cfg.eps_g * 1e-6)


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} is not finite")


def _check_ls_budget(obj: Objective, cfg: SolverConfig, inexact: bool) -> None:
    if obj.constants is None:
        return
    need = max_ls_cap(obj.constants, cfg, inexact=inexact)
    if cfg.max_ls_steps < need:
        raise ConfigError(
            f"max_ls_steps={cfg.max_ls_steps} is below the backtracking cap "
            f"{need} implied by the declared constants"
        )


def _step(
    obj: Objective,
    cfg: SolverConfig,
    sel: Direction,
    x: Array,
    f_x: float,
    g: Array,
    k: int,
    phase: str,
) -> tuple[IterationRecord, Array, float, Array]:
    """Backtrack along ``sel.d`` from ``x`` and record the accepted step as row ``k``."""
    res = backtrack(obj, x, f_x, sel.d, cfg, kind=sel.kind)
    x_next = x + res.alpha * sel.d
    g_norm = norm(g)  # before the next gradient, which may reuse g's buffer
    g_next = obj.gradient(x_next)
    rec = IterationRecord(
        k=k,
        phase=phase,
        step_kind=sel.kind,
        f=f_x,
        g_norm=g_norm,
        x_norm=norm(x),
        R=sel.R,
        lam=sel.lam,
        d_norm=norm(sel.d),
        j=res.j,
        alpha=res.alpha,
        decrease=res.decrease,
        g_next_norm=norm(g_next),
        lanczos_iters=sel.lanczos_iters,
        cg_iters=sel.cg_iters,
        cg_fallback=int(sel.cg_fallback),
        n_f=obj.counters.n_f,
        n_grad=obj.counters.n_grad,
        n_hv=obj.counters.n_hv,
    )
    # The search rejects a NaN or +inf trial value but accepts -inf, which
    # no objective bounded below can return.
    _require_finite(res.f_new, f"the objective after step {k}")
    _require_finite(rec.g_next_norm, f"the gradient norm after step {k}")
    return rec, x_next, res.f_new, g_next


def _select_local(obj: Objective, x: Array, g: Array, cfg: SolverConfig) -> Direction | None:
    """The Newton direction of the local phase, or None to hand back to the main loop.

    Significant negative curvature (lambda < -eps_H) hands back; otherwise any
    strictly positive eigenvalue selects the plain system, else the regularized one.
    """
    est = min_eigenpair_exact(obj.dense_hessian(x))
    if est.lam < -cfg.eps_H:
        return None
    kind, shift = newton_kind(est.lam, 0.0, cfg)
    return Direction(kind, solve_exact(est, g, shift), lam=est.lam)


def _run_loop(
    obj: Objective,
    x0: Array,
    cfg: SolverConfig,
    algo: str,
    select,
    strict_second_order: bool,
) -> tuple[RunReport, list[IterationRecord]]:
    inexact = algo == "inexact"
    _check_ls_budget(obj, cfg, inexact)
    x = np.array(x0, dtype=float)
    if x.shape != (obj.dim,):
        raise ValueError(f"x0 has shape {x.shape}, but the objective has dim = {obj.dim}")
    f_x = obj.value(x)
    # A non-finite start value is a bad input and raises; a non-finite
    # derivative from here on ends the run with status "nonfinite".
    _require_finite(f_x, "the objective at the start point")
    envelope = None
    if obj.constants is not None:
        envelope = iteration_envelope(obj.constants, cfg, f_x, obj.dim)
    g = obj.gradient(x)

    records: list[IterationRecord] = []
    reentries = 0
    cert: Certificate | None = None
    status = "max_iters"
    second_order_ok: bool | None = None
    final_lam: float | None = None
    error_msg: str | None = None
    # "local" after a certificate on exact-local: the Newton-dominant loop,
    # which hands back to "main" when the gradient grows past eps_g or
    # significant negative curvature reappears.
    phase = "main"

    try:
        _require_finite(norm(g), "the gradient norm at the start point")
        while True:
            if phase == "local":
                g_norm = norm(g)
                if g_norm <= local_phase_floor(cfg):
                    status = "converged"
                    break
                if g_norm > cfg.eps_g:
                    phase = "main"
                    reentries += 1
            if len(records) >= cfg.max_iters:
                break
            sel = _select_local(obj, x, g, cfg) if phase == "local" else select(x, g)
            if sel is None:
                phase = "main"
                reentries += 1
                continue
            if isinstance(sel, Terminate):
                point, g_norm_min, lam = x, norm(g), sel.lam
            else:
                rec, x_next, f_next, g_next = _step(
                    obj, cfg, sel, x, f_x, g, len(records), phase
                )
                records.append(rec)
                point, g_norm_min, lam = x, min(rec.g_norm, rec.g_next_norm), sel.lam
                x, f_x, g = x_next, f_next, g_next
                # A Newton-type step certifies the pair (point, x) when the
                # new gradient is small and the Hessian at point was certified.
                if (
                    phase == "local"
                    or strict_second_order
                    or sel.kind not in StepKind.NEWTON_LIKE
                    or not check_termination(rec.g_next_norm, lam, cfg, inexact)
                ):
                    continue

            final_lam = lam
            if cert is None:
                cert = Certificate(
                    point=point.copy(),
                    g_norm_min=g_norm_min,
                    lam=lam,
                    steps=len(records),
                    counters=obj.counters.snapshot(),
                )
            if algo != "exact-local":
                status = "converged"
                break
            phase = "local"
        if status == "converged" and not inexact:
            # One extra eigenvalue check classifies whether the final point
            # itself satisfies the pointwise second-order condition. A
            # converged exact run has a certificate, so it has used the dense
            # Hessian; a non-finite one here ends the run "nonfinite" too.
            est = min_eigenpair_exact(obj.dense_hessian(x))
            second_order_ok = bool(check_termination(norm(g), est.lam, cfg))
    except tuple(HARD_ERROR_STATUS) as exc:
        status = next(s for cls, s in HARD_ERROR_STATUS.items() if isinstance(exc, cls))
        error_msg = str(exc)

    report = RunReport(
        status=status,
        algo=algo,
        x_final=x,
        f_final=f_x,
        g_norm_final=norm(g),
        lambda_final=final_lam,
        iterations=len(records),
        reentries=reentries,
        fallback_count=sum(r.cg_fallback for r in records),
        counters=obj.counters.snapshot(),
        certificate=cert,
        envelope=envelope,
        final_point_second_order_ok=second_order_ok,
        error=error_msg,
    )
    return report, records


def run_exact(
    obj: Objective,
    x0: Array,
    cfg: SolverConfig,
    local_phase: bool = False,
    strict_second_order: bool = False,
) -> tuple[RunReport, list[IterationRecord]]:
    """Minimize with exact eigenpair and linear-system computations.

    Terminates at the first certified iterate pair: either the
    second-order branch certifies the current iterate directly, or a
    (regularized) Newton step lands the next gradient below eps_g while
    the current Hessian is certified. With ``local_phase`` the run
    continues in the quadratically convergent Newton loop instead of
    stopping. ``strict_second_order`` disables the post-line-search stop
    so termination always happens at a pointwise certified iterate. An
    objective without a dense Hessian raises before any evaluation.
    """
    cfg.validate()
    obj.require_dense_hessian()
    select = functools.partial(select_direction_exact, obj, cfg=cfg)
    algo = "exact-local" if local_phase else "exact"
    return _run_loop(obj, x0, cfg, algo, select, strict_second_order)


def run_inexact(
    obj: Objective,
    x0: Array,
    cfg: SolverConfig,
    strict_second_order: bool = False,
) -> tuple[RunReport, list[IterationRecord]]:
    """Minimize matrix-free, with randomized eigenvalue estimates and CG solves.

    Needs only Hessian-vector products. The Hessian-norm bound comes from
    the config when set, else from the problem constants. With constants,
    the run carries a lower bound on lambda_min(H) from each full-span
    Lanczos call along its path, through the constants' L_H, and skips the
    Lanczos calls it decides (``CurvatureBound``). There is no local phase
    on this path.
    """
    cfg.validate()  # before the seed reaches the generator
    U_H = cfg.U_H
    if U_H is None:
        if obj.constants is None:
            raise ConfigError(
                "the inexact loop needs a Hessian-norm bound: set cfg.U_H or "
                "declare problem constants"
            )
        U_H = obj.constants.U_H
    rng = np.random.Generator(np.random.Philox(cfg.rng_seed))
    bound = None if obj.constants is None else CurvatureBound(obj.constants.L_H)
    select = functools.partial(
        select_direction_inexact, obj, cfg=cfg, rng=rng, U_H=U_H, bound=bound
    )
    return _run_loop(obj, x0, cfg, "inexact", select, strict_second_order)
