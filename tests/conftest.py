"""Shared fixtures: the run corpus and law-checking helpers."""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import sols
from sols import (
    CgOutcome,
    DecreaseConstants,
    LineSearchResult,
    LineSearchStallError,
    SolverConfig,
    StepKind,
    cg_capped,
    decrease_constants,
    get_problem,
    run_exact,
    run_inexact,
    suite,
)
from sols.operators import norm
from sols.problems import rosenbrock

# Three solver configurations spanning loose and tight tolerances, distinct
# backtracking ratios, and distinct decrease weights. Every suite problem
# converges under each of them in both modes.
LAW_CONFIGS = (
    SolverConfig(eps_g=1e-4, eps_H=0.05, theta=0.5, eta=1.0, zeta=0.5, delta=1e-6),
    SolverConfig(
        eps_g=1e-5, eps_H=0.0031622776601683794, theta=0.7, eta=0.2, zeta=0.2, delta=1e-6
    ),
    SolverConfig(eps_g=1e-3, eps_H=0.3, theta=0.4, eta=2.0, zeta=0.8, delta=1e-6),
)


@dataclass(frozen=True)
class CorpusRun:
    problem: object
    cfg: SolverConfig
    mode: str
    report: object
    records: tuple


@pytest.fixture(scope="session")
def law_corpus() -> list[CorpusRun]:
    """Every suite problem under every law config, exact and inexact."""
    runs = []
    for problem in suite():
        for cfg in LAW_CONFIGS:
            for mode in ("exact", "inexact"):
                obj = problem.make_objective()
                if mode == "exact":
                    report, records = run_exact(obj, problem.start_point(), cfg)
                else:
                    report, records = run_inexact(obj, problem.start_point(), cfg)
                runs.append(CorpusRun(problem, cfg, mode, report, tuple(records)))
    return runs


def decrease_floor(row, dc: DecreaseConstants, cfg: SolverConfig) -> float:
    """The per-step guaranteed decrease for a trace row's direction kind."""
    kind = row.step_kind
    if kind in StepKind.CUBIC_CURVATURE:
        return dc.c_e * row.d_norm**3
    if kind == StepKind.NORMALIZED_GRADIENT:
        return dc.c_g * min(cfg.eps_g**3 * cfg.eps_H**-3, cfg.eps_g**1.5)
    if kind == StepKind.NEWTON:
        return dc.c_n * min(row.g_next_norm**1.5, cfg.eps_H**3)
    if kind == StepKind.REGULARIZED_NEWTON:
        return dc.c_r * min(row.g_next_norm**3 * cfg.eps_H**-3, cfg.eps_H**3)
    if kind == StepKind.INEXACT_NEWTON:
        return dc.c_in * min(row.g_next_norm**3 * cfg.eps_H**-3, cfg.eps_H**3)
    if kind == StepKind.INEXACT_REGULARIZED_NEWTON:
        return dc.c_ir * min(row.g_next_norm**3 * cfg.eps_H**-3, cfg.eps_H**3)
    raise ValueError(f"unknown step kind {kind!r}")


def constants_for(run: CorpusRun) -> DecreaseConstants:
    return decrease_constants(
        run.cfg.theta, run.cfg.eta, run.problem.constants.L_H, run.cfg.zeta
    )


def local_rate_constants(
    L_H: float, eta: float, eps_g: float, mu: float
) -> tuple[float, float]:
    """Entry threshold and quadratic coefficient of the local Newton regime.

    ``mu`` is half of min(1, smallest Hessian eigenvalue at the limit
    minimizer). Once the gradient norm drops below the returned threshold,
    unit Newton steps contract it quadratically with the returned
    coefficient (and by at least the fixed factor 3/8 per step).
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    threshold = min(3.0 * mu**4 / (L_H + eta), eps_g)
    contraction = L_H / (2.0 * mu**2)
    return threshold, contraction


def wilson_upper_zero(n: int, z: float = 3.0) -> float:
    """Wilson-interval upper bound on a proportion when zero events are seen."""
    return z * z / (n + z * z)


def wilson_slack(p: float, n: int, z: float = 3.0) -> float:
    return z * math.sqrt(p * (1.0 - p) / n) + z * z / (2.0 * n)


def cg_iterates(apply_A, g, m: float, M: float, zeta: float, iters: int) -> list[CgOutcome]:
    """CG's iterates d_1 ... d_iters, taken from the public solver.

    For q at most the iterations of the uncapped solve, the a-priori cap
    ``cg_iteration_cap(q, m, M, zeta)`` is exactly q (that solve ran within
    its own cap, which is not below q), so ``cg_capped(..., n=q)`` stops after
    q iterations. Its outcome holds the iterate d_q and CG's own residual
    norm ||r_q||, bit for bit as in the uncapped solve.
    """
    outs = []
    for q in range(1, iters + 1):
        out = cg_capped(apply_A, g, m=m, M=M, zeta=zeta, n=q)
        assert out.iters == q
        outs.append(out)
    return outs


# Scaling by a power of two is exact for these systems: no product over- or
# underflows, so every quantity an inner solver computes scales exactly too.
POWER_OF_TWO_SCALES = (2.0**-100, 2.0**-66, 2.0**-33, 2.0**33, 2.0**100)


def scaling_systems() -> list:
    """``(id, A, g)``: random SPD systems with spectra in [0.5, 8], an
    isotropic one, one with a negative-curvature direction and one with an
    exactly zero-curvature direction (p = -g with p'Ap = 1 - 1)."""
    rng = np.random.default_rng(29)
    systems = []
    for n in (2, 5, 50):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * rng.uniform(0.5, 8.0, n)) @ Q.T
        systems.append((f"spd-n{n}", A, rng.standard_normal(n)))
    systems.append(("isotropic", 3.0 * np.eye(4), rng.standard_normal(4)))
    systems.append(("negative-curvature", np.diag([-1.0, 2.0]), np.array([1.0, 1.0])))
    systems.append(("zero-curvature", np.diag([1.0, -1.0]), np.array([1.0, 1.0])))
    return systems


@functools.cache
def rosenbrock_100d():
    """The chained Rosenbrock function at n = 100 from its alternating
    -1.2/1.0 start, as the benchmark's ``rosen100-inexact`` builds it."""
    return rosenbrock(
        "rosenbrock-100d",
        n=100,
        x0=[-1.2 if i % 2 == 0 else 1.0 for i in range(100)],
        branch_coverage=[],
        coverage_config=SolverConfig(),
    )


def bench_hessians() -> tuple:
    """``(id, hv, n, U_H)`` for the Hessians the benchmark's inexact runs
    see: quartic-saddle-50d and ``rosenbrock_100d``, each at its start point
    and at three seeded points near it. ``hv`` goes through
    ``Objective.hessian_vector``, as in the solver."""
    cases = []
    for problem in (get_problem("quartic-saddle-50d"), rosenbrock_100d()):
        obj = problem.make_objective()
        rng = np.random.default_rng(17)
        x0 = problem.start_point()
        points = [x0] + [x0 + 0.3 * rng.standard_normal(problem.dim) for _ in range(3)]
        for i, x in enumerate(points):
            cases.append(
                (f"{problem.name}-x{i}", functools.partial(obj.hessian_vector, x),
                 problem.dim, problem.constants.U_H)
            )
    return tuple(cases)


def run_python(script: str, *args: str) -> list[str]:
    """The stdout lines of ``script`` run with ``args`` in a fresh
    interpreter that imports this checkout's ``sols`` and, as ``conftest``,
    this module. The run must exit 0."""
    paths = (
        str(Path(sols.__file__).resolve().parent.parent),
        str(Path(__file__).resolve().parent),
        os.environ.get("PYTHONPATH"),
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def exhaustive_backtrack(obj, x, f_x, d, cfg, kind=None):
    """The backtracking loop that evaluates every trial point, even one equal
    to x: a stall always costs max_ls_steps + 1 evaluations. Same arithmetic
    as ``sols.backtrack`` otherwise, so accepted steps agree bit for bit."""
    d = np.asarray(d, dtype=float)
    base = (cfg.eta / 6.0) * norm(d) ** 3
    alpha = 1.0
    for j in range(cfg.max_ls_steps + 1):
        f_trial = obj.value(x + alpha * d)
        if f_trial < f_x - base * alpha**3:
            return LineSearchResult(
                alpha=alpha, j=j, decrease=f_x - f_trial, probes=j + 1, f_new=f_trial
            )
        alpha *= cfg.theta
    raise LineSearchStallError(
        f"line-search stall: no acceptable step within {cfg.max_ls_steps} backtracks", {}
    )
