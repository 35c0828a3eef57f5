"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] NN <name>: PASS/FAIL` line. The suite
runs at desk scale; the heaviest item is the 1000-seed Monte-Carlo batch.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from sols import (
    SolverConfig,
    StepKind,
    cg_capped,
    cg_iteration_cap,
    get_problem,
    lanczos_iteration_cap,
    lanczos_min_eig,
    run_exact,
    run_inexact,
    tolerance_max_term,
)
from sols.cli import main as cli_main

from conftest import (
    cg_iterates, constants_for, decrease_floor, local_rate_constants, wilson_slack, wilson_upper_zero,
)


def conclude(index: int, name: str, violations: int, detail: str = "") -> None:
    status = "PASS" if violations == 0 else f"FAIL ({violations} violations)"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] {index:02d} {name}: {status}{suffix}")
    assert violations == 0, f"criterion {index} ({name}): {violations} violations {detail}"


MC_CFG = SolverConfig(eps_g=1e-4, eps_H=1e-2, theta=0.5, eta=1.0, zeta=0.5, delta=1e-6)


@pytest.fixture(scope="session")
def quartic50_mc_batch():
    """1000 seeded inexact runs on the 50-D double-well, condensed."""
    problem = get_problem("quartic-saddle-50d")
    x0 = problem.start_point()
    out = []
    for seed in range(1000):
        obj = problem.make_objective()
        report, _ = run_inexact(obj, x0, MC_CFG.with_updates(rng_seed=seed))
        cert = report.certificate
        lam_oracle = None
        if cert is not None:
            lam_oracle = float(np.linalg.eigvalsh(obj.dense_hessian(cert.point))[0])
        out.append(
            {
                "status": report.status,
                "iterations": report.iterations,
                "cert_steps": None if cert is None else cert.steps,
                "cert_ops": None if cert is None else cert.counters.grad_plus_hv,
                "cert_g_norm": None if cert is None else cert.g_norm_min,
                "lam_oracle": lam_oracle,
                "envelope": report.envelope,
            }
        )
    return out


def test_criterion_01_sufficient_decrease(law_corpus):
    t0 = time.time()
    violations = rows = 0
    for run in law_corpus:
        eta = run.cfg.eta
        for r in run.records:
            rows += 1
            if not (r.decrease > (eta / 6.0) * r.alpha**3 * r.d_norm**3):
                violations += 1
    conclude(1, "sufficient decrease law", violations,
             f"{rows} rows, {len(law_corpus)} runs, {time.time() - t0:.1f}s")


def test_criterion_02_line_search_caps(law_corpus):
    from sols import theoretical_ls_cap

    violations = rows = 0
    for run in law_corpus:
        for r in run.records:
            rows += 1
            if r.j > theoretical_ls_cap(run.problem.constants, run.cfg, r.step_kind):
                violations += 1
    conclude(2, "backtracking caps", violations, f"{rows} rows")


def test_criterion_03_decrease_floors(law_corpus):
    violations = rows = 0
    for run in law_corpus:
        dc = constants_for(run)
        for r in run.records:
            rows += 1
            if not (r.decrease >= decrease_floor(r, dc, run.cfg) - 1e-12):
                violations += 1
    conclude(3, "per-step decrease floors", violations, f"{rows} rows")


def test_criterion_04_complexity_envelopes(law_corpus, quartic50_mc_batch):
    violations = 0
    for run in law_corpus:
        if run.report.status != "converged":
            violations += 1
            continue
        checks = run.report.envelope_checks()
        if not all(v for k, v in checks.items() if k.endswith("_ok")):
            violations += 1
    for entry in quartic50_mc_batch[:100]:
        env = entry["envelope"]
        if entry["status"] != "converged":
            violations += 1
            continue
        if entry["cert_steps"] > env.K_hat or entry["cert_ops"] > env.ops_bound:
            violations += 1
    conclude(4, "iteration/evaluation/operation envelopes", violations,
             f"{len(law_corpus)} corpus runs + 100 seeded runs")


def test_criterion_05_tolerance_scaling():
    saddle = get_problem("quartic-saddle-2d")
    offset = get_problem("quartic-offset-2d")
    violations = 0
    grown = []
    for eps in (1e-1, 3e-2, 1e-2):
        cfg = SolverConfig(eps_g=eps, eps_H=float(np.sqrt(eps)), theta=0.5, eta=1.0)
        args = (
            cfg.eps_g**-3 * cfg.eps_H**3,
            cfg.eps_g**-1.5,
            cfg.eps_H**-3,
        )
        spread = (max(args) - min(args)) / max(args)
        if spread > 1e-12:
            violations += 1
        if abs(tolerance_max_term(cfg.eps_g, cfg.eps_H) - eps**-1.5) > 1e-9 * eps**-1.5:
            violations += 1
        for problem in (saddle, offset):
            obj = problem.make_objective()
            report, _ = run_exact(obj, problem.start_point(), cfg)
            if report.status != "converged":
                violations += 1
                continue
            if report.certificate.steps > report.envelope.K_iter:
                violations += 1
            if problem is offset:
                grown.append((eps, report.certificate.steps))
    # growth no faster than the eps^{-3/2} envelope between sweep points
    for (eps_a, it_a), (eps_b, it_b) in zip(grown, grown[1:]):
        if it_b > max(it_a, 1) * (eps_a / eps_b) ** 1.5 + 1:
            violations += 1
    conclude(5, "tolerance scaling", violations,
             f"iteration counts {[n for _, n in grown]}")


def test_criterion_06_second_order_certificates(law_corpus, quartic50_mc_batch):
    violations = 0
    exact_checked = 0
    for run in law_corpus:
        if run.mode != "exact":
            continue
        cert = run.report.certificate
        if cert is None:
            violations += 1
            continue
        obj = run.problem.make_objective()
        lam = float(np.linalg.eigvalsh(obj.dense_hessian(cert.point))[0])
        exact_checked += 1
        if not (lam >= -run.cfg.eps_H and cert.g_norm_min <= run.cfg.eps_g):
            violations += 1

    failures = 0
    iters = []
    for entry in quartic50_mc_batch:
        if entry["status"] != "converged":
            failures += 1
            continue
        iters.append(entry["iterations"])
        ok = (
            entry["lam_oracle"] >= -MC_CFG.eps_H
            and entry["cert_g_norm"] <= MC_CFG.eps_g
        )
        if not ok:
            failures += 1
    # union bound over iterations per run, plus Wilson slack for 1000 trials
    bound = MC_CFG.delta * float(np.mean(iters)) + wilson_upper_zero(1000)
    rate = failures / 1000.0
    if rate > bound:
        violations += 1
    conclude(6, "second-order certificates", violations,
             f"{exact_checked} exact certificates, MC failure rate {rate:.4f} <= {bound:.4f}")


def test_criterion_07_local_quadratic_convergence():
    violations = 0
    tails = []
    for name, cfg in (
        ("quartic-convex-4d", SolverConfig(eps_g=1e-2, eps_H=0.5, theta=0.5, eta=1.0)),
        ("quartic-offset-2d", SolverConfig(eps_g=1e-2, eps_H=0.1, theta=0.5, eta=1.0)),
    ):
        problem = get_problem(name)
        # Half of min(1, smallest Hessian eigenvalue at the limit minimizer).
        H_star = problem.make_objective().dense_hessian(np.asarray(problem.x_star))
        mu = 0.5 * min(1.0, float(np.linalg.eigvalsh(H_star)[0]))
        threshold, contraction = local_rate_constants(
            problem.constants.L_H, cfg.eta, cfg.eps_g, mu
        )
        obj = problem.make_objective()
        report, records = run_exact(obj, problem.start_point(), cfg, local_phase=True)
        if report.status != "converged":
            violations += 1
            continue
        tail = [r for r in records if r.g_norm < threshold]
        if not tail:
            violations += 1
        tails.append(len(tail))
        for r in tail:
            if r.step_kind != StepKind.NEWTON or r.alpha != 1.0:
                violations += 1
            bound = min(contraction * r.g_norm**2, 0.375 * r.g_norm)
            if r.g_next_norm > bound * (1.0 + 1e-12):
                violations += 1
    conclude(7, "local quadratic convergence", violations, f"tail lengths {tails}")


def test_criterion_08_lanczos_contract():
    rng = np.random.default_rng(2024)
    eps, delta = 0.05, 0.01
    failures = trials = 0
    cap_violations = 0
    matrices = []
    for i in range(200):
        n = int(rng.integers(10, 101))
        A = rng.standard_normal((n, n))
        H = 0.5 * (A + A.T)
        matrices.append(H)
        lam_min = float(np.linalg.eigvalsh(H)[0])
        M = float(np.linalg.norm(H, 2)) + 2.0
        est = lanczos_min_eig(
            lambda v: H @ v, n, M=M, eps=eps, delta=delta,
            rng=np.random.Generator(np.random.Philox(9000 + i)),
        )
        trials += 1
        if est.lam > lam_min + eps:
            failures += 1
        if est.iters > lanczos_iteration_cap(n, M, eps, delta):
            cap_violations += 1

    # 1000-trial Monte-Carlo class on one fixed matrix
    H = matrices[0]
    n = H.shape[0]
    lam_min = float(np.linalg.eigvalsh(H)[0])
    M = float(np.linalg.norm(H, 2)) + 2.0
    class_failures = 0
    for t in range(1000):
        est = lanczos_min_eig(
            lambda v: H @ v, n, M=M, eps=eps, delta=delta,
            rng=np.random.Generator(np.random.Philox(50_000 + t)),
        )
        if est.lam > lam_min + eps:
            class_failures += 1
        if est.iters > lanczos_iteration_cap(n, M, eps, delta):
            cap_violations += 1
    class_rate = class_failures / 1000.0
    rate_200 = failures / trials

    # probability-one regime: a full Krylov space recovers the eigenvalue
    recovery_violations = 0
    for H in matrices[:20]:
        n = H.shape[0]
        lam_min = float(np.linalg.eigvalsh(H)[0])
        M = float(np.linalg.norm(H, 2)) + 2.0
        est = lanczos_min_eig(
            lambda v: H @ v, n, M=M, eps=eps, delta=0.0,
            rng=np.random.Generator(np.random.Philox(77)),
        )
        if abs(est.lam - lam_min) > 1e-8 * max(1.0, abs(lam_min)):
            recovery_violations += 1

    violations = cap_violations + recovery_violations
    if rate_200 > delta + wilson_slack(delta, trials):
        violations += 1
    if class_rate > delta + wilson_slack(delta, 1000):
        violations += 1
    conclude(8, "randomized eigenvalue contract", violations,
             f"200-matrix rate {rate_200:.3f}, class rate {class_rate:.3f}")


def test_criterion_09_cg_contract():
    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(2, 41))
        spectrum = rng.uniform(0.05, 10.0, size=n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(spectrum) @ Q.T
        m, M = float(spectrum.min()), float(spectrum.max())
        zeta = float(rng.uniform(0.05, 0.9))
        g = rng.standard_normal(n)
        out = cg_capped(lambda v: A @ v, g, m=m, M=M, zeta=zeta, n=n)
        if out.status != "converged":
            violations += 1
            continue
        if out.iters > cg_iteration_cap(n, m, M, zeta):
            violations += 1
        gnorm = float(np.linalg.norm(g))
        resid = float(np.linalg.norm(A @ out.d + g))
        if resid > 0.5 * zeta * min(gnorm, m * float(np.linalg.norm(out.d))) + 1e-10 * gnorm:
            violations += 1
        kappa = M / m
        rho = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
        history = cg_iterates(lambda v: A @ v, g, m, M, zeta, out.iters)
        for q, it in enumerate(history, start=1):
            envelope = 2.0 * np.sqrt(kappa) * rho**q * gnorm
            if it.final_residual_norm > envelope * (1 + 1e-10) + 1e-12:
                violations += 1
            if float(np.linalg.norm(it.d)) < gnorm / M - 1e-12:
                violations += 1
    conclude(9, "capped conjugate gradient contract", violations, "200 systems")


def test_criterion_10_scalar_root_inequality():
    rng = np.random.default_rng(5)
    a = rng.uniform(1e-6, 10.0, size=100_000)
    b = rng.uniform(1e-6, 10.0, size=100_000)
    t = rng.uniform(0.0, 5.0, size=100_000)
    lhs = -a + np.sqrt(a * a + b * t)
    rhs = (-a + np.sqrt(a * a + b)) * np.minimum(t, 1.0)
    violations = int(np.sum(lhs < rhs))
    conclude(10, "scalar root inequality", violations, "100000 samples")


def test_criterion_11_determinism(tmp_path):
    spec = [
        "run", "--problem", "quartic-saddle-50d", "--algo", "inexact",
        "--eps-g", "1e-4", "--eps-H", "1e-2", "--seed", "7,8",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(spec + ["--out", str(dir_a)]) == 0
    assert cli_main(spec + ["--out", str(dir_b)]) == 0
    violations = 0
    names = sorted(p.name for p in dir_a.iterdir())
    if names != sorted(p.name for p in dir_b.iterdir()):
        violations += 1
    for name in names:
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            violations += 1
    conclude(11, "byte-identical reruns", violations, f"{len(names)} files compared")
