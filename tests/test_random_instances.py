"""The decrease laws and certificates on randomly drawn family instances.

The fixed law corpus is the suite under three configs. Here hypothesis
draws a ``separable_quartic`` or ``rosenbrock`` instance and a solver
config, and runs exact, exact-local and inexact on it. Draws are
derandomized, so every run of the test sees the same instances.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sols import (
    SolverConfig,
    decrease_constants,
    run_exact,
    run_inexact,
    theoretical_ls_cap,
)
from sols.driver import HARD_ERROR_STATUS
from sols.operators import EvalCounters
from sols.problems import rosenbrock, separable_quartic
from sols.steps import ConfigError

from conftest import decrease_floor

STATUSES = ("converged", "max_iters", *HARD_ERROR_STATUS.values())
LOOPS = {
    "exact": run_exact,
    "exact-local": functools.partial(run_exact, local_phase=True),
    "inexact": run_inexact,
}


@st.composite
def draws(draw):
    """``(name, build, cfg)``: a family instance, built by ``build()``, and a
    solver config. Hypothesis picks the family, n and a seed; the seed draws
    the reals uniformly, log-uniformly for the tolerances."""
    uniform = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform
    cfg = SolverConfig(
        eps_g=10.0 ** uniform(-7.0, -2.0),
        eps_H=10.0 ** uniform(-3.0, math.log10(0.3)),
        theta=uniform(0.1, 0.9),
        eta=uniform(0.1, 3.0),
        zeta=uniform(0.0, 0.9),
    )
    if draw(st.booleans()):
        n = draw(st.integers(1, 24))
        d, beta, x0 = uniform(-2.0, 2.0, n), uniform(0.05, 2.0, n), uniform(-1.5, 1.5, n)
        name = f"quartic-{n}d"
        return name, functools.partial(separable_quartic, name, d, beta, 0.0, x0, [], cfg), cfg
    n = draw(st.integers(2, 14))
    x0 = uniform(-2.0, 2.0, n)
    name = f"rosenbrock-{n}d"
    return name, functools.partial(rosenbrock, name, n, x0, [], cfg), cfg


def test_random_instances_keep_the_laws():
    outcomes = Counter()
    # Local-phase rows may break criteria 02 and 03: at the float64 floor a
    # step's decrease is a few ulp of f. They are printed, not asserted.
    local_breaks = []

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(draws())
    def check(drawn):
        name, build, cfg = drawn
        try:
            problem = build()
        except ValueError as exc:
            assert str(exc).startswith(f"{name}: ")
            outcomes["family ValueError"] += 1
            return
        pc = problem.constants
        dc = decrease_constants(cfg.theta, cfg.eta, pc.L_H, cfg.zeta)
        for loop, run in LOOPS.items():
            obj = problem.make_objective()
            try:
                report, records = run(obj, problem.start_point(), cfg)
            except ConfigError:
                # The backtracking budget is checked before any evaluation.
                assert obj.counters == EvalCounters()
                outcomes[f"{loop} ConfigError"] += 1
                continue
            outcomes[f"{loop} {report.status}"] += 1
            assert report.status in STATUSES
            assert report.iterations == len(records)
            # Each row's gradient is the one the row before it ended at.
            for before, after in zip(records, records[1:]):
                assert after.g_norm == before.g_next_norm, (name, loop, after.k)
            for r in records:
                # Criterion 01.
                assert r.decrease > (cfg.eta / 6.0) * r.alpha**3 * r.d_norm**3
                cap = theoretical_ls_cap(pc, cfg, r.step_kind)
                floor = decrease_floor(r, dc, cfg)
                # Criteria 02 and 03, on main-phase rows.
                if r.phase == "main":
                    assert r.j <= cap
                    assert r.decrease >= floor - 1e-12
                    outcomes["main-phase rows that need criterion 03's 1e-12"] += (
                        r.decrease < floor
                    )
                elif r.j > cap or r.decrease < floor - 1e-12:
                    local_breaks.append(
                        f"{problem.name} {loop} {report.status}: k={r.k} {r.step_kind} "
                        f"j={r.j} cap={cap} decrease={r.decrease:.3e} floor={floor:.3e} "
                        f"g_norm={r.g_norm:.2e}"
                    )
            cert = report.certificate
            if cert is not None:
                lam = float(np.linalg.eigvalsh(obj.dense_hessian(cert.point))[0])
                assert lam >= -cfg.eps_H and cert.g_norm_min <= cfg.eps_g
            if report.converged:
                assert report.all_envelope_checks_pass()

    check()
    for key, count in sorted(outcomes.items()):
        print(f"[random instances] {key}: {count}")
    for line in local_breaks:
        print(f"[random instances] local-phase row breaks 02/03: {line}")
