"""Every loop is rotation-equivariant: a run on f(Qy) makes the decisions of the run on f.

The method sees a problem only through f, g, Hv and H, and for an orthogonal
Q each of them maps by Q: the run on f(Qy) from Qᵀx0 meets the rotated
images of the points, gradients and curvatures of the run on f from x0. The
inexact loop's Lanczos starts are drawn through a generator whose
``standard_normal(n)`` returns Qᵀz for the z it would draw, which leaves
their distribution unchanged. So both runs take the same step kinds, with
the same backtracking counts and evaluation counts, and end with the same
status. These are decisions, so they are compared exactly.

Two kinds of run do not fit this oracle:
- A start with g = 0 exactly (``quartic-saddle-2d`` and ``quartic-saddle-50d``)
  leaves the exact loops a free sign: the escape direction is the
  eigenvector ``eigh`` returns, and its sign is not rotation-equivariant, so
  the two runs may go to different wells. There only the status and each
  run's certificate, checked against the dense eigenvalue oracle, are
  compared.
- ``exact-local`` ends at the float64 floor on some problems, where which
  trial point float64 absorbs depends on rounding alone; those runs end at a
  different row, with different counts, or with a different status.
"""

from __future__ import annotations

import numpy as np
import pytest

from sols import driver
from sols.driver import run_exact, run_inexact
from sols.operators import Objective
from sols.problems import get_problem, problem_names

ALGOS = ("exact", "exact-local", "inexact")
SEEDS = (0, 1)

# The exact-local runs whose rotation ends apart, measured at these seeds.
FLOAT64_FLOOR = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: exact-local ends at the float64 floor, where the row, the "
    "counts and the status depend on rounding",
)
AT_THE_FLOOR = {
    ("quartic-saddle-2d", 0),
    ("quartic-offset-2d", 0),
    ("quartic-offset-2d", 1),
    ("quartic-saddle-50d", 0),
    ("rosenbrock-10d", 0),
    ("rosenbrock-10d", 1),
}


class RotatedNormals:
    """A generator whose ``standard_normal(n)`` is Qᵀz for the z of ``rng``."""

    def __init__(self, rng: np.random.Generator, Q: np.ndarray):
        self.rng, self.Q = rng, Q

    def standard_normal(self, n: int) -> np.ndarray:
        return self.Q.T @ self.rng.standard_normal(n)


def rotated(obj: Objective, Q: np.ndarray) -> Objective:
    """y ↦ f(Qy), with its gradient, products and dense Hessian, and f's constants."""
    return Objective(
        obj.dim,
        lambda y: obj.value(Q @ y),
        lambda y: Q.T @ obj.gradient(Q @ y),
        lambda y, v: Q.T @ obj.hessian_vector(Q @ y, Q @ v),
        lambda y: Q.T @ obj.dense_hessian(Q @ y) @ Q,
        constants=obj.constants,
        name=obj.name,
    )


def run(obj: Objective, x0: np.ndarray, algo: str, cfg):
    if algo == "inexact":
        return run_inexact(obj, x0, cfg)
    return run_exact(obj, x0, cfg, local_phase=algo == "exact-local")


def passes_dense_oracle(obj: Objective, report, cfg) -> bool:
    cert = report.certificate
    lam = float(np.linalg.eigvalsh(obj.dense_hessian(cert.point))[0])
    return lam >= -cfg.eps_H and cert.g_norm_min <= cfg.eps_g


@pytest.mark.parametrize(
    "name, algo, seed",
    [
        pytest.param(
            name, algo, seed,
            marks=[FLOAT64_FLOOR] if algo == "exact-local" and (name, seed) in AT_THE_FLOOR else [],
        )
        for name in problem_names()
        for algo in ALGOS
        for seed in SEEDS
    ],
)
def test_a_rotated_problem_gets_the_same_decisions(monkeypatch, name, algo, seed):
    problem = get_problem(name)
    cfg = problem.coverage_config.with_updates(rng_seed=seed)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((problem.dim, problem.dim)))
    x0 = problem.start_point()

    plain = problem.make_objective()
    report, records = run(plain, x0, algo, cfg)
    select = driver.select_direction_inexact
    monkeypatch.setattr(
        driver,
        "select_direction_inexact",
        lambda *args, rng, **kwargs: select(*args, rng=RotatedNormals(rng, Q), **kwargs),
    )
    turned = rotated(problem.make_objective(), Q)
    turned_report, turned_records = run(turned, Q.T @ x0, algo, cfg)

    assert turned_report.status == report.status
    if algo != "inexact" and not plain.gradient(x0).any():
        # A free sign at a g = 0 start: each run must still certify a true
        # second-order point.
        assert passes_dense_oracle(plain, report, cfg)
        assert passes_dense_oracle(turned, turned_report, cfg)
        return
    decisions = [[(r.step_kind, r.j) for r in recs] for recs in (records, turned_records)]
    assert decisions[1] == decisions[0]
    counts = [(c.n_f, c.n_grad, c.n_hv) for c in (report.counters, turned_report.counters)]
    assert counts[1] == counts[0]
