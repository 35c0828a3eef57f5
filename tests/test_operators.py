"""Objective interface: derivative checks, curvature ratio, counters."""

from __future__ import annotations

import numpy as np
import pytest

from sols import Objective, get_problem, problem_names, rayleigh_quotient, suite
from sols.operators import EvalCounters, ProblemConstants


def quadratic_objective(A: np.ndarray, constants=None) -> Objective:
    A = np.asarray(A, dtype=float)
    return Objective(
        dim=A.shape[0],
        value=lambda x: 0.5 * x @ A @ x,
        gradient=lambda x: A @ x,
        hessian_vector=lambda x, v: A @ v,
        dense_hessian=lambda x: A,
        constants=constants,
    )


def _independent_rosenbrock_gradient(x: np.ndarray) -> np.ndarray:
    # Re-derived by expanding f = 100 (y - x^2)^2 + (1 - x)^2 termwise,
    # deliberately arranged differently from the library's form.
    x1, x2 = x
    df_dx1 = 400.0 * x1**3 - 400.0 * x1 * x2 + 2.0 * x1 - 2.0
    df_dx2 = 200.0 * x2 - 200.0 * x1**2
    return np.array([df_dx1, df_dx2])


def test_rosenbrock_gradient_matches_an_independent_derivation():
    problem = next(p for p in suite() if p.name == "rosenbrock-2d")
    obj = problem.make_objective()
    x = np.array([-1.2, 1.0])
    assert np.allclose(obj.gradient(x), _independent_rosenbrock_gradient(x), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("name", problem_names())
def test_derivatives_match_central_differences(name):
    """g against central differences of f, and Hv against those of g.

    Checked along every coordinate at the start point and three points of
    its level set near it. Every probe stays in the box on which the
    declared constants hold (it has a 10% margin), so L_H bounds the third
    derivative and U_H the Hessian there. Each callback value is taken as
    accurate to r = (n + 2) eps (1 + its magnitude) on the probes: a sum of
    n + 2 rounded terms. Dividing by the probes' true spacing leaves only
    an asymmetry of eps |x_i| between the two steps.

    - Gradient, step h = eps^(1/3): |fd - g_i| <= h^2 L_H / 6 (truncation)
      + r / h (roundoff) + eps |x_i| U_H (asymmetry). At rosenbrock-2d's
      start point this is below 2e-9 max(1, |g_i|).
    - Hv, step k = eps^(1/2): the Hessian is only known to be Lipschitz, so
      |fd - H e_i| <= k L_H / 2 (truncation) + r / k (roundoff) per entry.
    """
    problem = get_problem(name)
    obj = problem.make_objective()
    n, c = problem.dim, problem.constants
    eps = np.finfo(float).eps
    h, k = eps ** (1.0 / 3.0), eps**0.5
    x0 = problem.start_point()
    f0 = obj.value(x0)
    rng = np.random.default_rng(1)
    steps = 0.1 * (1.0 + np.max(np.abs(x0))) * rng.standard_normal((16, n))
    points = [x0] + [x for x in x0 + steps if obj.value(x) <= f0][:3]
    assert len(points) == 4
    for x in points:
        g = obj.gradient(x)
        for i, e in enumerate(np.eye(n)):
            xp, xm = x + h * e, x - h * e
            fp, fm = obj.value(xp), obj.value(xm)
            r = (n + 2) * eps * (1.0 + max(abs(fp), abs(fm)))
            tol = h * h * c.L_H / 6.0 + r / h + eps * abs(x[i]) * c.U_H
            assert abs((fp - fm) / (xp[i] - xm[i]) - g[i]) <= tol, (x, i)

            xp, xm = x + k * e, x - k * e
            gp, gm = obj.gradient(xp), obj.gradient(xm)
            r = (n + 2) * eps * (1.0 + max(np.max(np.abs(gp)), np.max(np.abs(gm))))
            fd = (gp - gm) / (xp[i] - xm[i])
            assert np.max(np.abs(fd - obj.hessian_vector(x, e))) <= k * c.L_H / 2.0 + r / k, (x, i)


def test_rayleigh_quotient_eigenvector_input():
    obj = quadratic_objective(np.diag([2.0, -3.0]))
    assert rayleigh_quotient(obj, np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(2.0)


def test_rayleigh_quotient_mixed_input():
    obj = quadratic_objective(np.diag([2.0, -3.0]))
    R = rayleigh_quotient(obj, np.zeros(2), np.array([1.0, 1.0]))
    assert R == pytest.approx(-0.5, abs=1e-15)


def test_rayleigh_quotient_matches_dense_oracle():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    H = 0.5 * (A + A.T)
    obj = quadratic_objective(H)
    g = rng.standard_normal(5)
    dense = float(g @ H @ g / (g @ g))
    assert rayleigh_quotient(obj, np.zeros(5), g) == pytest.approx(dense, abs=1e-12)


def test_rayleigh_quotient_zero_vector_rejected():
    obj = quadratic_objective(np.eye(2))
    with pytest.raises(ValueError):
        rayleigh_quotient(obj, np.zeros(2), np.zeros(2))


def test_rayleigh_quotient_counts_one_hv():
    obj = quadratic_objective(np.eye(2))
    rayleigh_quotient(obj, np.zeros(2), np.array([1.0, 1.0]))
    assert obj.counters.n_hv == 1
    assert obj.counters.n_f == 0 and obj.counters.n_grad == 0


def test_rayleigh_quotient_within_spectrum_on_suite():
    rng = np.random.default_rng(11)
    for problem in suite():
        obj = problem.make_objective()
        x = problem.start_point() + 0.1 * rng.standard_normal(problem.dim)
        H = obj.dense_hessian(x)
        w = np.linalg.eigvalsh(H)
        for _ in range(5):
            g = rng.standard_normal(problem.dim)
            R = rayleigh_quotient(obj, x, g)
            assert w[0] - 1e-9 <= R <= w[-1] + 1e-9


def test_hessian_vector_linearity_and_symmetry_on_suite():
    rng = np.random.default_rng(3)
    for problem in suite():
        obj = problem.make_objective()
        n = problem.dim
        for _ in range(100):
            x = problem.start_point() + 0.2 * rng.standard_normal(n)
            u = rng.standard_normal(n)
            w = rng.standard_normal(n)
            a, b = rng.standard_normal(2)
            lin_lhs = obj.hessian_vector(x, a * u + b * w)
            lin_rhs = a * obj.hessian_vector(x, u) + b * obj.hessian_vector(x, w)
            scale = max(1.0, float(np.max(np.abs(lin_rhs))))
            assert np.max(np.abs(lin_lhs - lin_rhs)) <= 1e-8 * scale
            sym_lhs = float(u @ obj.hessian_vector(x, w))
            sym_rhs = float(w @ obj.hessian_vector(x, u))
            assert abs(sym_lhs - sym_rhs) <= 1e-8 * max(1.0, abs(sym_rhs))


def test_hessian_vector_matches_dense_on_suite():
    rng = np.random.default_rng(5)
    for problem in suite():
        obj = problem.make_objective()
        x = problem.start_point() + 0.1 * rng.standard_normal(problem.dim)
        H = obj.dense_hessian(x)
        v = rng.standard_normal(problem.dim)
        assert np.allclose(obj.hessian_vector(x, v), H @ v, atol=1e-9 * (1 + np.abs(H).max()))


def test_objective_counters_match_raw_call_counts():
    calls = {"f": 0, "g": 0, "hv": 0}

    def value(x):
        calls["f"] += 1
        return float(x @ x)

    def gradient(x):
        calls["g"] += 1
        return 2.0 * x

    def hessian_vector(x, v):
        calls["hv"] += 1
        return 2.0 * v

    obj = Objective(3, value, gradient, hessian_vector)
    x = np.ones(3)
    for _ in range(4):
        obj.value(x)
    for _ in range(3):
        obj.gradient(x)
    for _ in range(2):
        obj.hessian_vector(x, x)
    assert (obj.counters.n_f, obj.counters.n_grad, obj.counters.n_hv) == (4, 3, 2)
    assert calls == {"f": 4, "g": 3, "hv": 2}


def test_counters_monotone_and_snapshot_independent():
    counters = EvalCounters()
    counters.n_f += 2
    snap = counters.snapshot()
    counters.n_f += 1
    assert snap.n_f == 2 and counters.n_f == 3


def test_problem_constants_validation():
    valid = {"L_H": 1.0, "U_g": 1.0, "U_H": 1.0, "f_low": 0.0}
    ProblemConstants(**valid)
    for bad, match in [
        ({"U_g": 0.0}, "U_g and U_H must be positive"),
        ({"L_H": -1.0}, "L_H must be nonnegative"),
        ({"L_H": np.nan}, "L_H must be nonnegative and finite, got nan"),
        ({"L_H": np.inf}, "L_H must be nonnegative and finite, got inf"),
        ({"U_g": np.nan}, "U_g and U_H must be positive and finite, got nan and 1.0"),
        ({"U_g": np.inf}, "U_g and U_H must be positive and finite, got inf and 1.0"),
        ({"U_H": np.nan}, "U_g and U_H must be positive and finite, got 1.0 and nan"),
        ({"U_H": np.inf}, "U_g and U_H must be positive and finite, got 1.0 and inf"),
        ({"U_H": -np.inf}, "U_g and U_H must be positive and finite, got 1.0 and -inf"),
        ({"f_low": np.nan}, "f_low must be finite"),
        ({"f_low": -np.inf}, "f_low must be finite"),
    ]:
        with pytest.raises(ValueError, match=match):
            ProblemConstants(**{**valid, **bad})


def test_objective_rejects_nonpositive_dim():
    # Also every dim that is not an integer, which int() would truncate.
    for dim in (0, -1, 2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            Objective(dim, lambda x: 0.0, lambda x: x, lambda x, v: v)


def test_objective_accepts_a_numpy_integer_dim():
    obj = Objective(np.int64(3), lambda x: 0.0, lambda x: x, lambda x, v: v)
    assert obj.dim == 3 and type(obj.dim) is int


def test_missing_dense_hessian_raises():
    obj = Objective(2, lambda x: 0.0, lambda x: np.zeros(2), lambda x, v: np.zeros(2))
    with pytest.raises(ValueError):
        obj.dense_hessian(np.zeros(2))
