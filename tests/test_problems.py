"""Problem suite: constants, coverage, and construction checks."""

from __future__ import annotations

import numpy as np
import pytest

from sols import StepKind, get_problem, problem_names, rayleigh_quotient, run_exact, suite
import sols.problems
from sols.problems import (
    ConstantsError,
    _banded_product,
    _rosenbrock_bands,
    _rosenbrock_hessian,
    separable_quartic,
    verify_constants,
)
from sols.steps import SolverConfig

from test_operators import quadratic_objective


def test_suite_has_at_least_six_problems_with_unique_names():
    names = problem_names()
    assert len(names) >= 6
    assert len(set(names)) == len(names)


def test_get_problem_unknown_raises():
    with pytest.raises(KeyError):
        get_problem("missing-problem")


@pytest.fixture
def fresh_registry(monkeypatch):
    """An empty problem cache whose ``verify_constants`` calls are counted."""
    verified = []
    real = sols.problems.verify_constants

    def counting(problem, *args, **kwargs):
        verified.append(problem.name)
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(sols.problems, "verify_constants", counting)
    get_problem.cache_clear()
    yield verified
    get_problem.cache_clear()


def test_problem_names_builds_nothing(fresh_registry):
    names = problem_names()
    assert names[0] == "quad-convex-2d" and names[-1] == "rosenbrock-10d"
    assert fresh_registry == []


def test_get_problem_builds_one_problem_once(fresh_registry):
    p = get_problem("rosenbrock-10d")
    assert get_problem("rosenbrock-10d") is p
    assert fresh_registry == ["rosenbrock-10d"]


def test_suite_shares_the_cached_problems_in_order(fresh_registry):
    first = get_problem("flat-1d")
    problems = suite()
    assert [p.name for p in problems] == problem_names()
    assert all(p is get_problem(p.name) for p in problems)
    assert problems[problem_names().index("flat-1d")] is first
    assert all(a is b for a, b in zip(suite(), problems))
    assert sorted(fresh_registry) == sorted(problem_names())  # each verified once
    with pytest.raises(KeyError, match="unknown problem 'missing-problem'"):
        get_problem("missing-problem")


def test_quartic_saddle_at_origin():
    p = get_problem("quartic-saddle-2d")
    obj = p.make_objective()
    x0 = p.start_point()
    assert np.allclose(obj.gradient(x0), 0.0)
    H = obj.dense_hessian(x0)
    assert np.allclose(H, -np.eye(2))
    assert obj.value(x0) == pytest.approx(0.5)


def test_indefinite_quadratic_curvature_ratio_fixture():
    # The classic saddle fixture: ratio (1 - rho^2) / (1 + rho^2) at (1, rho).
    obj = quadratic_objective(np.diag([1.0, -1.0]))
    x = np.array([1.0, 0.1])
    g = obj.gradient(x)
    R = rayleigh_quotient(obj, x, g)
    assert R == pytest.approx((1.0 - 0.01) / 1.01, abs=1e-15)
    assert R == pytest.approx(0.9802, abs=1e-4)


def test_rosenbrock_minimum_and_floor():
    for name in ("rosenbrock-2d", "rosenbrock-10d"):
        p = get_problem(name)
        obj = p.make_objective()
        ones = np.ones(p.dim)
        assert obj.value(ones) == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(obj.gradient(ones), 0.0, atol=1e-12)
        assert p.constants.f_low == 0.0


def test_known_minimizers_consistent():
    for p in suite():
        obj = p.make_objective()
        assert obj.value(np.asarray(p.x_star)) == pytest.approx(p.constants.f_low, abs=1e-10)


def test_constants_positive_and_f0_above_floor():
    for p in suite():
        pc = p.constants
        assert pc.U_g > 0 and pc.U_H > 0 and pc.L_H >= 0 and pc.L_g >= 0
        assert p.make_objective().value(p.start_point()) >= pc.f_low


def test_sampling_verifier_accepts_declared_constants():
    for p in suite():
        verify_constants(p, n_points=60, seed=777)


def test_sampling_verifier_rejects_misdeclared_constants():
    import dataclasses

    honest = separable_quartic(
        "bad-decl",
        d=[1.0, 2.0],
        beta=0.0,
        c0=0.0,
        x0=[1.0, 1.0],
        branch_coverage=[StepKind.NEWTON],
        coverage_config=SolverConfig(),
    )
    # shrink the declared gradient bound far below the honest one
    lying = dataclasses.replace(
        honest, constants=dataclasses.replace(honest.constants, U_g=1e-6)
    )
    with pytest.raises(ConstantsError):
        verify_constants(lying)


def test_branch_coverage_under_documented_configs():
    for p in suite():
        obj = p.make_objective()
        report, records = run_exact(obj, p.start_point(), p.coverage_config)
        assert report.status == "converged", p.name
        observed = {r.step_kind for r in records}
        assert p.branch_coverage <= observed, (
            f"{p.name}: declared {sorted(p.branch_coverage)}, saw {sorted(observed)}"
        )


def test_every_exact_step_kind_covered_by_some_problem():
    covered = set()
    for p in suite():
        obj = p.make_objective()
        _, records = run_exact(obj, p.start_point(), p.coverage_config)
        covered |= {r.step_kind for r in records}
    assert {
        StepKind.SCALED_NEG_CURV_GRADIENT,
        StepKind.NORMALIZED_GRADIENT,
        StepKind.NEGATIVE_CURVATURE,
        StepKind.NEWTON,
        StepKind.REGULARIZED_NEWTON,
    } <= covered


def test_objectives_are_independent_instances():
    p = get_problem("quad-convex-2d")
    a, b = p.make_objective(), p.make_objective()
    a.value(p.start_point())
    assert a.counters.n_f == 1
    assert b.counters.n_f == 0


def test_degenerate_family_parameters_rejected():
    with pytest.raises(ValueError):
        separable_quartic(
            "unbounded",
            d=[-1.0],
            beta=0.0,
            c0=0.0,
            x0=[1.0],
            branch_coverage=[],
            coverage_config=SolverConfig(),
        )


# --- Rosenbrock Hessian kernels --------------------------------------------------

def _loop_rosenbrock_hessian(x: np.ndarray, a: float) -> np.ndarray:
    """Reference: the Hessian assembled term by term, one chain link at a time."""
    n = x.size
    H = np.zeros((n, n))
    for i in range(n - 1):
        H[i, i] += 12.0 * a * x[i] ** 2 - 4.0 * a * x[i + 1] + 2.0
        H[i, i + 1] += -4.0 * a * x[i]
        H[i + 1, i] += -4.0 * a * x[i]
        H[i + 1, i + 1] += 2.0 * a
    return H


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
def test_rosenbrock_hessian_matches_loop_reference(n):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(n)
    for a in (100.0, 1.0, 3.7):
        x = 2.0 * rng.standard_normal(n)
        H, ref = _rosenbrock_hessian(x, a), _loop_rosenbrock_hessian(x, a)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(H[off], ref[off])
        # The loop squares a scalar through pow(), which can be one ulp off
        # the correctly rounded x * x; the diagonal then cancels, so bound
        # the difference by the size of its terms.
        terms = np.full(n, 2.0 * a)
        terms[0] = 0.0
        terms[:-1] += 12.0 * a * x[:-1] ** 2 + 4.0 * a * np.abs(x[1:]) + 2.0
        assert np.all(np.abs(np.diag(H) - np.diag(ref)) <= 4.0 * eps * terms)


@pytest.mark.parametrize("n", [2, 10, 1000])
def test_rosenbrock_banded_product_matches_dense(n):
    rng = np.random.default_rng(10 + n)
    for a in (100.0, 1.0):
        x = 2.0 * rng.standard_normal(n)
        v = rng.standard_normal(n)
        H = _rosenbrock_hessian(x, a)
        # Componentwise: the three-term sums round within a few ulp of |H| |v|.
        err = np.abs(_banded_product(_rosenbrock_bands(x, a), v) - H @ v)
        assert np.all(err <= 1e-13 * (np.abs(H) @ np.abs(v)))


def test_rosenbrock_hessian_vector_never_builds_dense_matrix(monkeypatch):
    obj = get_problem("rosenbrock-10d").make_objective()
    x = np.linspace(-1.0, 1.5, 10)
    v = np.ones(10)
    expected = obj.dense_hessian(x) @ v

    def forbidden(*args):
        raise AssertionError("the matrix-free product built the dense Hessian")

    monkeypatch.setattr(sols.problems, "_rosenbrock_hessian", forbidden)
    assert np.allclose(obj.hessian_vector(x, v), expected, rtol=1e-13)


# Hessian-vector formulas of suite problems, written out independently of the
# objectives' per-point memo.
HV_FORMULAS = {
    "rosenbrock-2d": lambda x, v: _banded_product(_rosenbrock_bands(x, 100.0), v),
    "rosenbrock-10d": lambda x, v: _banded_product(_rosenbrock_bands(x, 100.0), v),
    "quartic-saddle-50d": lambda x, v: (np.full(50, -1.0) + 3.0 * np.ones(50) * x**2) * v,
    "reg-newton-2d": lambda x, v: (
        np.array([1.0, -0.05]) + 3.0 * np.array([0.0, 0.05]) * x**2
    ) * v,
}


@pytest.mark.parametrize("name", sorted(HV_FORMULAS))
def test_memo_product_matches_formula_bit_for_bit(name):
    obj = get_problem(name).make_objective()
    rng = np.random.default_rng(len(name))
    for _ in range(5):
        x = 2.0 * rng.standard_normal(obj.dim)
        for _ in range(4):  # repeated products at one point reuse its coefficients
            v = rng.standard_normal(obj.dim)
            assert np.array_equal(obj.hessian_vector(x, v), HV_FORMULAS[name](x, v))


@pytest.mark.parametrize("name", sorted(HV_FORMULAS))
def test_memo_follows_in_place_changes_to_x(name):
    obj = get_problem(name).make_objective()
    x = np.linspace(-1.0, 1.5, obj.dim)
    v = np.linspace(0.5, -2.0, obj.dim)
    first = obj.hessian_vector(x, v)
    first[:] = 0.0  # the result is the caller's; the memo keeps no reference to it
    assert np.array_equal(obj.hessian_vector(x, v), HV_FORMULAS[name](x, v))
    x *= -0.5  # same array object, new point
    assert np.array_equal(obj.hessian_vector(x, v), HV_FORMULAS[name](x, v))


@pytest.mark.parametrize("name", sorted(HV_FORMULAS))
def test_memo_is_owned_by_each_objective(name):
    p = get_problem(name)
    a, b = p.make_objective(), p.make_objective()
    rng = np.random.default_rng(7)
    xa, xb = rng.standard_normal(p.dim), rng.standard_normal(p.dim)
    for _ in range(3):
        for obj, x in ((a, xa), (b, xb)):
            v = rng.standard_normal(p.dim)
            assert np.array_equal(obj.hessian_vector(x, v), HV_FORMULAS[name](x, v))


def test_rosenbrock_bands_computed_once_per_point_and_objective(monkeypatch):
    calls = []
    bands = sols.problems._rosenbrock_bands

    def counted(x, a):
        calls.append(x.copy())
        return bands(x, a)

    monkeypatch.setattr(sols.problems, "_rosenbrock_bands", counted)
    p = get_problem("rosenbrock-10d")
    a, b = p.make_objective(), p.make_objective()
    xa, xb = np.linspace(-1.0, 1.0, 10), np.linspace(0.0, 2.0, 10)
    v = np.ones(10)
    for _ in range(3):
        a.hessian_vector(xa, v)
        b.hessian_vector(xb, v)
    # Interleaved products at two points: one band evaluation per objective.
    assert len(calls) == 2
    assert np.array_equal(calls[0], xa) and np.array_equal(calls[1], xb)
    a.hessian_vector(xb, v)
    assert len(calls) == 3
