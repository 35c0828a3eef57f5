"""Problem suite: constants, coverage, and construction checks."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sols import (
    Objective, StepKind, get_problem, problem_names, rayleigh_quotient, run_exact, suite
)
import sols.problems
from sols.problems import (
    ConstantsError,
    _rosenbrock_bands,
    _rosenbrock_value,
    _tridiagonal,
    rosenbrock,
    separable_quartic,
    verify_constants,
)
from sols.operators import banded_product
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
        assert pc.U_g > 0 and pc.U_H > 0 and pc.L_H >= 0
        assert p.make_objective().value(p.start_point()) >= pc.f_low


def test_sampling_verifier_accepts_declared_constants():
    for p in suite():
        verify_constants(p, n_points=60, seed=777)


def test_sampling_verifier_keeps_f_from_the_sampling(monkeypatch):
    # The checks begin with the gradient of the first sampled point; f of
    # each point was kept when it was sampled, so no f evaluation follows.
    calls = []
    for name in ("value", "gradient"):
        real = getattr(Objective, name)
        monkeypatch.setattr(
            Objective, name,
            lambda self, x, real=real, name=name: calls.append(name) or real(self, x),
        )
    for p in suite():
        calls.clear()
        verify_constants(p, n_points=60, seed=777)
        first_check = calls.index("gradient")
        assert "value" in calls[:first_check]
        assert "value" not in calls[first_check:]


def _verifier_norms(p, *args) -> tuple[list, list]:
    """The points at which ``verify_constants(p, *args)`` took Hessian
    coefficients, and the norms it computed from them, in call order."""
    points, norms = [], []

    def coefficients(x):
        points.append(x.copy())
        return p._coefficients(x)

    def hessian_norm(c):
        norms.append(p._hessian_norm(c))
        return norms[-1]

    spied = dataclasses.replace(p, _coefficients=coefficients, _hessian_norm=hessian_norm)
    verify_constants(spied, *args)
    return points, norms


@pytest.mark.parametrize("args", [(), (60, 777)], ids=["default", "60-777"])
def test_verifier_norms_bitwise_equal_to_dense_eigvalsh(args):
    # The norms come from the coefficients; the dense 2-norm they replace is
    # the largest |eigenvalue| of each Hessian and of each difference of the
    # Hessians of consecutive, distinct points.
    def dense_norm(H):
        return float(np.abs(np.linalg.eigvalsh(H)).max())

    for p in suite():
        points, norms = _verifier_norms(p, *args)
        obj = p.make_objective()
        hessians = [obj.dense_hessian(x) for x in points]
        expected = [dense_norm(H) for H in hessians] + [
            dense_norm(H1 - H0)
            for x0, x1, H0, H1 in zip(points, points[1:], hessians, hessians[1:])
            if np.linalg.norm(x1 - x0) != 0.0
        ]
        assert len(points) > 5, p.name  # more than x0 and the blends: the walk moved
        assert _same_bytes(np.array(norms), np.array(expected)), p.name


def test_diagonal_family_verifies_without_a_dense_matrix(monkeypatch):
    # The double-well of d = -linspace(0.5, 1.5, n), started at x_star but
    # for its first 50 coordinates, at 0. At n = 2000 a dense check would
    # form 2000 x 2000 Hessians; this one forms none.
    dense_calls = []
    real_diag = np.diag
    monkeypatch.setattr(
        np, "diag", lambda *a, **k: dense_calls.append("diag") or real_diag(*a, **k)
    )
    real_dense = Objective.dense_hessian
    monkeypatch.setattr(
        Objective, "dense_hessian",
        lambda self, x: dense_calls.append("dense_hessian") or real_dense(self, x),
    )
    n = 2000
    d = -np.linspace(0.5, 1.5, n)
    x0 = np.sqrt(-d)
    x0[:50] = 0.0
    p = separable_quartic(
        "double-well-2000", d=d, beta=1.0, c0=0.0, x0=x0,
        branch_coverage=[], coverage_config=SolverConfig(),
    )
    points, _ = _verifier_norms(p)
    assert len(points) == 5  # x0 and the four blends: the walk accepted no move
    for name in ("quad-convex-10d", "quartic-saddle-50d"):
        get_problem.__wrapped__(name)  # built and verified afresh, not from the cache
    assert dense_calls == []


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


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("f_low", lambda f0: f0, "sampled f below declared f_low"),
        ("U_H", lambda f0: 1e-6, "Hessian norm .* exceeds U_H"),
        ("L_H", lambda f0: 1e-9, "Hessian variation .* exceeds L_H"),
    ],
)
def test_sampling_verifier_names_each_lying_constant(field, value, match):
    import dataclasses

    honest = get_problem("quartic-offset-2d")
    f0 = honest.make_objective().value(honest.start_point())
    lying = dataclasses.replace(
        honest, constants=dataclasses.replace(honest.constants, **{field: value(f0)})
    )
    with pytest.raises(ConstantsError, match=match):
        verify_constants(lying)


def test_sampling_verifier_skips_a_repeated_point():
    # Started at its minimizer, the double-well accepts no random-walk move,
    # and every blend toward x_star is x0 again: consecutive sampled points
    # coincide, and the Lipschitz check skips those pairs.
    p = separable_quartic(
        "at-minimizer",
        d=[-1.0],
        beta=1.0,
        c0=0.25,
        x0=[1.0],
        branch_coverage=[],
        coverage_config=SolverConfig(),
    )
    assert p.x_star == p.x0 == (1.0,)
    verify_constants(p)


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


@pytest.mark.parametrize(
    "family, kwargs, match",
    [
        (separable_quartic, {"d": [1.0, 1.0], "beta": [0.0, -1.0], "c0": 0.0, "x0": [1.0, 1.0]},
         "beta must be nonnegative"),
        (separable_quartic, {"d": [1.0], "beta": 0.0, "c0": 0.0, "x0": [0.0]},
         "degenerate problem"),
        (separable_quartic, {"d": [1.0, 2.0], "beta": 0.0, "c0": 0.0, "x0": [1.0, 1.0, 1.0]},
         r"x0 has shape \(3,\), but d has 2 entries"),
        (rosenbrock, {"n": 5, "x0": np.zeros(10)}, r"x0 has shape \(10,\), but n = 5"),
        (separable_quartic, {"d": [1.0, 2.0], "beta": [1.0, 2.0, 3.0], "c0": 0.0, "x0": [1.0, 1.0]},
         r"beta has shape \(3,\), but d has 2 entries"),
        (rosenbrock, {"n": 0, "x0": []}, "bad: a chain needs n >= 2, got n = 0"),
        (rosenbrock, {"n": 1, "x0": [0.0]}, "bad: a chain needs n >= 2, got n = 1"),
        (separable_quartic, {"d": 2.0, "beta": 0.0, "c0": 0.0, "x0": [1.0]},
         r"bad: d has shape \(\), but must be a nonempty 1-D array"),
        (separable_quartic, {"d": [[1.0, 2.0]], "beta": 0.0, "c0": 0.0, "x0": [1.0, 1.0]},
         r"bad: d has shape \(1, 2\), but must be a nonempty 1-D array"),
        (separable_quartic, {"d": [], "beta": 0.0, "c0": 0.0, "x0": []},
         r"bad: d has shape \(0,\), but must be a nonempty 1-D array"),
        (rosenbrock, {"n": 2, "x0": [0.0, 0.0], "a": 0.0},
         "bad: a must be positive and finite, got 0.0"),
        (rosenbrock, {"n": 2, "x0": [0.0, 0.0], "a": -1.0},
         "bad: a must be positive and finite, got -1.0"),
        (rosenbrock, {"n": 2, "x0": [1.0, 1.0]},
         r"bad: the start point is the minimizer \(1, \.\.\., 1\)"),
        (separable_quartic, {"d": [1.0, np.nan], "beta": 0.0, "c0": 0.0, "x0": [1.0, 1.0]},
         "bad: d must be finite, got nan at index 1"),
        (separable_quartic, {"d": [1.0, 1.0], "beta": 0.0, "c0": 0.0, "x0": [np.nan, 1.0]},
         "bad: x0 must be finite, got nan at index 0"),
        (separable_quartic, {"d": [1.0, 1.0], "beta": [0.0, np.nan], "c0": 0.0, "x0": [1.0, 1.0]},
         "bad: beta must be finite, got nan at index 1"),
        (separable_quartic, {"d": [1.0, 1.0], "beta": np.nan, "c0": 0.0, "x0": [1.0, 1.0]},
         "bad: beta must be finite, got nan$"),
        (separable_quartic, {"d": [1.0, 1.0], "beta": 0.0, "c0": np.nan, "x0": [1.0, 1.0]},
         "bad: c0 must be finite, got nan$"),
        (separable_quartic, {"d": [1.0, np.inf], "beta": 0.0, "c0": 0.0, "x0": [1.0, 1.0]},
         "bad: d must be finite, got inf at index 1"),
        (rosenbrock, {"n": 2, "x0": [0.0, 0.0], "a": np.nan},
         "bad: a must be positive and finite, got nan"),
        (rosenbrock, {"n": 2, "x0": [0.0, np.nan]},
         "bad: x0 must be finite, got nan at index 1"),
        (rosenbrock, {"n": 2, "x0": [0.0, 0.0], "a": np.inf},
         "bad: a must be positive and finite, got inf"),
        (separable_quartic, {"d": [1.0, 1.0], "beta": [0.0, -1.0], "c0": 0.0, "x0": [1.0, 1.0]},
         "^bad: beta must be nonnegative$"),
        (separable_quartic, {"d": [-1.0], "beta": 0.0, "c0": 0.0, "x0": [1.0]},
         "^bad: coordinates with beta = 0 need d > 0 to stay bounded$"),
        (separable_quartic, {"d": [1.0], "beta": 0.0, "c0": 0.0, "x0": [0.0]},
         "^bad: degenerate problem"),
        # Finite parameters whose bounds overflow.
        (separable_quartic, {"d": [1e308], "beta": 0.0, "c0": 0.0, "x0": [1.0]},
         "^bad: U_g and U_H must be positive and finite, got inf"),
        (separable_quartic, {"d": [1.0], "beta": 0.0, "c0": 0.0, "x0": [1e200]},
         "^bad: L_H must be nonnegative and finite, got nan"),
        (rosenbrock, {"n": 2, "x0": [1e200, 1.0]},
         "^bad: L_H must be nonnegative and finite, got inf"),
        (rosenbrock, {"n": 2, "x0": [0.0, 0.0], "a": 1e300},
         "^bad: L_H must be nonnegative and finite, got inf"),
    ],
)
def test_family_rejects_bad_parameters(family, kwargs, match):
    with pytest.raises(ValueError, match=match):
        family("bad", branch_coverage=[], coverage_config=SolverConfig(), **kwargs)


# --- Rosenbrock Hessian kernels --------------------------------------------------

def _rosenbrock_hessian(x: np.ndarray, a: float) -> np.ndarray:
    """The dense Hessian assembled straight from the bands of x, without the
    objective's per-point memo."""
    diag, off = _rosenbrock_bands(x, a)
    n = x.size
    H = np.zeros((n, n))
    H.flat[:: n + 1] = diag
    H.flat[1 :: n + 1] = off
    H.flat[n :: n + 1] = off
    return H


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
        err = np.abs(banded_product(_rosenbrock_bands(x, a), v) - H @ v)
        assert np.all(err <= 1e-13 * (np.abs(H) @ np.abs(v)))


def test_rosenbrock_hessian_vector_never_builds_dense_matrix(monkeypatch):
    # A problem takes its dense assembler when it is built, so build one
    # under a counting assembler.
    assembled = []

    def counting(bands):
        assembled.append(bands)
        return _tridiagonal(bands)

    monkeypatch.setattr(sols.problems, "_tridiagonal", counting)
    p = rosenbrock(
        "counted-assembler", n=10, x0=get_problem("rosenbrock-10d").x0,
        branch_coverage=[], coverage_config=SolverConfig(),
    )
    assert assembled  # verify_constants built its Hessians with it
    obj = p.make_objective()
    x = np.linspace(-1.0, 1.5, 10)
    v = np.ones(10)
    expected = _rosenbrock_hessian(x, 100.0) @ v
    assembled.clear()
    assert np.allclose(obj.hessian_vector(x, v), expected, rtol=1e-13)
    assert assembled == []  # the matrix-free product never built the dense Hessian
    obj.dense_hessian(x)
    assert len(assembled) == 1  # the counted assembler is the one the dense path calls


# Hessian-vector formulas of suite problems, written out independently of the
# objectives' per-point memo.
HV_FORMULAS = {
    "rosenbrock-2d": lambda x, v: banded_product(_rosenbrock_bands(x, 100.0), v),
    "rosenbrock-10d": lambda x, v: banded_product(_rosenbrock_bands(x, 100.0), v),
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


def test_dense_hessian_shares_the_memo_of_the_products(monkeypatch):
    calls = []
    bands = sols.problems._rosenbrock_bands

    def counted(x, a):
        calls.append(x.copy())
        return bands(x, a)

    monkeypatch.setattr(sols.problems, "_rosenbrock_bands", counted)
    obj = get_problem("rosenbrock-10d").make_objective()
    x = np.linspace(-1.0, 1.0, 10)
    obj.hessian_vector(x, np.ones(10))
    obj.dense_hessian(x)
    obj.dense_hessian(x.copy())  # equal bytes, another array: the same point
    assert len(calls) == 1
    obj.dense_hessian(-x)
    assert len(calls) == 2


# --- Bitwise guards: the callbacks against the numpy-function forms ----------------
#
# The value callbacks use ndarray methods and the dense Hessians share the
# per-point memo of the products. These copies keep the forms written with
# numpy functions and assembled without the memo; every result must match
# them to the bit, signed zeros and subnormals included.

GUARD_DIMS = (1, 2, 10, 50, 100)
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-200)


def _sum_rosenbrock_value(x: np.ndarray, a: float) -> float:
    r = x[1:] - x[:-1] ** 2
    return float(a * np.sum(r**2) + np.sum((1.0 - x[:-1]) ** 2))


def _matmul_quartic_value(d, beta, c0, x):
    return float(0.5 * d @ x**2 + 0.25 * beta @ x**4 + c0)


@functools.cache
def _guard_problems(n: int) -> tuple:
    """``(problem, reference value, reference dense Hessian)`` of each guard
    objective of dimension n: a separable quartic with mixed-sign curvature
    and, for n >= 2, the chained Rosenbrock function."""
    d = np.linspace(-1.0, 2.0, n) if n > 1 else np.array([-0.5])
    beta = np.linspace(0.5, 1.5, n)
    quartic = separable_quartic(
        f"guard-quartic-{n}", d=d, beta=beta, c0=0.25, x0=np.full(n, 0.5),
        branch_coverage=[], coverage_config=SolverConfig(),
    )
    guards = [(quartic, lambda x: _matmul_quartic_value(d, beta, 0.25, x),
               lambda x: np.diag(d + 3.0 * beta * x**2))]
    if n >= 2:
        chain = rosenbrock(
            f"guard-rosenbrock-{n}", n=n, x0=[-1.2 if i % 2 == 0 else 1.0 for i in range(n)],
            branch_coverage=[], coverage_config=SolverConfig(),
        )
        guards.append((chain, lambda x: _sum_rosenbrock_value(x, 100.0),
                       lambda x: _rosenbrock_hessian(x, 100.0)))
    return tuple(guards)


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def guard_points(draw, count: int = 1):
    """``count`` points of one dimension n in GUARD_DIMS: seeded normal
    coordinates at a drawn scale, down to subnormal, with signed zeros and
    subnormals written over drawn coordinates."""
    n = draw(st.sampled_from(GUARD_DIMS))
    points = []
    for _ in range(count):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = draw(st.sampled_from((1.0, 2.0, 1e-160, 1e-310))) * rng.standard_normal(n)
        for _ in range(draw(st.integers(0, 4))):
            x[draw(st.integers(0, n - 1))] = draw(st.sampled_from(SPECIALS))
        points.append(x)
    return points


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(guard_points(), st.sampled_from([100.0, 1.0, 3.7]))
def test_value_callbacks_bitwise_equal_to_numpy_function_forms(points, a):
    (x,) = points
    assert _same_bytes(_rosenbrock_value(x, a), _sum_rosenbrock_value(x, a))
    for problem, value_of, _ in _guard_problems(x.size):
        value = problem.make_objective().value(x)
        assert type(value) is float
        assert _same_bytes(value, value_of(x))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(guard_points(), st.sampled_from([100.0, 1.0, 3.7]))
def test_dense_hessians_bitwise_equal_to_memo_free_assembly(points, a):
    (x,) = points
    assert _same_bytes(_tridiagonal(_rosenbrock_bands(x, a)), _rosenbrock_hessian(x, a))
    for problem, _, hessian_of in _guard_problems(x.size):
        H = problem.make_objective().dense_hessian(x)
        assert _same_bytes(H, hessian_of(x))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(guard_points(count=3))
def test_dense_hessian_and_products_follow_the_point_through_the_memo(points):
    x, y, v = points
    for problem, _, hessian_of in _guard_problems(x.size):
        obj = problem.make_objective()
        H = obj.dense_hessian(x)
        assert _same_bytes(H, hessian_of(x))
        H[:] = 7.0  # the matrix is the caller's; the memo keeps no reference to it
        hv = obj.hessian_vector(y, v)
        fresh = problem.make_objective().hessian_vector(y.copy(), v)
        assert _same_bytes(hv, fresh)
        assert _same_bytes(obj.dense_hessian(x), hessian_of(x))
        x[:] = y[::-1]  # same array object, new point
        assert _same_bytes(obj.dense_hessian(x), hessian_of(x))
        assert _same_bytes(obj.hessian_vector(x, v),
                           problem.make_objective().hessian_vector(x.copy(), v))
