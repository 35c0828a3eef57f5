"""Backtracking search, its caps, and the cap formulas."""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sols import (
    LineSearchStallError,
    Objective,
    ProblemConstants,
    SolverConfig,
    StepKind,
    backtrack,
    theoretical_ls_cap,
)
from sols.linesearch import ls_cap_exponent

from conftest import exhaustive_backtrack
from test_operators import quadratic_objective


def brute_force_smallest_j(value, x, f_x, d, theta, eta, j_max=200):
    """Independent oracle: scan j = 0, 1, 2, ... with power-computed steps."""
    dnorm = float(np.linalg.norm(d))
    for j in range(j_max + 1):
        alpha = theta**j
        if value(x + alpha * d) < f_x - (eta / 6.0) * alpha**3 * dnorm**3:
            return j
    raise AssertionError("oracle found no acceptable step")


def test_unit_newton_step_on_quadratic():
    obj = quadratic_objective(np.eye(2))
    x = np.array([1.0, 0.0])
    res = backtrack(obj, x, obj.value(x), np.array([-1.0, 0.0]), SolverConfig(theta=0.5, eta=1.0))
    assert res.j == 0 and res.alpha == 1.0 and res.probes == 1
    assert res.decrease == pytest.approx(0.5)


def test_steep_direction_matches_brute_force_oracle():
    obj = quadratic_objective(np.array([[2.0]]))  # f = x^2
    x = np.array([1.0])
    d = np.array([-10.0])
    cfg = SolverConfig(theta=0.5, eta=1.0)
    f_x = obj.value(x)
    res = backtrack(obj, x, f_x, d, cfg)
    j_oracle = brute_force_smallest_j(lambda y: float(y @ y), x, f_x, d, 0.5, 1.0)
    assert res.j == j_oracle
    assert res.alpha == 0.5**res.j  # dyadic theta makes the products exact


def test_random_cases_match_oracle():
    rng = np.random.default_rng(23)
    cfg = SolverConfig(theta=0.5, eta=1.0, max_ls_steps=100)
    for _ in range(50):
        A = rng.standard_normal((3, 3))
        H = A @ A.T + 0.1 * np.eye(3)
        obj = quadratic_objective(H)
        x = rng.standard_normal(3)
        g = obj.gradient(x)
        if np.linalg.norm(g) < 1e-8:
            continue
        d = -g * rng.uniform(0.5, 20.0)
        f_x = obj.value(x)
        res = backtrack(obj, x, f_x, d, cfg)
        j_oracle = brute_force_smallest_j(
            lambda y: 0.5 * float(y @ H @ y), x, f_x, d, 0.5, 1.0
        )
        assert res.j == j_oracle
        assert res.decrease > (cfg.eta / 6.0) * res.alpha**3 * np.linalg.norm(d) ** 3


def test_alpha_is_repeated_multiplication():
    obj = quadratic_objective(np.array([[2.0]]))
    cfg = SolverConfig(theta=0.7, eta=2.0)
    x = np.array([1.0])
    res = backtrack(obj, x, obj.value(x), np.array([-30.0]), cfg)
    alpha = 1.0
    for _ in range(res.j):
        alpha *= cfg.theta
    assert res.alpha == alpha


def test_exact_equality_rejects_step():
    # Engineered so the unit step decrease equals the threshold exactly:
    # strict inequality must reject it and backtrack once.
    calls = []

    def value(x):
        calls.append(float(x[0]))
        if len(calls) == 1:
            return 0.0  # f(x)
        if len(calls) == 2:
            return -1.0 / 6.0  # trial at alpha=1: equality, rejected
        return -1.0  # accepted afterwards

    from sols import Objective

    obj = Objective(1, value, lambda x: np.zeros(1), lambda x, v: np.zeros(1))
    x = np.zeros(1)
    f_x = obj.value(x)
    res = backtrack(obj, x, f_x, np.array([1.0]), SolverConfig(theta=0.5, eta=1.0))
    assert res.j == 1


def test_counts_probes_as_f_evaluations():
    obj = quadratic_objective(np.array([[2.0]]))
    x = np.array([1.0])
    f_x = obj.value(x)
    before = obj.counters.n_f
    res = backtrack(obj, x, f_x, np.array([-10.0]), SolverConfig(theta=0.5, eta=1.0))
    assert obj.counters.n_f - before == res.probes == res.j + 1


def test_zero_direction_rejected():
    obj = quadratic_objective(np.eye(2))
    with pytest.raises(ValueError):
        backtrack(obj, np.ones(2), 1.0, np.zeros(2), SolverConfig())


def test_stall_raises_with_context():
    obj = quadratic_objective(np.eye(2))
    x = np.array([1.0, 0.0])
    cfg = SolverConfig(max_ls_steps=5)
    with pytest.raises(LineSearchStallError) as excinfo:
        backtrack(obj, x, obj.value(x), np.array([1.0, 0.0]), cfg, kind="ascent")
    assert excinfo.value.context["kind"] == "ascent"
    assert excinfo.value.context["j"] == 5
    assert str(excinfo.value) == "line-search stall: no acceptable step within 5 backtracks"
    assert obj.counters.n_f == 1 + 6


@pytest.mark.parametrize("step, j", [(1e-15, 4), (1e-20, 1)])
def test_step_below_float64_resolution_ends_the_search(step, j):
    # ulp(1) = 2**-52 ~ 2.2e-16: 1e-15 moves x[0] for the halvings j = 0..3
    # (the last rounds 0.56 ulp up to one), and j = 4 lands on x; 1e-20 lands
    # on x at once. The ascent direction rejects every evaluated trial.
    obj = quadratic_objective(np.eye(2))
    x = np.array([1.0, -2.0])
    cfg = SolverConfig(theta=0.5, max_ls_steps=10_000)
    f_x = obj.value(x)
    with pytest.raises(LineSearchStallError) as excinfo:
        backtrack(obj, x, f_x, np.array([step, 0.0]), cfg)
    assert str(excinfo.value) == (
        f"line-search stall: trial point equals x at j={j} (step below float64 resolution)"
    )
    assert excinfo.value.context["j"] == j
    assert obj.counters.n_f - 1 == j


def test_direction_whose_cubic_term_overflows_stalls():
    # ||d||**3 = 1e360 is beyond float64: the threshold f_x - inf rejects every trial.
    obj = Objective(1, lambda y: -float(y[0]), lambda y: -1.0 + 0 * y, lambda y, v: 0 * v)
    with pytest.raises(LineSearchStallError) as excinfo:
        backtrack(obj, np.zeros(1), 0.0, np.array([1e120]), SolverConfig(max_ls_steps=5))
    assert str(excinfo.value) == "line-search stall: no acceptable step within 5 backtracks"
    assert obj.counters.n_f == 6


def test_nan_trial_values_are_rejections():
    # NaN at j = 0, +inf at j = 1: both rejected, and j = 2 is accepted.
    trial_values = [math.nan, math.inf, -1.0]
    obj = Objective(1, lambda y: trial_values.pop(0), lambda y: 0 * y, lambda y, v: 0 * v)
    res = backtrack(obj, np.zeros(1), 0.0, np.array([1.0]), SolverConfig())
    assert (res.j, res.f_new, obj.counters.n_f) == (2, -1.0, 3)


def test_stall_reason_counts_nan_trial_values():
    trial_values = [math.nan, math.inf, math.nan, 0.0]
    obj = Objective(1, lambda y: trial_values.pop(0), lambda y: 0 * y, lambda y, v: 0 * v)
    with pytest.raises(LineSearchStallError) as excinfo:
        backtrack(obj, np.zeros(1), 0.0, np.array([1.0]), SolverConfig(max_ls_steps=3))
    assert str(excinfo.value) == (
        "line-search stall: no acceptable step within 3 backtracks; 2 of its trial values were NaN"
    )
    assert obj.counters.n_f == 4


def probed_objective(c: np.ndarray, s: np.ndarray) -> tuple[Objective, list[bytes]]:
    """f(y) = sum c_i y_i^2 / 2 + s'y, logging the bytes of every point it is evaluated at."""
    seen: list[bytes] = []

    def value(y):
        seen.append(y.tobytes())
        return 0.5 * float(c.dot(y * y)) + float(s.dot(y))

    return Objective(c.size, value, lambda y: c * y + s, lambda y, v: c * v), seen


def probe_run(search, obj, seen, x, d, cfg):
    """The search's result (None on a stall), its probe points and its f evaluations."""
    f_x = obj.value(x)
    del seen[:]
    n_f = obj.counters.n_f
    try:
        res = search(obj, x, f_x, d, cfg)
    except LineSearchStallError:
        res = None
    return res, list(seen), obj.counters.n_f - n_f


def result_bits(res) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(res))


COORDS = st.lists(st.tuples(
    st.floats(-1e8, 1e8),  # x_i
    st.floats(-20.0, 3.0).map(lambda e: 10.0**e) | st.just(0.0),  # |d_i|
    st.booleans(),  # sign of d_i
    st.floats(-1.0, 1.0),  # c_i
    st.floats(-10.0, 10.0),  # s_i
), min_size=1, max_size=3)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(coords=COORDS, theta=st.floats(0.05, 0.95), eta=st.floats(0.01, 10.0),
       max_ls_steps=st.integers(1, 120))
# Accepts at j = 0; stalls on x at j = 1; stalls on x at j = 4; stalls at the cap.
@example([(1.0, 1.0, False, 1.0, 0.0)], 0.5, 1.0, 200)
@example([(1.0, 1e-20, True, 1.0, 0.0)], 0.5, 1.0, 200)
@example([(1.0, 1e-15, True, 1.0, 0.0)], 0.5, 1.0, 200)
@example([(1.0, 1.0, True, 1.0, 0.0)], 0.5, 1.0, 5)
def test_search_matches_the_exhaustive_loop(coords, theta, eta, max_ls_steps):
    # An accepted search is the exhaustive loop's, bit for bit and probe for
    # probe. A stalled one evaluates a prefix of its probe points, and every
    # point it leaves out is x itself.
    x = np.array([t[0] for t in coords])
    d = np.array([t[1] if t[2] else -t[1] for t in coords])
    if not d.any():
        return
    c = np.array([t[3] for t in coords])
    s = np.array([t[4] for t in coords])
    cfg = SolverConfig(theta=theta, eta=eta, max_ls_steps=max_ls_steps)
    new = probe_run(backtrack, *probed_objective(c, s), x, d, cfg)
    old = probe_run(exhaustive_backtrack, *probed_objective(c, s), x, d, cfg)
    res, seen, n_f = new
    old_res, old_seen, old_n_f = old
    assert n_f == len(seen) and old_n_f == len(old_seen)
    if old_res is not None:
        assert res is not None and result_bits(res) == result_bits(old_res)
        assert seen == old_seen and n_f == old_n_f
    else:
        assert res is None
        assert seen == old_seen[:n_f] and n_f <= old_n_f
        assert set(old_seen[n_f:]) <= {x.tobytes()}


# --- theoretical caps ---------------------------------------------------------

def constants(L_H=2.0, U_g=10.0) -> ProblemConstants:
    return ProblemConstants(L_H=L_H, U_g=U_g, U_H=1.0, f_low=0.0)


def test_cap_log_of_one_gives_one():
    cfg = SolverConfig(theta=0.5, eta=1.0)
    assert theoretical_ls_cap(constants(L_H=2.0), cfg, StepKind.NEGATIVE_CURVATURE) == 1


def test_cap_newton_example_value():
    cfg = SolverConfig(theta=0.5, eta=1.0, eps_H=0.1)
    pc = constants(L_H=5.0, U_g=10.0)
    exponent = ls_cap_exponent(StepKind.NEWTON, pc, cfg)
    assert exponent == pytest.approx(5.4829, abs=2e-4)
    assert theoretical_ls_cap(pc, cfg, StepKind.NEWTON) == 7


def test_cap_gradient_degenerate_tolerances_collapse():
    # With both tolerances at 1 the gradient-cap argument loses its
    # tolerance factor entirely. (Range validation is explicit, so the
    # formula itself can be probed at the degenerate point.)
    cfg = SolverConfig(eps_g=1.0, eps_H=1.0, theta=0.5, eta=1.0, zeta=0.0)
    pc = constants(L_H=2.0)
    got = ls_cap_exponent(StepKind.NORMALIZED_GRADIENT, pc, cfg)
    expected = max(
        math.log(min(5.0 / 3.0, math.sqrt(1.0 / 3.0))) / math.log(0.5), 0.0
    )
    assert got == pytest.approx(expected, abs=1e-15)


def test_caps_grow_with_hessian_lipschitz_constant():
    cfg = SolverConfig(theta=0.5, eta=1.0, eps_H=0.1)
    caps = [
        theoretical_ls_cap(constants(L_H=L), cfg, StepKind.NEGATIVE_CURVATURE)
        for L in (0.0, 2.0, 20.0, 200.0)
    ]
    assert caps == sorted(caps)


def test_inexact_cap_uses_half_log():
    cfg = SolverConfig(theta=0.5, eta=1.0, eps_H=0.1, zeta=0.5)
    pc = constants(L_H=5.0, U_g=10.0)
    arg = 3.0 / 6.0 * 0.5 * 0.1**2 / (10.0 * math.sqrt(1.0 + 0.25 / 4.0))
    expected = max(0.5 * math.log(arg) / math.log(0.5), 0.0)
    got = ls_cap_exponent(StepKind.INEXACT_NEWTON, pc, cfg)
    assert got == pytest.approx(expected, rel=1e-12)
    assert ls_cap_exponent(StepKind.INEXACT_REGULARIZED_NEWTON, pc, cfg) == got


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        theoretical_ls_cap(constants(), SolverConfig(), "sideways")
