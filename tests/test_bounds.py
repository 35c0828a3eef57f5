"""Decrease constants, envelopes and local rates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sols import (
    ProblemConstants,
    SolverConfig,
    cg_iteration_cap,
    decrease_constants,
    iteration_envelope,
    lanczos_iteration_cap,
    tolerance_max_term,
)

from conftest import local_rate_constants


def test_eigen_constant_frozen_value():
    dc = decrease_constants(theta=0.5, eta=1.0, L_H=2.0)
    assert dc.c_e == pytest.approx(1.0 / 48.0, abs=1e-15)


def test_constants_scale_linearly_for_small_eta():
    small = decrease_constants(theta=0.5, eta=1e-9, L_H=2.0, zeta=0.3)
    double = decrease_constants(theta=0.5, eta=2e-9, L_H=2.0, zeta=0.3)
    for name in ("c_e", "c_g", "c_n", "c_r", "c_in", "c_ir"):
        assert getattr(double, name) / getattr(small, name) == pytest.approx(2.0, rel=1e-6)


def test_inexact_newton_constant_at_zero_zeta():
    theta, eta, L_H = 0.6, 1.5, 3.0
    dc = decrease_constants(theta, eta, L_H, zeta=0.0)
    expected = eta / 6.0 * min(
        (4.0 / math.sqrt(8.0 * L_H)) ** 3, (3.0 * theta**2 / (L_H + eta)) ** 3
    )
    assert dc.c_in == pytest.approx(expected, rel=1e-14)


def test_constants_positive_on_parameter_grid():
    for theta in (0.1, 0.5, 0.9):
        for eta in (0.01, 1.0, 10.0):
            for L_H in (0.0, 1.0, 100.0):
                for zeta in (0.0, 0.5, 0.99):
                    dc = decrease_constants(theta, eta, L_H, zeta)
                    for name in ("c_e", "c_g", "c_n", "c_r", "c_in", "c_ir", "c", "c_hat"):
                        assert getattr(dc, name) > 0.0
                    assert dc.c == min(dc.c_g, dc.c_e, dc.c_n, dc.c_r)
                    assert dc.c_hat == min(dc.c_e / 8.0, dc.c_g, dc.c_in, dc.c_ir)
                    assert dc.c <= dc.c_e and dc.c <= dc.c_n


def test_constants_reject_bad_inputs():
    with pytest.raises(ValueError):
        decrease_constants(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        decrease_constants(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        decrease_constants(0.5, 1.0, -1.0)
    with pytest.raises(ValueError):
        decrease_constants(0.5, 1.0, 1.0, zeta=1.0)


# --- envelopes --------------------------------------------------------------

PC = ProblemConstants(L_H=2.0, U_g=10.0, U_H=5.0, f_low=0.0)


def test_max_term_balanced_tolerances():
    for eps in (1e-1, 1e-2, 1e-3):
        cfg_like = tolerance_max_term(eps, math.sqrt(eps))
        assert cfg_like == pytest.approx(eps**-1.5, rel=1e-12)


def test_max_term_equal_tolerances():
    for eps in (1e-1, 1e-2, 1e-3):
        assert tolerance_max_term(eps, eps) == pytest.approx(eps**-3, rel=1e-12)


def test_zero_gap_gives_zero_iteration_bound():
    cfg = SolverConfig(eps_g=1e-3, eps_H=1e-2)
    env = iteration_envelope(PC, cfg, f0=PC.f_low, n=4)
    assert env.K_iter == 0.0
    assert env.K_hat == 0.0


def test_envelope_fields_finite_positive_and_ordered():
    cfg = SolverConfig(eps_g=1e-4, eps_H=1e-2, zeta=0.5, delta=1e-6)
    env = iteration_envelope(PC, cfg, f0=7.0, n=30)
    for v in (env.K_iter, env.K_eval, env.K_hat, env.ops_bound):
        assert np.isfinite(v) and v > 0.0
    assert env.K_eval >= env.K_iter
    assert not env.eval_log_term_negative  # the log argument is < 1 by construction


POSITIVE = st.floats(min_value=0.0, max_value=1e308, exclude_min=True)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 10**6), M=POSITIVE, m=POSITIVE, eps=POSITIVE, zeta=POSITIVE,
       delta=UNIT, U_H=POSITIVE)
def test_inner_caps_and_ops_bound_survive_huge_inputs(n, M, m, eps, zeta, delta, U_H):
    # Each inner term is min(n, formula); a formula that overflows is above n.
    for cap in (lanczos_iteration_cap(n, M, eps, delta), cg_iteration_cap(n, m, M, zeta)):
        assert isinstance(cap, int) and 1 <= cap <= n
    cfg = SolverConfig(eps_g=1e-4, eps_H=1e-2, zeta=min(zeta, 0.5), delta=delta, U_H=U_H)
    assert math.isfinite(iteration_envelope(PC, cfg, f0=7.0, n=n).ops_bound)


def test_envelope_monotonicity_in_tolerances_and_gap():
    cfg = SolverConfig(eps_g=1e-4, eps_H=1e-2)
    base = iteration_envelope(PC, cfg, f0=5.0, n=10)
    tighter_g = iteration_envelope(PC, cfg.with_updates(eps_g=1e-5), f0=5.0, n=10)
    tighter_H = iteration_envelope(PC, cfg.with_updates(eps_H=1e-3), f0=5.0, n=10)
    bigger_gap = iteration_envelope(PC, cfg, f0=50.0, n=10)
    assert tighter_g.K_iter >= base.K_iter
    assert tighter_H.K_iter >= base.K_iter
    assert bigger_gap.K_iter >= base.K_iter


def test_ops_bound_dimension_caps_at_zero_delta_or_zeta():
    cfg0 = SolverConfig(eps_g=1e-4, eps_H=1e-2, zeta=0.5, delta=0.0)
    env0 = iteration_envelope(PC, cfg0, f0=5.0, n=6)
    # with delta = 0 the eigen term sits at n; recompute the CG term alone
    M = PC.U_H + 2.0
    cg_term = min(
        6.0,
        math.sqrt(M / cfg0.eps_H) / math.sqrt(2.0)
        * math.log(4.0 * M**1.5 * cfg0.eps_H**-1.5 / cfg0.zeta),
    )
    assert env0.ops_bound == pytest.approx((2.0 + cg_term + 6.0) * env0.K_hat, rel=1e-12)
    cfg1 = SolverConfig(eps_g=1e-4, eps_H=1e-2, zeta=0.0, delta=1e-6)
    env1 = iteration_envelope(PC, cfg1, f0=5.0, n=6)
    lanczos_term = min(
        6.0, math.sqrt(M / cfg1.eps_H) * math.log(6.0 / cfg1.delta**2) / 2.0
    )
    assert env1.ops_bound == pytest.approx((2.0 + 6.0 + lanczos_term) * env1.K_hat, rel=1e-12)


def test_envelope_uses_config_hessian_bound_override():
    # dimension large enough that the inner-iteration terms bind before n
    cfg = SolverConfig(eps_g=1e-4, eps_H=1e-2, U_H=50.0)
    env = iteration_envelope(PC, cfg, f0=5.0, n=100_000)
    cfg_default = cfg.with_updates(U_H=None)
    env_default = iteration_envelope(PC, cfg_default, f0=5.0, n=100_000)
    assert env.ops_bound > env_default.ops_bound  # looser bound, larger budget


def test_success_probability():
    # K_hat * delta > 1: the bound 1 - K_hat * delta is vacuous and reads 0.
    cfg = SolverConfig(eps_g=1e-4, eps_H=1e-2, delta=1e-6)
    env = iteration_envelope(PC, cfg, f0=5.0, n=10)
    assert env.K_hat * cfg.delta > 1.0
    assert env.success_prob == 0.0
    # K_hat * delta < 1: the formula itself.
    cfg = SolverConfig(eps_g=0.5, eps_H=0.9, delta=1e-9)
    env = iteration_envelope(PC, cfg, f0=PC.f_low + 1e-3, n=10)
    assert env.success_prob == pytest.approx(0.99999998)
    assert env.success_prob == 1.0 - env.K_hat * cfg.delta


def test_envelope_rejects_f0_below_floor():
    with pytest.raises(ValueError):
        iteration_envelope(PC, SolverConfig(), f0=PC.f_low - 1.0, n=3)


# --- local rate --------------------------------------------------------------

def test_local_rate_threshold_example():
    threshold, contraction = local_rate_constants(L_H=2.0, eta=1.0, eps_g=0.1, mu=1.0)
    assert threshold == pytest.approx(0.1)
    assert contraction == pytest.approx(1.0)


def test_local_rate_quadratic_objective_contracts_in_one_step():
    threshold, contraction = local_rate_constants(L_H=0.0, eta=1.0, eps_g=0.1, mu=0.5)
    assert contraction == 0.0


def test_local_rate_rejects_nonpositive_mu():
    with pytest.raises(ValueError):
        local_rate_constants(1.0, 1.0, 0.1, 0.0)

