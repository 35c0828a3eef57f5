"""Objective callbacks that misbehave from one call on.

Hypothesis draws a suite problem, one of its four callbacks, the index of
the call that goes wrong and the fault. All three loops run on the faulty
objective. A run must end in a documented status, or raise a ValueError
that names what went wrong; a callback that reuses its output buffer must
change nothing. Draws are derandomized, so every run of the test sees the
same cases.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sols import run_exact, run_inexact
from sols.driver import HARD_ERROR_STATUS
from sols.operators import NonFiniteError, Objective
from sols.problems import get_problem

STATUSES = ("converged", "max_iters", *HARD_ERROR_STATUS.values())
LOOPS = {
    "exact": run_exact,
    "exact-local": functools.partial(run_exact, local_phase=True),
    "inexact": run_inexact,
}
PROBLEMS = ("quad-convex-2d", "quartic-saddle-2d", "quartic-convex-4d", "reg-newton-2d",
            "rosenbrock-2d")
CALLBACKS = ("value", "gradient", "hessian_vector", "dense_hessian")
# Faults whose result the objective rejects with a ValueError naming the callback.
REJECTED = ("shape", "complex", "none")
FAULTS = ("reuse", "nan", "inf", "-inf", *REJECTED)


def corrupt(out, fault: str, buffer: list):
    """``out`` as a callback with ``fault`` returns it."""
    if fault == "reuse":
        if not buffer:
            buffer.append(np.empty_like(out))
        np.copyto(buffer[0], out)
        return buffer[0]
    if fault == "shape":
        return np.append(out, 0.0)
    if fault == "complex":
        return np.asarray(out, dtype=complex)
    if fault == "none":
        return None
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[fault]
    if np.ndim(out) == 0:
        return bad
    out = np.array(out, dtype=float)
    out.flat[0] = bad
    return out


def faulty_objective(problem, callback: str, first_bad: int, fault: str):
    """The problem's objective whose ``callback`` returns a ``fault`` result
    after its first ``first_bad`` calls, and the list of the (1-based) call
    numbers that returned one."""
    clean = problem.make_objective()
    callbacks = {name: getattr(clean, f"_{name}") for name in CALLBACKS}
    real = callbacks[callback]
    calls, faulted, buffer = [0], [], []

    def wrapped(*args):
        out = real(*args)
        calls[0] += 1
        if calls[0] <= first_bad:
            return out
        faulted.append(calls[0])
        return corrupt(out, fault, buffer)

    callbacks[callback] = wrapped
    obj = Objective(clean.dim, **callbacks, constants=clean.constants, name=problem.name)
    return obj, faulted


@st.composite
def cases(draw):
    callback = draw(st.sampled_from(CALLBACKS))
    faults = FAULTS[1:] if callback == "value" else FAULTS
    return (
        draw(st.sampled_from(PROBLEMS)), callback, draw(st.integers(0, 15)),
        draw(st.sampled_from(faults)),
    )


def outcome(report, records) -> tuple:
    return (report.status, report.error, report.iterations, report.counters,
            report.x_final.tobytes(), records)


def test_faulty_callbacks_end_in_a_documented_outcome():
    seen = Counter()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(cases())
    def check(case):
        name, callback, first_bad, fault = case
        problem = get_problem(name)
        cfg = problem.coverage_config
        for loop, run in LOOPS.items():
            obj, faulted = faulty_objective(problem, callback, first_bad, fault)
            try:
                report, records = run(obj, problem.start_point(), cfg)
            except ValueError as exc:
                assert faulted, (case, loop, exc)
                message = str(exc)
                if fault in REJECTED:
                    assert message.startswith(f"objective {name!r}: {callback} returned"), message
                else:
                    # Only a start value is checked before the loop's first step.
                    assert (callback, faulted[0], type(exc)) == ("value", 1, NonFiniteError)
                    assert message == "the objective at the start point is not finite"
                seen[f"{loop} raises {type(exc).__name__}"] += 1
                continue
            assert report.status in STATUSES, (case, loop, report.status)
            assert np.isfinite(report.f_final) and all(np.isfinite(r.f) for r in records)
            assert fault not in REJECTED or not faulted, (case, loop)
            if fault == "reuse" or not faulted:
                clean = problem.make_objective()
                assert outcome(report, records) == outcome(
                    *run(clean, problem.start_point(), cfg)
                ), (case, loop)
            seen[f"{loop} {report.status}" + (" (no fault reached)" if not faulted else "")] += 1

    check()
    for key, count in sorted(seen.items()):
        print(f"[callback fuzz] {key}: {count}")
    # The draws reach both ends: named errors and hard-error statuses.
    assert any(key.endswith("raises ValueError") for key in seen)
    assert any(key.endswith(" nonfinite") for key in seen)
