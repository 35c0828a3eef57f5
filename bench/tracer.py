"""Spans around calls into ``sols``, recorded from outside the package.

Each traced function is replaced at the attribute its caller resolves at
call time: ``sols.driver.backtrack`` rather than ``sols.linesearch.backtrack``,
``sols.steps.lanczos_min_eig`` rather than ``sols.eigen.lanczos_min_eig``, and
the ``Objective`` methods on the class. A call made through any other name
records nothing, which is why the benchmark fails when a layer a workload
must use records no span.

Spans are aggregated as they close, per layer: calls, self time (the span's
duration minus the time its direct child spans cover) and the layer's own
work counts. Keeping every span would take hundreds of megabytes on a
30-second run of ~20k Hessian-vector products per solve.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass, field

import sols.cli
import sols.driver
import sols.steps
from sols.cgsolve import cg_iteration_cap
from sols.eigen import lanczos_iteration_cap
from sols.linesearch import LineSearchStallError
from sols.operators import Objective

STATUSES = ("converged", "max_iters", "ls_stall", "cg_cap")


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    work: Counter = field(default_factory=Counter)


def _lanczos_done(work, args, est):
    work["iters"] += est.iters
    work["cap"] += lanczos_iteration_cap(args["n"], args["M"], args["eps"], args["delta"])
    work["full_n"] += est.converged_by == "full_n"


def _cg_done(work, args, outcome):
    work["iters"] += outcome.iters
    work["cap"] += cg_iteration_cap(args["n"], args["m"], args["M"], args["zeta"])
    work["npc"] += outcome.status == "nonpositive_curvature"


def _backtrack_done(work, args, result):
    work["accepted"] += 1
    work["probes"] += result.probes


def _backtrack_failed(work, args, exc):
    if isinstance(exc, LineSearchStallError):
        work["stalls"] += 1
        work["probes"] += args["cfg"].max_ls_steps + 1


def _run_done(work, args, result):
    report, _records = result
    work["iterations"] += report.iterations
    work[report.status] += 1


# (layer, owner, attribute, hook on return, hook on exception)
TARGETS = (
    ("operators.value", Objective, "value", None, None),
    ("operators.gradient", Objective, "gradient", None, None),
    ("operators.hessian_vector", Objective, "hessian_vector", None, None),
    ("operators.dense_hessian", Objective, "dense_hessian", None, None),
    ("eigen.lanczos_min_eig", sols.steps, "lanczos_min_eig", _lanczos_done, None),
    ("eigen.min_eigenpair_exact", sols.steps, "min_eigenpair_exact", None, None),
    ("eigen.min_eigenpair_exact", sols.driver, "min_eigenpair_exact", None, None),
    ("cgsolve.cg_capped", sols.steps, "cg_capped", _cg_done, None),
    ("cgsolve.solve_exact", sols.steps, "solve_exact", None, None),
    ("cgsolve.solve_exact", sols.driver, "solve_exact", None, None),
    ("linesearch.backtrack", sols.driver, "backtrack", _backtrack_done, _backtrack_failed),
    ("steps.select_direction", sols.driver, "select_direction_exact", None, None),
    ("steps.select_direction", sols.driver, "select_direction_inexact", None, None),
    ("driver.run", sols.driver, "run_inexact", _run_done, None),
    ("driver.run", sols.cli, "run_exact", _run_done, None),
    ("driver.run", sols.cli, "run_inexact", _run_done, None),
    ("cli.main", sols.cli, "main", None, None),
)
LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))
OPERATOR_COUNTS = ("operators.value", "operators.gradient", "operators.hessian_vector")


class Tracer:
    """Installs span wrappers on ``TARGETS`` and aggregates what they record."""

    def __init__(self):
        self.layers = {name: Layer() for name in LAYERS}
        self._open: list[float] = []  # child time of each open span, innermost last
        self._wrappers = []
        for layer, owner, attr, done, failed in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, done, failed)
            self._wrappers.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._wrappers:
            setattr(owner, attr, original)

    def operator_calls(self) -> tuple[int, ...]:
        """Calls so far of value, gradient and hessian_vector, as (n_f, n_grad, n_hv)."""
        return tuple(self.layers[name].calls for name in OPERATOR_COUNTS)

    def _wrap(self, name, fn, done, failed):
        layer = self.layers[name]
        open_spans = self._open
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(layer.work, signature.bind(*args, **kwargs).arguments, exc)
                raise
            finally:
                duration = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                layer.calls += 1
                layer.self_s += duration - child
            if done is not None:
                done(layer.work, signature.bind(*args, **kwargs).arguments, result)
            return result

        return span

    def metrics(self, runs: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); counts and times are per run."""
        L = self.layers
        out: dict[str, tuple[float, str]] = {}

        def per_run(name, value, unit):
            out[name] = (value / runs, unit)

        def share(name, part, whole):
            out[name] = (part / whole if whole else 0.0, "ratio")

        for name in LAYERS:
            if name not in ("driver.run", "cli.main"):
                per_run(f"{name}.calls", L[name].calls, "count/run")
            per_run(f"{name}.self_ms", 1e3 * L[name].self_s, "ms/run")
        for name, flag, frac in (
            ("eigen.lanczos_min_eig", "full_n", "full_n_frac"),
            ("cgsolve.cg_capped", "npc", "npc_frac"),
        ):
            work = L[name].work
            per_run(f"{name}.iters", work["iters"], "count/run")
            share(f"{name}.cap_use", work["iters"], work["cap"])
            share(f"{name}.{frac}", work[flag], L[name].calls)
        bt = L["linesearch.backtrack"].work
        share("linesearch.backtrack.accept_ratio", bt["accepted"], bt["probes"])
        per_run("linesearch.backtrack.stalls", bt["stalls"], "count/run")
        run = L["driver.run"]
        per_run("driver.iterations", run.work["iterations"], "count/run")
        for status in STATUSES:
            share(f"driver.status.{status}", run.work[status], run.calls)
        return out
