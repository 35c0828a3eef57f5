"""The benchmark's tracer still finds, and records, every layer it wraps."""

from __future__ import annotations

import importlib
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("checkout", "tracer", "workloads")


@pytest.fixture
def bench(monkeypatch):
    """The bench's ``tracer`` and ``workloads`` modules, imported from ``bench/``."""
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("tracer"), importlib.import_module("workloads")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def traced_run(t, workload, i):
    """Run ``workload.run(i)`` with the tracer installed, as the bench does."""
    t.install()
    try:
        return workload.run(i)
    finally:
        t.uninstall()


def untraced_traced_untraced(t, workload):
    """Run 0 untraced, traced, then untraced again, in the order of the bench's
    warm-up, traced and plain runs, and return the traced result.

    The traced run passes its check, and the three checks report the same
    counts: the bench's self-check fails when counts differ for a seed.
    """
    before = workload.check(0, workload.run(0))
    result = traced_run(t, workload, 0)
    traced = workload.check(0, result)
    after = workload.check(0, workload.run(0))
    assert traced.failure is None
    assert [before.counts, after.counts] == [traced.counts] * 2
    return result


def test_every_traced_layer_records_a_call(bench, tmp_path):
    tracer, workloads = bench
    # Set up before the tracer goes in: the problems' constant checks make
    # calls of their own, which the counters of a run do not see.
    q50 = workloads.make("q50-inexact")
    q50.setup(0)
    cli = workloads.make("rosen10-cli")
    cli.setup(0)
    shutil.rmtree(cli.out)
    cli.out = tmp_path
    # The constructor reads every attribute it wraps, so a renamed or
    # dropped one fails here.
    t = tracer.Tracer()
    result = untraced_traced_untraced(t, q50)
    c = result[2].counters
    assert t.operator_calls() == (c.n_f, c.n_grad, c.n_hv)
    after_q50 = {name: layer.calls for name, layer in t.layers.items()}
    # Invocations 0 and 1 run exact and exact-local.
    for i in range(2):
        outcome = cli.check(i, traced_run(t, cli, i))
        assert outcome.failure is None or outcome.known_miss
    # Each workload's layers record calls in that workload's own runs.
    silent = [name for name in q50.layers if after_q50[name] == 0]
    silent += [name for name in cli.layers if t.layers[name].calls == after_q50[name]]
    assert silent == []


def test_rosen100_inexact_traced_run_records_every_layer(bench):
    # The matrix-free workload with real CG work on Hessian-vector products.
    tracer, workloads = bench
    rosen100 = workloads.make("rosen100-inexact")
    rosen100.setup(0)
    t = tracer.Tracer()
    result = untraced_traced_untraced(t, rosen100)
    c = result[2].counters
    assert t.operator_calls() == (c.n_f, c.n_grad, c.n_hv)
    assert [name for name in rosen100.layers if t.layers[name].calls == 0] == []
