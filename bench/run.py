"""Benchmark of the sols solvers, one workload per invocation.

Usage (from the root of a checkout):

    python3 bench/run.py --workload q50-inexact --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload for ``--seconds`` and prints the
end-to-end metrics, with times given at a reference host speed (see
hostclock.py) and as measured. With ``--trace 1`` it runs the workload for half that
time with spans around every layer, re-runs the same seeds untraced, and
prints the per-layer metrics. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every self-check passed, 1 when one failed and 2 when ``sols`` cannot
be imported from this checkout's ``src/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checkout

SETUP_PROBES = 5
SEED_SPACE = 2**32  # workload seeds map into the non-negative seeds the CLI accepts


@dataclass
class Sample:
    wall_s: float
    outcome: "workloads.Outcome"
    calls: tuple[int, int, int] | None  # traced operator calls, as (n_f, n_grad, n_hv)
    norm_s: float | None = None  # wall_s at the reference host speed (hostclock.py)


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str) -> list[dict]:
    """Cold set-up times from ``SETUP_PROBES`` fresh processes, run one at a time."""
    probe = Path(__file__).with_name("probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    sha = None
    if (checkout.ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "blas_threads": {var: os.environ.get(var) for var in checkout.THREAD_VARS},
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_loop(workload, indices, deadline=math.inf, tracer=None, clock=None) -> list[Sample]:
    """Closed loop: run i starts when run i-1 and its check have ended.

    Stops after ``indices`` or at the first run boundary past ``deadline``,
    whichever comes first; at least one run is always made. Only
    ``workload.run`` is timed, and only it is traced. With a running
    ``clock``, the time its samples take is left out of each run and added
    to the deadline, and each run's time is also given at the reference
    speed.
    """
    samples: list[Sample] = []
    spans = []
    for i in indices:
        if samples and time.perf_counter() >= deadline + (clock.spent_s if clock else 0.0):
            break
        if tracer is not None:
            tracer.install()
            before = tracer.operator_calls()
        start = time.perf_counter()
        result = workload.run(i)
        end = time.perf_counter()
        wall = end - start - (clock.spent_between(start, end) if clock else 0.0)
        spans.append((start, end))
        calls = None
        if tracer is not None:
            tracer.uninstall()
            calls = tuple(a - b for a, b in zip(tracer.operator_calls(), before))
        samples.append(Sample(wall, workload.check(i, result), calls))
    if clock is not None:
        for s, (start, end) in zip(samples, spans):
            s.norm_s = s.wall_s * clock.factor(start, end)
    return samples


def determinism_errors(samples: list[Sample]) -> list[str]:
    """Runs of the same seed must report the same n_f, n_grad and n_hv."""
    seen: dict = {}
    errors = []
    for s in samples:
        first = seen.setdefault(s.outcome.key, s.outcome.counts)
        if first != s.outcome.counts:
            errors.append(f"counts of {s.outcome.key} differ: {first} then {s.outcome.counts}")
    return errors


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The nearest-rank 90th percentile, with the samples beyond it.

    Returns (value, percentile, samples beyond). Rarer percentiles ride on a
    few host hiccups: over five 30-second rosen10-cli runs of ~4000 calls
    each, the 11th-slowest call spread 0.20 across seeds and p90 0.075. With
    ten runs or fewer p90 is the maximum.
    """
    ordered = sorted(walls)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def rare_tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, for the printed record."""
    ordered = sorted(walls)
    k = len(ordered) - 11
    if k < 0:
        return "no percentile has ten runs beyond it"
    return f"p{100.0 * (k + 1) / len(ordered):.2f} {1e3 * ordered[k]:.6g} ms with 10 beyond"


def setup_times(setup: list[dict]) -> tuple[float, float]:
    """Median set-up time of the probes: as measured, and at the reference host speed."""
    raw = [p["import_s"] + p["build_s"] for p in setup]
    norm = [r * p["host_factor"] for r, p in zip(raw, setup)]
    return statistics.median(raw), statistics.median(norm)


def end_to_end(samples: list[Sample], setup: list[dict]) -> dict:
    """Times are at the reference host speed; as-measured ones are printed beside them."""
    n = len(samples)
    counts = [s.outcome.counts for s in samples]
    times = {}
    for label, walls in (("measured", [s.wall_s for s in samples]),
                         ("reference-speed", [s.norm_s for s in samples])):
        tail_s, pct, beyond = tail(walls)
        times[label] = (n / sum(walls), 1e3 * statistics.median(walls), 1e3 * tail_s)
        print(f"{label}: runs_per_s {times[label][0]:.6g}, run_ms_p50 {times[label][1]:.6g}, "
              f"run_ms_tail {times[label][2]:.6g} (p{pct:.2f} of {n} runs, {beyond} beyond it); "
              f"highest percentile: {rare_tail(walls)}")
    setup_raw, setup_norm = setup_times(setup)
    print(f"setup_s measured {setup_raw:.6g}, at reference speed {setup_norm:.6g}")
    runs_per_s, p50_ms, tail_ms = times["reference-speed"]
    return {
        "setup_s": (setup_norm, "s"),
        "runs_per_s": (runs_per_s, "1/s"),
        "run_ms_p50": (p50_ms, "ms"),
        "run_ms_tail": (tail_ms, "ms"),
        "n_f_per_run": (sum(c[0] for c in counts) / n, "count"),
        "n_grad_per_run": (sum(c[1] for c in counts) / n, "count"),
        "n_hv_per_run": (sum(c[2] for c in counts) / n, "count"),
        "pass_frac": (sum(s.outcome.failure is None for s in samples) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, workload, traced, plain, setup) -> tuple[dict, list[str]]:
    n = len(traced)
    metrics = tracer.metrics(n)
    metrics["cli.main.bytes_written"] = (
        sum(s.outcome.bytes_written for s in traced) / n, "B/run"
    )
    metrics["problems.build_s"] = (
        statistics.median(p["build_s"] * p["host_factor"] for p in setup), "s"
    )
    overhead = sum(s.wall_s for s in traced) - sum(s.wall_s for s in plain)
    metrics["trace.overhead_ms"] = (1e3 * overhead / n, "ms/run")
    errors = [
        f"layer {name} recorded no span"
        for name in workload.layers
        if tracer.layers[name].calls == 0
    ]
    errors += [
        f"traced operator calls {s.calls} != reported (n_f, n_grad, n_hv) "
        f"{s.outcome.counts} for {s.outcome.key}"
        for s in traced
        if s.calls != s.outcome.counts
    ]
    return metrics, errors


def main(argv=None) -> int:
    checkout.pin_threads()
    checkout.import_sols()
    import hostclock
    import tracer as tracing
    import workloads

    args = parse_args(argv, workloads.NAMES)
    print("environment:", json.dumps(environment(), sort_keys=True))
    setup = measure_setup(args.workload)
    workload = workloads.make(args.workload)
    workload.setup(args.seed % SEED_SPACE)
    try:
        # The warm-up run finishes lazy imports and first-call costs; the
        # timed loop then repeats its seed, which checks count determinism.
        warm = run_loop(workload, range(1))
        if args.trace:
            # Half the time traced, then the same seeds untraced: the
            # difference is the tracing overhead, and their counts must agree.
            tracer = tracing.Tracer()
            deadline = time.perf_counter() + args.seconds / 2
            measured = run_loop(workload, itertools.count(), deadline, tracer)
            plain = run_loop(workload, range(len(measured)))
            metrics, errors = per_layer(tracer, workload, measured, plain, setup)
            errors += determinism_errors(warm + measured + plain)
        else:
            with hostclock.HostClock() as clock:
                deadline = time.perf_counter() + args.seconds
                measured = run_loop(workload, itertools.count(), deadline, clock=clock)
            metrics = end_to_end(measured, setup)
            errors = determinism_errors(warm + measured)
    finally:
        workload.close()

    failures = Counter(
        (s.outcome.failure, s.outcome.known_miss) for s in measured if s.outcome.failure
    )
    n_missed = sum(failures.values())
    n_failed = sum(count for (_, known), count in failures.items() if not known)
    print(f"{args.workload}: {len(measured)} runs, {n_missed} not passed "
          f"(fail_frac {n_missed / len(measured):.4f}), {n_failed} of them unexpected")
    for (reason, known), count in failures.most_common():
        print(f"  {'known miss' if known else 'failed'} x{count}: {reason}")
    for status, count in sorted(Counter(s.outcome.status for s in measured).items()):
        print(f"  status {status}: {count}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    for error in errors[:20]:
        print(f"self-check failed: {error}")
    if len(errors) > 20:
        print(f"self-check failed: ... {len(errors) - 20} more")
    result = {
        "correct": not errors,
        "attempted": len(measured),
        "failed": n_failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
