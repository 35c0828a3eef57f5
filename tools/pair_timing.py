"""Run the benchmark configurations seed by seed on one ``sols`` source tree,
or time two trees against each other in one process.

Usage:
    python tools/pair_timing.py {q50,rosen100} FIRST LAST [--base BASE_SRC] [--src SRC]
    python tools/pair_timing.py rosen10 [FIRST LAST --base BASE_SRC] [--src SRC]

The problem, the solver config and the certificate oracle of a workload are
those of ``bench/workloads.py`` in this checkout. ``q50`` and ``rosen100``
run ``run_inexact`` once per seed FIRST..LAST (both included). ``rosen10``
runs ``rosenbrock-10d`` at the tolerances of the ``rosen10-cli`` workload
through ``run_exact``, as ``exact`` and then as ``exact-local``; its loops
draw no random numbers. The ``sols`` package comes from ``SRC`` (default:
the ``src`` directory of this checkout) and runs with one BLAS thread.

Without ``--base``, each run prints one JSON line: its seed (``rosen10``:
its ``algo``), its status, the counts ``n_f``, ``n_grad`` and ``n_hv``, the
iterations, the envelope verdict (null when the run has no envelope
checks), the dense-oracle verdict on its certificate (null without one) and
the sha256 of the ``x_final`` bytes. A last line holds the means over the
seeds; ``rosen10`` takes no seed range and has no such line. Diff the
outputs of two checkouts to compare them seed by seed.

With ``--base``, the ``sols`` packages of ``BASE_SRC`` (say, a checkout of
the parent commit) and of ``SRC`` are loaded side by side, as ``sols_base``
and ``sols_new``. Two copies can live in one process only because every
import inside the package is relative, so this is checked first. Each seed
is run on both trees back to back, the side that goes first alternating
from seed to seed. Both must end with equal status, counts and iterations,
or the script stops; seeds whose ``x_final`` bytes differ are counted, not
refused, so a change that moves only rounding can be timed too. For
``rosen10`` a seed only numbers one repetition of the pair of runs. One
untimed run per side comes first, so lazy set-up is not timed. The oracle
and the hash are computed outside the timer.

Prints each side's quartiles of wall ms per run, the ratio of the new
median to the base median, the median over seeds of each seed's new/base
ratio, the share of seeds on which the new tree was faster (ties count for
neither side) and the count of seeds whose ``x_final`` bytes differ. The
per-seed ratio pairs two runs of one seed made back to back, so it moves
less than the ratio of medians when a shared host drifts during the
comparison. Its median comes with a distribution-free 95% interval, from
the order statistics at the Binomial(n, 1/2) ranks; a ratio whose interval
holds 1 is unresolved by the run.

Before that summary, ``--base`` times the cold set-up that the benchmark's
``setup_s`` gates, in min(LAST - FIRST + 1, 15) pairs of fresh processes
with one BLAS thread, the side that goes first alternating from pair to
pair. Each probe times ``import sols`` from one tree (numpy and the
package's own imports included), then the build of the workload's
benchmark namesake (``q50-inexact``, ``rosen100-inexact`` or
``rosen10-cli``) from this checkout's ``bench/workloads.py``: the problem
or the suite, with its constants verified. Interpreter start-up is not
timed. Per side it prints the quartiles of import ms, build ms and their
sum, and for each the same ratios, interval and wins over the pairs. Times
are as measured, not scaled to a reference host speed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy loads, or the BLAS library has already started its threads.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "new")
COUNTS = ("n_f", "n_grad", "n_hv", "iterations")
DECISIONS = ("status", *COUNTS)
# Each workload argument and the benchmark workload whose configuration it runs.
BENCH_NAMES = {"q50": "q50-inexact", "rosen100": "rosen100-inexact", "rosen10": "rosen10-cli"}
SETUP_FIELDS = ("import_ms", "build_ms", "total_ms")
SETUP_PAIRS = 15

# The set-up probe, run as ``python -c PROBE SRC BENCH WORKLOAD`` with this
# process's environment, so with one BLAS thread.
PROBE = """
import json, os, sys, time
src, bench, name = sys.argv[1:]
sys.path[:0] = [src, bench]
start = time.perf_counter()
import sols
imported = time.perf_counter()
if not os.path.abspath(sols.__file__).startswith(os.path.join(src, "")):
    sys.exit(f"sols was imported from {sols.__file__}, not from {src}")
import workloads
workload = workloads.make(name)
built_from = time.perf_counter()
workload.build()
done = time.perf_counter()
print(json.dumps({"import_ms": 1e3 * (imported - start), "build_ms": 1e3 * (done - built_from)}))
"""


def absolute_self_imports(package_dir: Path) -> list[str]:
    """Each ``import sols...`` or ``from sols... import`` in the package, as FILE:LINE."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "sols" or n.startswith("sols.") for n in names):
                found.append(f"{path}:{node.lineno}")
    return found


def load_tree(src: Path, name: str):
    """The ``sols`` package under ``src`` imported as ``name``, every module loaded.
    A tree loaded earlier under ``name`` is dropped first, or its modules would stay."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    package_dir = src.resolve() / "sols"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(package_dir.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return package


@contextlib.contextmanager
def as_sols(package):
    """``import sols`` and ``import sols.X`` resolve to ``package`` inside the block,
    and ``workloads`` is imported afresh against it."""
    prefix = package.__name__ + "."
    aliases = {"sols": package} | {
        "sols." + key[len(prefix):]: module
        for key, module in sys.modules.items() if key.startswith(prefix)
    }
    saved = {key: sys.modules.pop(key) for key in [*aliases, "workloads"] if key in sys.modules}
    sys.modules.update(aliases)
    try:
        yield
    finally:
        for key in [*aliases, "workloads"]:
            sys.modules.pop(key, None)
        sys.modules.update(saved)


def configuration(name: str):
    """The problem and solver config of the benchmark workload ``BENCH_NAMES[name]``."""
    from sols.problems import get_problem
    from sols.steps import SolverConfig
    from workloads import CliWorkload, make

    if name == "rosen10":
        tolerances = SolverConfig(eps_g=CliWorkload.eps_g, eps_H=CliWorkload.eps_H)
        return get_problem(CliWorkload.problem_name), tolerances
    workload = make(BENCH_NAMES[name])
    return workload.build(), workload.cfg


def side(package, workload: str):
    """A function running one seed of ``workload`` on ``package``: it returns the
    wall seconds of the runs and a row of what each run did."""
    with as_sols(package):
        problem, cfg = configuration(workload)
        from workloads import CliWorkload, certificate_failure
    driver = package.driver

    def outcome(obj, report) -> dict:
        """Status, counts, verdicts and the ``x_final`` hash of one run."""
        checks = report.envelope_checks()
        cert = report.certificate
        oracle_ok = None
        if cert is not None:
            oracle_ok = certificate_failure(
                obj.dense_hessian, cert.point, cert.g_norm_min, cfg.eps_g, cfg.eps_H
            ) is None
        c = report.counters
        return {
            "status": report.status,
            "n_f": c.n_f,
            "n_grad": c.n_grad,
            "n_hv": c.n_hv,
            "iterations": report.iterations,
            "envelope_ok": driver.envelope_checks_pass(checks) if checks else None,
            "oracle_ok": oracle_ok,
            "x_final_sha256": hashlib.sha256(np.ascontiguousarray(report.x_final).tobytes()).hexdigest(),
        }

    def runs(seed: int):
        if workload == "rosen10":
            calls = [({"algo": algo}, driver.run_exact, cfg, {"local_phase": algo == "exact-local"})
                     for algo in CliWorkload.algos]
        else:
            calls = [({"seed": seed}, driver.run_inexact, cfg.with_updates(rng_seed=seed), {})]
        wall, rows = 0.0, []
        for key, run, run_cfg, kwargs in calls:
            obj = problem.make_objective()
            x0 = problem.start_point()
            start = time.perf_counter()
            report, _records = run(obj, x0, run_cfg, **kwargs)
            wall += time.perf_counter() - start
            rows.append({**key, **outcome(obj, report)})
        return wall, rows

    return runs


def quartiles(values: list[float]) -> list[float]:
    """q1, the median and q3 of ``values``; one value is all three."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def quartiles_ms(ms: list[float]) -> str:
    q1, q2, q3 = quartiles(ms)
    return f"median {q2:.4f} ms (q1 {q1:.4f}, q3 {q3:.4f})"


def median_interval(values: list[float]) -> tuple[float, float] | None:
    """A distribution-free 95% interval for the median of ``values``.

    With the values sorted, it runs from the k-th smallest to the k-th
    largest, k the largest rank with P(Binomial(n, 1/2) <= k - 1) <= 2.5%,
    so it misses the median with probability at most 5% whatever the
    distribution. None below 6 values, where even the extremes cover less.
    """
    ordered, n = sorted(values), len(values)
    k = tail = 0  # tail = 2**n * P(Binomial(n, 1/2) <= k - 1), in exact integers
    while 40 * (tail + math.comb(n, k)) <= 2**n:
        tail += math.comb(n, k)
        k += 1
    return (ordered[k - 1], ordered[n - k]) if k else None


def interval_note(interval: tuple[float, float] | None) -> str:
    if interval is None:
        return "too few pairs for a 95% interval"
    low, high = interval
    verdict = ("holds 1, unresolved" if low <= 1.0 <= high
               else "new faster" if high < 1.0 else "new slower")
    return (f"95% interval {low:.4f} to {high:.4f} "
            f"({low - 1.0:+.2%} to {high - 1.0:+.2%}): {verdict}")


def paired_ratios(base: list[float], new: list[float], unit: str) -> str:
    """The ratio of the medians of ``new`` and ``base``, the median of the paired
    new/base ratios with its 95% interval, and the share of pairs ``new`` won."""
    ratio = statistics.median(new) / statistics.median(base)
    ratios = [n / b for n, b in zip(new, base)]
    paired = statistics.median(ratios)
    wins, pairs = sum(r < 1.0 for r in ratios), len(ratios)
    return (f"new/base median {ratio:.4f} ({ratio - 1.0:+.2%}); median per-{unit} new/base "
            f"{paired:.4f} ({paired - 1.0:+.2%}), {interval_note(median_interval(ratios))}; "
            f"new faster on {wins}/{pairs} {unit}s ({wins / pairs:.1%})")


def probe(src: Path, workload: str) -> dict:
    """One cold set-up of the benchmark workload ``workload`` on the package in ``src``, in ms."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(src.resolve()), str(ROOT / "bench"), workload],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"probe of {src} failed:\n{proc.stderr.strip()}")
    times = json.loads(proc.stdout.splitlines()[-1])
    times["total_ms"] = times["import_ms"] + times["build_ms"]
    return times


def print_setup(trees: dict[str, Path], workload: str, pairs: int) -> None:
    """Time the cold set-up of ``workload`` on both trees in ``pairs`` alternating pairs."""
    probes = {s: [] for s in SIDES}
    for i in range(pairs):
        for s in SIDES if i % 2 == 0 else SIDES[::-1]:
            probes[s].append(probe(trees[s], workload))
    ms = {(s, f): [p[f] for p in probes[s]] for s in SIDES for f in SETUP_FIELDS}
    print(f"cold set-up of {workload}, {pairs} pairs of fresh processes:")
    for s in SIDES:
        for f in SETUP_FIELDS:
            print(f"{s:4} {f:9} {quartiles_ms(ms[s, f])}")
    for f in SETUP_FIELDS:
        print(f"{f:9} {paired_ratios(ms['base', f], ms['new', f], 'pair')}")


def print_rows(runs, workload: str, seeds: range) -> None:
    """One JSON line per run, and for a seeded workload a line of means."""
    rows = []
    for seed in seeds:
        for row in runs(seed)[1]:
            rows.append(row)
            print(json.dumps(row), flush=True)
    if workload != "rosen10":
        means = {f"mean_{k}": sum(r[k] for r in rows) / len(rows) for k in COUNTS}
        print(json.dumps({"seeds": len(rows), **means}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=BENCH_NAMES)
    parser.add_argument("first", type=int, nargs="?")
    parser.add_argument("last", type=int, nargs="?")
    parser.add_argument("--base", type=Path,
                        help="directory holding the sols package to time against "
                             "(default: none; print what each seed did instead)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the new sols package (default: this checkout's src)")
    args = parser.parse_args(argv)
    ranged = args.workload != "rosen10" or args.base is not None
    if ranged and (args.first is None or args.last is None):
        parser.error(f"{args.workload} needs FIRST and LAST")
    if not ranged and args.first is not None:
        parser.error("rosen10 takes no seed range without --base")
    if ranged and args.first < 0:
        parser.error("FIRST must not be negative")
    if ranged and args.last < args.first:
        parser.error("LAST must not be below FIRST")
    # rosen10 draws no random numbers, so on one tree it runs once.
    seeds = range(args.first, args.last + 1) if ranged else range(1)
    trees = {"new": args.src} if args.base is None else dict(zip(SIDES, (args.base, args.src)))
    for src in trees.values():
        if not (src / "sols" / "__init__.py").is_file():
            parser.error(f"{src} holds no sols package")
        found = absolute_self_imports(src / "sols")
        if found:
            parser.error(f"sols imports itself by absolute name, so two copies cannot "
                         f"share a process: {', '.join(found)}")
    # The workload definitions come from this checkout.
    sys.path.insert(0, str(ROOT / "bench"))
    runners = {s: side(load_tree(src, f"sols_{s}"), args.workload) for s, src in trees.items()}
    if args.base is None:
        print_rows(runners["new"], args.workload, seeds)
        return 0

    for s in SIDES:
        runners[s](seeds[0])
    walls = {s: [] for s in SIDES}
    moved = 0
    for i, seed in enumerate(seeds):
        done = {}
        for s in SIDES if i % 2 == 0 else SIDES[::-1]:
            wall, rows = runners[s](seed)
            walls[s].append(1e3 * wall)
            done[s] = rows
        decisions = {s: [[row[k] for k in DECISIONS] for row in rows] for s, rows in done.items()}
        if decisions["base"] != decisions["new"]:
            raise SystemExit(f"seed {seed}: the trees disagree on status, counts or iterations")
        hashes = {s: [row["x_final_sha256"] for row in rows] for s, rows in done.items()}
        moved += hashes["new"] != hashes["base"]

    print_setup(trees, BENCH_NAMES[args.workload], min(len(seeds), SETUP_PAIRS))
    n = len(seeds)
    for s in SIDES:
        print(f"{s:4} {trees[s]}: {quartiles_ms(walls[s])} over {n} seeds")
    print(f"{paired_ratios(walls['base'], walls['new'], 'seed')}; "
          f"x_final bytes differ on {moved}/{n} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
