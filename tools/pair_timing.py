"""Time two ``sols`` source trees seed by seed in one process.

Usage:
    python tools/pair_timing.py {q50,rosen100,rosen10} FIRST LAST --base BASE_SRC [--src SRC]

Loads the ``sols`` package of ``BASE_SRC`` (say, a checkout of the parent
commit) and of ``SRC`` (default: the ``src`` directory of this checkout)
side by side, as the packages ``sols_base`` and ``sols_new``, with one BLAS
thread. Two copies can live in one process only because every import inside
the package is relative, so this is checked first.

The problem and solver config are those of ``tools/seed_counts.py``, built
by each tree from this checkout's ``bench/workloads.py``. For each seed
FIRST..LAST (both included) the run is made on both trees back to back, the
side that goes first alternating from seed to seed. Both must end with
equal status, counts and iterations, or the script stops; seeds whose
``x_final`` bytes differ are counted, not refused, so a change that moves
only rounding can be timed too. ``rosen10`` runs ``run_exact``
as ``exact`` and then ``exact-local``; its loops draw no random numbers, so
there a seed only numbers one repetition of the pair. One untimed run per
side comes first, so lazy set-up is not timed.

Prints each side's quartiles of wall ms per run, the ratio of the new
median to the base median, the median over seeds of each seed's new/base
ratio, the share of seeds on which the new tree was faster (ties count for
neither side) and the count of seeds whose ``x_final`` bytes differ. The
per-seed ratio pairs two runs of one seed made back to back, so it moves
less than the ratio of medians when a shared host drifts during the
comparison.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# Set before numpy loads, or the BLAS library has already started its threads.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "new")


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
    """The ``sols`` package under ``src`` imported as ``name``, every module loaded."""
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


def side(package, workload: str):
    """A function running one seed of ``workload`` on ``package``: it returns the
    wall seconds of the runs, what they did and the bytes of their ``x_final``."""
    from seed_counts import configuration

    with as_sols(package):
        problem, cfg = configuration(workload)
        from workloads import CliWorkload
    driver = package.driver

    def runs(seed: int):
        if workload == "rosen10":
            calls = [(driver.run_exact, cfg, {"local_phase": algo == "exact-local"})
                     for algo in CliWorkload.algos]
        else:
            calls = [(driver.run_inexact, cfg.with_updates(rng_seed=seed), {})]
        wall, outcomes, finals = 0.0, [], []
        for run, run_cfg, kwargs in calls:
            obj = problem.make_objective()
            x0 = problem.start_point()
            start = time.perf_counter()
            report, _records = run(obj, x0, run_cfg, **kwargs)
            wall += time.perf_counter() - start
            c = report.counters
            outcomes.append((report.status, c.n_f, c.n_grad, c.n_hv, report.iterations))
            finals.append(np.ascontiguousarray(report.x_final).tobytes())
        return wall, outcomes, finals

    return runs


def quartiles_ms(seconds: list[float]) -> str:
    ms = [1e3 * s for s in seconds]
    q1, q2, q3 = statistics.quantiles(ms, n=4, method="inclusive") if len(ms) > 1 else ms * 3
    return f"median {q2:.4f} ms (q1 {q1:.4f}, q3 {q3:.4f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("q50", "rosen100", "rosen10"))
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--base", type=Path, required=True,
                        help="directory holding the sols package to compare against")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the new sols package (default: this checkout's src)")
    args = parser.parse_args(argv)
    if args.last < args.first:
        parser.error("LAST must not be below FIRST")
    for src in (args.base, args.src):
        found = absolute_self_imports(src / "sols")
        if found:
            parser.error(f"sols imports itself by absolute name, so two copies cannot "
                         f"share a process: {', '.join(found)}")
    # seed_counts and the workload definitions come from this checkout.
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

    runners = {
        s: side(load_tree(src, f"sols_{s}"), args.workload)
        for s, src in zip(SIDES, (args.base, args.src))
    }
    for s in SIDES:
        runners[s](args.first)

    walls = {s: [] for s in SIDES}
    wins = moved = 0
    for i, seed in enumerate(range(args.first, args.last + 1)):
        done = {}
        for s in SIDES if i % 2 == 0 else SIDES[::-1]:
            done[s] = runners[s](seed)
            walls[s].append(done[s][0])
        if done["base"][1] != done["new"][1]:
            raise SystemExit(f"seed {seed}: the trees disagree on status, counts or iterations")
        wins += done["new"][0] < done["base"][0]
        moved += done["new"][2] != done["base"][2]

    n = len(walls["new"])
    for s, src in zip(SIDES, (args.base, args.src)):
        print(f"{s:4} {src}: {quartiles_ms(walls[s])} over {n} seeds")
    ratio = statistics.median(walls["new"]) / statistics.median(walls["base"])
    per_seed = statistics.median(new / base for new, base in zip(walls["new"], walls["base"]))
    print(f"new/base median {ratio:.4f} ({ratio - 1.0:+.2%}); median per-seed new/base "
          f"{per_seed:.4f} ({per_seed - 1.0:+.2%}); new faster on {wins}/{n} seeds "
          f"({wins / n:.1%}); x_final bytes differ on {moved}/{n} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
