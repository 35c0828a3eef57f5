"""Run a benchmark configuration over a seed range and print what each seed did.

Usage:
    python tools/seed_counts.py {q50,rosen100} FIRST LAST [--src SRC]
    python tools/seed_counts.py rosen10 [--src SRC]

Runs ``run_inexact`` once per seed FIRST..LAST (both included) with the
``sols`` package found in ``SRC`` (default: the ``src`` directory of this
checkout) and one BLAS thread. The problem, the solver config and the
certificate oracle are those of ``bench/workloads.py`` in this checkout.
Each seed prints one JSON line: its status, the counts ``n_f``, ``n_grad``
and ``n_hv``, the iterations, the envelope verdict (null when the run has no
envelope checks), the dense-oracle verdict on its certificate (null without
one) and the sha256 of the ``x_final`` bytes. A last line holds the means
over the seeds.

``rosen10`` runs ``rosenbrock-10d`` with the tolerances of the
``rosen10-cli`` workload through ``run_exact``, once as ``exact`` and once
as ``exact-local``, and prints one such line for each, keyed by ``algo``
instead of ``seed``. The exact loops draw no random numbers, so there is no
seed range.

To compare two versions seed by seed, run it on both and diff the outputs,
for example ``python tools/seed_counts.py q50 101 400 > new.jsonl`` and
``python tools/seed_counts.py q50 101 400 --src OLD_CHECKOUT/src > old.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

# Set before numpy loads, or the BLAS library has already started its threads.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("n_f", "n_grad", "n_hv", "iterations")


def configuration(name: str):
    """The problem and solver config of a workload: ``q50-inexact``,
    ``rosen100-inexact`` or ``rosen10-cli``."""
    from sols.problems import get_problem
    from sols.steps import SolverConfig
    from workloads import MC_CFG, CliWorkload, rosenbrock_100d

    if name == "q50":
        return get_problem("quartic-saddle-50d"), MC_CFG
    if name == "rosen10":
        tolerances = SolverConfig(eps_g=CliWorkload.eps_g, eps_H=CliWorkload.eps_H)
        return get_problem(CliWorkload.problem_name), tolerances
    return rosenbrock_100d(), SolverConfig()


def outcome(obj, cfg, report) -> dict:
    """What one run did: status, counts, verdicts and the ``x_final`` hash."""
    from sols.driver import envelope_checks_pass
    from workloads import certificate_failure

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
        "envelope_ok": envelope_checks_pass(checks) if checks else None,
        "oracle_ok": oracle_ok,
        "x_final_sha256": hashlib.sha256(np.ascontiguousarray(report.x_final).tobytes()).hexdigest(),
    }


def seed_row(problem, cfg, seed: int) -> dict:
    from sols import run_inexact

    obj = problem.make_objective()
    run_cfg = cfg.with_updates(rng_seed=seed)
    report, _records = run_inexact(obj, problem.start_point(), run_cfg)
    return {"seed": seed, **outcome(obj, cfg, report)}


def algo_row(problem, cfg, algo: str) -> dict:
    from sols import run_exact

    obj = problem.make_objective()
    report, _records = run_exact(
        obj, problem.start_point(), cfg, local_phase=algo == "exact-local"
    )
    return {"algo": algo, **outcome(obj, cfg, report)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("q50", "rosen100", "rosen10"))
    parser.add_argument("first", type=int, nargs="?")
    parser.add_argument("last", type=int, nargs="?")
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src",
        help="directory holding the sols package (default: this checkout's src)",
    )
    args = parser.parse_args()
    seeded = args.workload != "rosen10"
    if seeded and (args.first is None or args.last is None):
        parser.error(f"{args.workload} needs FIRST and LAST")
    if not seeded and args.first is not None:
        parser.error("rosen10 takes no seed range")
    if seeded and args.last < args.first:
        parser.error("LAST must not be below FIRST")
    # The workload definitions come from this checkout's bench/; sols from SRC.
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]

    problem, cfg = configuration(args.workload)
    if not seeded:
        from workloads import CliWorkload

        for algo in CliWorkload.algos:
            print(json.dumps(algo_row(problem, cfg, algo)), flush=True)
        return 0
    rows = []
    for seed in range(args.first, args.last + 1):
        rows.append(seed_row(problem, cfg, seed))
        print(json.dumps(rows[-1]), flush=True)
    means = {f"mean_{k}": sum(r[k] for r in rows) / len(rows) for k in COUNTS}
    print(json.dumps({"seeds": len(rows), **means}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
