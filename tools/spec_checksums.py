"""Run the CLI on a fixed spec set and print a checksum of every output file.

Usage:
    python tools/spec_checksums.py OUT_DIR [--src SRC]

Every command runs as ``python -m sols.cli`` with ``SRC`` (default: the
``src`` directory of this checkout) on ``PYTHONPATH``, one BLAS thread, and
cwd ``OUT_DIR``; each ``sols run`` writes to a relative ``--out``, so no
absolute path reaches an output. For every command the stdout, stderr and
exit code are kept under ``OUT_DIR/logs``; the reports and traces land under
``OUT_DIR/runs``. Each run's out dir is then summarised with ``sols
envelope``, and ``list-problems``, ``--help`` and ``run --help`` are
recorded too. The output is one ``sha256  path`` line per file, sorted by
path, in the format ``sha256sum -c`` reads.

To check that a change keeps the CLI's outputs, run the script on the new
code and on the old and diff the two listings, for example
``python tools/spec_checksums.py NEW_OUT > new.txt`` and
``python tools/spec_checksums.py OLD_OUT --src OLD_CHECKOUT/src > old.txt``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_specs(problems: list[str]):
    """``(name, run arguments)`` of every spec, each with its own out dir."""
    per_problem = {
        "exact": ["--algo", "exact"],
        "exact-local": ["--algo", "exact-local"],
        "inexact_seed0,1": ["--algo", "inexact", "--seed", "0,1"],
        "exact_strict": ["--algo", "exact", "--strict-second-order"],
        "exact-local_strict": ["--algo", "exact-local", "--strict-second-order"],
        "exact_loose": ["--algo", "exact", "--eps-g", "1e-3", "--eps-H", "0.5"],
        "inexact_strict": ["--algo", "inexact", "--seed", "0", "--strict-second-order"],
    }
    for problem in problems:
        for label, args in per_problem.items():
            yield f"{problem}_{label}", ["--problem", problem, *args]
    yield "quartic-saddle-50d_inexact_seed7,8", [
        "--problem", "quartic-saddle-50d", "--algo", "inexact",
        "--eps-g", "1e-4", "--eps-H", "1e-2", "--seed", "7,8",
    ]
    # A Lanczos budget below n: CG runs on Hessian-vector products.
    yield "quartic-saddle-50d_inexact_budget32", [
        "--problem", "quartic-saddle-50d", "--algo", "inexact", "--eps-H", "0.5", "--delta", "0.1",
    ]
    yield "quartic-offset-2d_inexact_jobs2", [
        "--problem", "quartic-offset-2d", "--algo", "inexact", "--seed", "0,1,2", "--jobs", "2",
    ]
    yield "rosenbrock-10d_exact-local_seed3", [
        "--problem", "rosenbrock-10d", "--algo", "exact-local", "--seed", "3",
    ]
    yield "quad-convex-2d_inexact_huge-U-H", [
        "--problem", "quad-convex-2d", "--algo", "inexact", "--U-H", "1e308",
    ]
    # Stops before any certificate, so its envelope checks are empty.
    yield "rosenbrock-2d_exact_max-iters1", [
        "--problem", "rosenbrock-2d", "--algo", "exact", "--max-iters", "1",
    ]
    # Below the backtracking cap the declared constants imply: exit 2, and
    # stderr names the largest cap over the loop's direction kinds.
    for algo in ("exact", "inexact"):
        yield f"rosenbrock-2d_{algo}_max-ls-steps2", [
            "--problem", "rosenbrock-2d", "--algo", algo, "--max-ls-steps", "2",
        ]
    # A CG residual target below float64's reach: exit 3, with a cg_cap report.
    for problem, flag, value in (
        ("quad-convex-2d", "--zeta", "1e-200"),
        ("quad-convex-10d", "--zeta", "0"),
        ("rosenbrock-2d", "--eps-H", "1e-30"),
    ):
        yield f"{problem}_inexact_{flag[2:]}{value}", [
            "--problem", problem, "--algo", "inexact", flag, value,
        ]


def sols(out_dir: Path, env: dict, name: str, args: list[str]) -> str:
    """Run ``sols ARGS`` in ``out_dir``, keep its streams and exit code under
    ``logs/NAME.*``, and return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "sols.cli", *args],
        cwd=out_dir, env=env, capture_output=True, text=True,
    )
    logs = out_dir / "logs"
    (logs / f"{name}.stdout").write_text(proc.stdout)
    (logs / f"{name}.stderr").write_text(proc.stderr)
    (logs / f"{name}.exit").write_text(f"{proc.returncode}\n")
    return proc.stdout


def problem_names(listing: str) -> list[str]:
    """First column of the ``list-problems`` table, below its dashed rule."""
    lines = listing.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    return [line.split()[0] for line in lines[rule + 1 :] if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="new or empty directory for the outputs")
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the sols package (default: this checkout's src)",
    )
    args = parser.parse_args()
    out_dir = args.out_dir
    if out_dir.exists() and any(out_dir.iterdir()):
        parser.error(f"{out_dir} is not empty")
    (out_dir / "logs").mkdir(parents=True)
    (out_dir / "runs").mkdir()

    env = {k: v for k, v in os.environ.items() if k != "SOLS_OUT_DIR"}
    env["PYTHONPATH"] = str(args.src.resolve())
    env.update(dict.fromkeys(BLAS_THREADS, "1"))

    listing = sols(out_dir, env, "list-problems", ["list-problems"])
    sols(out_dir, env, "help", ["--help"])
    sols(out_dir, env, "run-help", ["run", "--help"])
    for name, run_args in run_specs(problem_names(listing)):
        sols(out_dir, env, f"run_{name}", ["run", *run_args, "--out", f"runs/{name}"])
        sols(out_dir, env, f"envelope_{name}", ["envelope", "--in", f"runs/{name}"])

    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out_dir).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
