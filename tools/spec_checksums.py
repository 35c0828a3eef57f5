"""Run the CLI on a fixed spec set and print a checksum of every output file.

Usage:
    python tools/spec_checksums.py OUT_DIR [--src SRC] [--against OLD_OUT_DIR]

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

With ``--against OLD_OUT_DIR``, the output directory of an earlier run of
this script, the listing is followed by a comparison, every line of it a
``#`` comment that ``sha256sum -c`` skips: the count of moved files, then
one ``moved`` line per file whose bytes differ or that only one side has.
A moved ``*_report.json`` says which run outcomes moved: the exit code of
the command that wrote it, and per seed the status, iterations, counters and
certificate counters. A moved ``*_trace.csv`` names its first data row
(counted from 1 below the header) and column that moved among the columns
that say what a step did: ``k``, ``phase``, ``step_kind``, ``j``, the inner
iteration counts, ``cg_fallback`` and the counters; or a change in its row
count. When none did, either says "float bytes only". A moved log
(``.stdout``, ``.stderr`` or ``.exit``) names its first line that moved, as
``line N: OLD -> NEW`` with each side cut to ``LOG_WIDTH`` characters from a
little before where they part; or a change in its line count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The trace columns that say what a step did, not where its floats landed.
TRACE_OUTCOME = (
    "k", "phase", "step_kind", "j", "lanczos_iters", "cg_iters", "cg_fallback",
    "n_f", "n_grad", "n_hv",
)
# The characters a moved log line is shown with, and those kept before where the sides part.
LOG_WIDTH, LOG_LEAD = 60, 10


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
    # Plain float64 CG in the Lanczos basis misses this target within its
    # cap of n (exit 3); the preconditioned solve meets it in one iteration.
    yield "quad-convex-10d_inexact_eps-H1e-12", [
        "--problem", "quad-convex-10d", "--algo", "inexact", "--eps-H", "1e-12",
    ]
    # CG on Hessian-vector products at its cap of n with a target float64 can
    # reach: exit 3, and the message names both causes it cannot tell apart.
    yield "rosenbrock-2d_inexact_eps-g1e-10_zeta1e-9", [
        "--problem", "rosenbrock-2d", "--algo", "inexact", "--eps-g", "1e-10", "--zeta", "1e-9",
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


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, by its relative posix path, sorted."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(p for p in root.rglob("*") if p.is_file())
    }


def run_outcome(run: dict) -> dict:
    """The fields of one report run that say what it did, not where its floats landed."""
    cert = run["certificate"]
    return {
        "status": run["status"],
        "iterations": run["iterations"],
        "counters": run["counters"],
        "certificate counters": cert and {k: cert[k] for k in ("n_f", "n_grad", "n_hv", "steps")},
    }


def report_moves(old_dir: Path, new_dir: Path, rel: str) -> str:
    """What moved between the two sides of the report at ``runs/NAME/...``:
    the exit code of ``run_NAME`` and each run's outcome, or only float bytes."""
    exit_log = f"logs/run_{Path(rel).parts[1]}.exit"
    old_exit, new_exit = ((d / exit_log).read_text().strip() for d in (old_dir, new_dir))
    moves = [] if old_exit == new_exit else [f"exit code {old_exit} -> {new_exit}"]
    old_runs, new_runs = (json.loads((d / rel).read_text())["runs"] for d in (old_dir, new_dir))
    if len(old_runs) != len(new_runs):
        moves.append(f"runs {len(old_runs)} -> {len(new_runs)}")
    for old, new in zip(old_runs, new_runs):
        was, now = run_outcome(old), run_outcome(new)
        moves += [f"seed {new['seed']} {k} {was[k]} -> {now[k]}" for k in was if was[k] != now[k]]
    return "; ".join(moves) or "float bytes only"


def trace_moves(old_dir: Path, new_dir: Path, rel: str) -> str:
    """The first data row and ``TRACE_OUTCOME`` column that moved between the
    two sides of the trace at ``rel``, a change in its row count, or only
    float bytes."""
    old_rows, new_rows = (
        list(csv.DictReader((d / rel).read_text().splitlines())) for d in (old_dir, new_dir)
    )
    for i, (old, new) in enumerate(zip(old_rows, new_rows), start=1):
        for column in TRACE_OUTCOME:
            if old.get(column) != new.get(column):
                return f"row {i} {column} {old.get(column)} -> {new.get(column)}"
    if len(old_rows) != len(new_rows):
        return f"rows {len(old_rows)} -> {len(new_rows)}"
    return "float bytes only"


def clip(line: str, skip: int) -> str:
    """``line`` from character ``skip`` on, at most ``LOG_WIDTH`` characters."""
    text = ("..." if skip else "") + line[skip:]
    return text if len(text) <= LOG_WIDTH else text[: LOG_WIDTH - 3] + "..."


def log_moves(old_dir: Path, new_dir: Path, rel: str) -> str:
    """The first line that moved between the two sides of the log at ``rel``,
    a change in its line count, or only its line ends."""
    old_lines, new_lines = ((d / rel).read_text().splitlines() for d in (old_dir, new_dir))
    for i, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
        if old != new:
            skip = max(0, len(os.path.commonprefix([old, new])) - LOG_LEAD)
            return f"line {i}: {clip(old, skip)} -> {clip(new, skip)}"
    if len(old_lines) != len(new_lines):
        return f"lines {len(old_lines)} -> {len(new_lines)}"
    return "line ends only"


def compare(old_dir: Path, new_dir: Path, new: dict[str, str]) -> list[str]:
    """The ``#`` lines that name each file that moved from ``old_dir`` to ``new_dir``."""
    old = digests(old_dir)
    moved = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    lines = [f"# against {old_dir}: {len(moved)} of {len(new)} files moved"]
    for rel in moved:
        if rel not in old or rel not in new:
            note = "only in " + ("the new outputs" if rel in new else "the old outputs")
        elif rel.endswith("_report.json"):
            note = report_moves(old_dir, new_dir, rel)
        elif rel.endswith("_trace.csv"):
            note = trace_moves(old_dir, new_dir, rel)
        elif rel.startswith("logs/"):
            note = log_moves(old_dir, new_dir, rel)
        else:
            note = None
        lines.append(f"# moved  {rel}" + (f"  ({note})" if note else ""))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="new or empty directory for the outputs")
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the sols package (default: this checkout's src)",
    )
    parser.add_argument(
        "--against", type=Path, metavar="OLD_OUT_DIR",
        help="an earlier OUT_DIR of this script: name each file that moved since",
    )
    args = parser.parse_args()
    out_dir = args.out_dir
    if out_dir.exists() and any(out_dir.iterdir()):
        parser.error(f"{out_dir} is not empty")
    if args.against is not None and not (args.against / "logs").is_dir():
        parser.error(f"{args.against} is not an output directory of this script")
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

    files = digests(out_dir)
    for rel, digest in files.items():
        print(f"{digest}  {rel}")
    if args.against is not None:
        print("\n".join(compare(args.against, out_dir, files)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
