"""Command-line harness: run solvers over seed grids and check envelopes."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import operator
import os
import sys
from dataclasses import asdict, fields, is_dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from .bounds import ComplexityEnvelope
from .driver import (
    COST_CHECK,
    HARD_ERROR_STATUS,
    ITERATION_CHECK,
    SCHEMA_VERSION,
    TRACE_COLUMNS,
    Certificate,
    RunReport,
    envelope_checks_pass,
    run_exact,
    run_inexact,
)
from .operators import EvalCounters
from .problems import get_problem, suite
from .steps import ConfigError, SolverConfig

DEFAULT_OUT_ENV = "SOLS_OUT_DIR"

# Config-file keys and their parsers, and the ``run`` flags: one per
# SolverConfig field except ``rng_seed``, which ``--seed`` sets per run.
_CONFIG_TYPES = {f.name: int if f.type == "int" else float for f in fields(SolverConfig)}
_RUN_FLAGS = tuple(name for name in _CONFIG_TYPES if name != "rng_seed")

# The ``run --algo`` choices, and every status a run can end with.
_ALGOS = ("exact", "exact-local", "inexact")
_STATUSES = ("converged", "max_iters", *HARD_ERROR_STATUS.values())

# One trace row per record. csv.writer writes None as "", a float by repr()
# and an int by str().
_trace_row = operator.attrgetter(*TRACE_COLUMNS)

# The type rule of a report field by its annotation: a JSON type, or a dataclass.
_READ_AS = {"str": str, "int": int, "float": Real, "bool": bool, "Array": list} | {
    c.__name__: c for c in (SolverConfig, RunReport, Certificate, EvalCounters, ComplexityEnvelope)}


def _parse_config_file(path: str) -> dict:
    """Flat key = value lines mirroring the SolverConfig field names."""
    values: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "rng_seed":
            raise ConfigError(
                f"{path}:{lineno}: rng_seed is not a config-file key; set seeds with --seed"
            )
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _CONFIG_TYPES[key](value)
    return values


def _build_config(args: argparse.Namespace) -> SolverConfig:
    values: dict = {}
    if args.config:
        values.update(_parse_config_file(args.config))
    for name in _RUN_FLAGS:
        val = getattr(args, name)
        if val is not None:
            values[name] = val
    cfg = SolverConfig(**values)
    cfg.validate()
    return cfg


def _report_run_dict(report: RunReport, seed: int, trace_file: str) -> dict:
    """The run's report fields, less ``algo``, which the report states once.

    The certificate's ``lam`` is written as ``lambda`` beside its counters,
    and the seed, trace file and envelope checks are added.
    """
    run = asdict(report)
    del run["algo"]
    cert = run["certificate"]
    if cert is not None:
        cert["lambda"] = cert.pop("lam")
        cert.update(cert.pop("counters"))
    run.update(seed=seed, trace_file=trace_file, envelope_checks=report.envelope_checks())
    return run


class OutputError(Exception):
    """An output file that cannot be written, from its path and the OSError."""

    def __str__(self) -> str:
        path, exc = self.args
        return f"cannot write {path}: {exc.strerror or exc}"


def _run_one(
    problem_name: str, algo: str, cfg: SolverConfig, strict: bool, out_dir: str, seed: int
) -> dict:
    problem = get_problem(problem_name)
    obj = problem.make_objective()
    run_cfg = cfg.with_updates(rng_seed=seed)
    x0 = problem.start_point()
    if algo == "inexact":
        report, records = run_inexact(obj, x0, run_cfg, strict_second_order=strict)
    else:
        report, records = run_exact(
            obj, x0, run_cfg, local_phase=algo == "exact-local", strict_second_order=strict
        )

    trace_name = f"{problem_name}_{algo}_seed{seed}_trace.csv"
    trace_path = Path(out_dir) / trace_name
    try:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            writer.writerows(map(_trace_row, records))
    except OSError as exc:
        raise OutputError(trace_path, exc) from None
    return _report_run_dict(report, seed, trace_name)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        problem = get_problem(args.problem)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        cfg = _build_config(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2

    seeds = args.seed
    out_dir = args.out or os.environ.get(DEFAULT_OUT_ENV, "sols-out")
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir!r}: {exc}", file=sys.stderr)
        return 2

    run_seed = functools.partial(
        _run_one, problem.name, args.algo, cfg, args.strict_second_order, out_dir
    )
    try:
        if args.jobs > 1 and len(seeds) > 1:
            # Imported here: it loads logging too, which single-process runs skip.
            import concurrent.futures

            workers = min(args.jobs, len(seeds))
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                runs = list(pool.map(run_seed, seeds))
        else:
            runs = list(map(run_seed, seeds))
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    all_converged = all(r["status"] == "converged" for r in runs)
    all_envelopes = all(envelope_checks_pass(r["envelope_checks"]) for r in runs)
    hard_errors = [r for r in runs if r["error"] is not None]
    report = {
        "schema_version": SCHEMA_VERSION,
        "problem": problem.name,
        "algo": args.algo,
        "strict_second_order": args.strict_second_order,
        "config": asdict(cfg),
        "runs": runs,
        "all_converged": all_converged,
        "all_envelope_checks_passed": all_envelopes,
    }
    report_path = Path(out_dir) / f"{problem.name}_{args.algo}_report.json"
    text = json.dumps(report, sort_keys=True, indent=2, default=np.ndarray.tolist)
    try:
        report_path.write_text(text + "\n")
    except OSError as exc:
        print(f"error: {OutputError(report_path, exc)}", file=sys.stderr)
        return 2

    for r in runs:
        print(
            f"{problem.name} {args.algo} seed={r['seed']}: {r['status']} "
            f"iterations={r['iterations']} f={r['f_final']:.6g} "
            f"g_norm={r['g_norm_final']:.3e}"
        )
    print(f"report: {report_path}")
    if hard_errors:
        for r in hard_errors:
            print(f"error: seed {r['seed']}: {r['error']}", file=sys.stderr)
        return 3
    return 0 if (all_converged and all_envelopes) else 1


def _format_table(rows: list[list[str]], header: list[str]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _read(annotation: str, value, key: str):
    """Report field ``key`` read as its ``annotation`` says. A bool is no number."""
    if value is None and annotation.endswith(" | None"):
        return None
    kind = _READ_AS[annotation.removesuffix(" | None")]
    if is_dataclass(kind):
        return kind(**{f.name: _read(f.type, value[f.name], f.name) for f in fields(kind)})
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise TypeError(f"{key!r} is {value!r}, not of type {annotation}")
    return value


def _one_of(key: str, value, allowed: tuple):
    """``value`` of report field ``key``, if it is one of the ``allowed`` that
    ``sols run`` writes: of the same type, so neither true nor 1.0 is 1."""
    if type(value) is not type(allowed[0]) or value not in allowed:
        raise ValueError(f"{key!r} is {value!r}, not one of {allowed}")
    return value


def _read_run(algo: str, run: dict) -> RunReport:
    """The RunReport that ``_report_run_dict`` wrote as ``run``, its changes
    undone; a ValueError unless its status is one a run ends with and its
    error is set exactly on a hard-error status."""
    cert = run["certificate"]
    if isinstance(cert, dict):
        cert["lam"] = cert.pop("lambda")
        cert["counters"] = {f.name: cert.pop(f.name) for f in fields(EvalCounters)}
    report = _read("RunReport", {**run, "algo": algo}, "run")
    _one_of("status", report.status, _STATUSES)
    if (report.error is None) == (report.status in HARD_ERROR_STATUS.values()):
        raise ValueError(f"'error' is {report.error!r} on a {report.status!r} run")
    return report


def _envelope_row(problem: str, run: dict, report: RunReport) -> list[str]:
    checks, seed = report.envelope_checks(), _read("int", run["seed"], "seed")
    # The trace name is the one place a run records its problem, algo and
    # seed together; exact and exact-local reports agree on everything else.
    trace_file = f"{problem}_{report.algo}_seed{seed}_trace.csv"
    if run["trace_file"] != trace_file:
        raise ValueError(f"'trace_file' is {run['trace_file']!r}, not {trace_file!r}")
    if json.dumps(run["envelope_checks"], sort_keys=True) != json.dumps(checks, sort_keys=True):
        raise ValueError(f"seed {seed}: envelope_checks differ from the run's own {checks}")
    if checks:
        cost_keys, label = COST_CHECK[report.algo == "inexact"]
        cells = []
        for keys, unit in ((ITERATION_CHECK, ""), (cost_keys, " " + label)):
            observed, bound = checks[keys[0]], checks[keys[1]]
            ratio = observed / bound if bound else 0.0
            cells += [f"{observed}/{bound:.3g}{unit}", f"{ratio:.2e}"]
        verdict = "ok" if envelope_checks_pass(checks) else "VIOLATED"
    else:
        cells, verdict = ["-"] * 4, "-"
    # A run that did not converge never reads "ok", even when the
    # bounds held up to its first certificate.
    if not report.converged and verdict != "VIOLATED":
        verdict = "FAILED"
    return [problem, report.algo, str(seed), report.status, *cells, verdict]


def _scaling_row(problem: str, config: dict, reports: list[RunReport]) -> list[str] | None:
    cfg = _read("SolverConfig", config, "config")
    env = next((r.envelope for r in reports if r.envelope is not None), None)
    if env is None:
        return None
    return [problem, reports[0].algo, f"{cfg.eps_g:.3g}", f"{cfg.eps_H:.3g}",
            f"{env.max_term:.6g}", f"{env.K_iter:.6g}", f"{env.K_hat:.6g}"]


def cmd_envelope(args: argparse.Namespace) -> int:
    in_dir = Path(args.in_dir)
    report_files = sorted(in_dir.glob("*_report.json")) if in_dir.is_dir() else []
    if not report_files:
        print(f"error: no report files found in {args.in_dir!r}", file=sys.stderr)
        return 2

    rows, scaling_rows = [], []
    for path in report_files:
        try:
            data = json.loads(path.read_text())
            _one_of("schema_version", data["schema_version"], (SCHEMA_VERSION,))
            problem = _read("str", data["problem"], "problem")
            algo = _one_of("algo", data["algo"], _ALGOS)
            if not data["runs"]:
                raise ValueError("it holds no runs")
            reports = [_read_run(algo, run) for run in data["runs"]]
            rows += [_envelope_row(problem, *pair) for pair in zip(data["runs"], reports)]
            scaling = _scaling_row(problem, data["config"], reports)
        except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            print(f"error: {path}: not a sols report: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        if scaling is not None:
            scaling_rows.append(scaling)
    header = [
        "problem",
        "algo",
        "seed",
        "status",
        "iters/bound",
        "ratio",
        "cost/bound",
        "ratio",
        "envelope",
    ]
    print(_format_table(rows, header))
    if scaling_rows:
        print()
        print(
            _format_table(
                scaling_rows,
                ["problem", "algo", "eps_g", "eps_H", "max_term", "K_iter", "K_hat"],
            )
        )
    return 0


def cmd_list_problems(_args: argparse.Namespace) -> int:
    rows = [
        [p.name, str(p.dim), ", ".join(sorted(p.branch_coverage))]
        for p in suite()
    ]
    print(_format_table(rows, ["problem", "dim", "designed branch coverage"]))
    return 0


def _seed_list(text: str) -> list[int]:
    """Parse ``--seed``: a nonempty comma-separated list of distinct nonnegative
    integers; a repeated seed would write its trace file twice."""
    seeds = [int(v) for v in text.split(",") if v != ""]
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(
            "expected a nonempty comma-separated list of distinct nonnegative integers, "
            f"got {text!r}"
        )
    return seeds


def _positive_int(text: str) -> int:
    """Parse ``--jobs``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sols`` argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="sols",
        description="Second-order line-search solvers with decrease-law and "
        "complexity-envelope reporting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a solver over a seed grid")
    run.add_argument("--problem", required=True, help="suite problem id")
    run.add_argument("--algo", choices=_ALGOS, default="exact")
    for name in _RUN_FLAGS:
        run.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=_CONFIG_TYPES[name], default=None
        )
    run.add_argument(
        "--seed",
        type=_seed_list,
        default=[0],
        help="comma-separated seed list",
    )
    run.add_argument("--strict-second-order", action="store_true")
    run.add_argument("--config", default=None, help="flat key=value config file")
    run.add_argument("--out", default=None, help=f"output dir (default ${DEFAULT_OUT_ENV})")
    run.add_argument("--jobs", type=_positive_int, default=1)
    run.set_defaults(func=cmd_run)

    env = sub.add_parser("envelope", help="summarize reports against their bounds")
    env.add_argument("--in", dest="in_dir", required=True)
    env.set_defaults(func=cmd_envelope)

    lp = sub.add_parser("list-problems", help="list suite problems")
    lp.set_defaults(func=cmd_list_problems)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
