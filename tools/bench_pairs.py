"""Run the benchmark on two checkouts in alternating pairs and summarise them.

Usage:
    python tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W
        --pairs N --seconds S --out FILE [--trace {0,1}] [--seed BASE] [--what TEXT]

Each pair runs ``bench/run.py --workload W --seed SEED --seconds S --trace T``
from the root of each checkout, so each side runs its own benchmark code on
its own ``src/``. The two runs of a pair are back to back on one seed, and
the side that runs first alternates from pair to pair, starting with the
parent. Pair i uses seed BASE + 1000 i.

FILE has the layout of ``BENCH_6.json``. An existing FILE is extended, so
one file can hold several workloads and traced runs:
``pairs`` and ``trace`` list every run's last JSON line, and ``summary``
holds, per workload and metric over its ``--trace 0`` pairs, each side's
q1/median/q3, ``change_wins`` (pairs the change won, by the metric's
direction in the change's BENCHMARK.json; ties count for neither side), and
``median_change_rel`` (change median over parent median, minus 1).

After the pairs it prints one gate line per end-to-end metric of the
workload: both medians, the change's wins, the relative change, the
parent's IQR (q3 - q1), ``WORSE`` where the change's median is worse than
the parent's by more than the metric's ``bound`` in BENCHMARK.json,
relative to the parent's median, and ``claim-ok`` where the pairs support
claiming a gain on that metric: at least ten pairs, the change won at least
nine tenths of them (ties count for neither side), and its median is better
than the parent's by more than the parent's IQR.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from pair_timing import quartiles


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last JSON line of one ``bench/run.py`` invocation in ``checkout``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a self-check failed, reported as correct=false
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric comparison of the ``--trace 0`` pairs of one workload."""
    out: dict = {"pairs": len(pairs)}
    for name, first in pairs[0]["parent"]["metrics"].items():
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {
            "unit": first["unit"],
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_wins": wins,
            "ties": ties,
            "median_change_rel": c_med / p_med - 1.0 if p_med else None,
        }
    out["all_correct"] = all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    return out


def gate_lines(workload: str, summary: dict, end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric of ``summary`` against its bound."""
    lines = []
    pairs = summary["pairs"]
    for metric in end_to_end:
        name = metric["name"]
        if name not in summary:
            continue
        row = summary[name]
        p_q1, p_med, p_q3 = row["parent_q1_median_q3"]
        c_med = row["change_q1_median_q3"][1]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = sign * (c_med - p_med) > metric["bound"] * abs(p_med)
        claim_ok = (pairs >= 10 and 10 * row["change_wins"] >= 9 * pairs
                    and sign * (p_med - c_med) > p_q3 - p_q1)
        rel = "n/a" if row["median_change_rel"] is None else f"{row['median_change_rel']:+.1%}"
        lines.append(
            f"gate {workload} {name}: parent {p_med:.6g} change {c_med:.6g} "
            f"wins {row['change_wins']}/{pairs} rel {rel} parent-iqr {p_q3 - p_q1:.3g} "
            f"bound {metric['bound']:g}" + (" WORSE" if worse else "")
            + (" claim-ok" if claim_ok else "")
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--what", help="one line on what the change is, stored as 'what'")
    args = parser.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {
        "command": "python3 bench/run.py --workload <w> --seed <seed> --seconds <s> "
                   "--trace <0|1>, run from the root of a checkout of each side",
        "pairing": "each pair runs both sides back to back on one seed; the side that "
                   "runs first alternates from pair to pair",
        "summary": {}, "pairs": [], "trace": [],
    }
    if args.what:
        record["what"] = args.what
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    runs = record["trace" if args.trace else "pairs"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for i in range(args.pairs):
        seed = args.seed + 1000 * i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"workload": args.workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = bench(sides[side], args.workload, seed, args.seconds, args.trace)
        runs.append(pair)
        shown = "trace.overhead_ms" if args.trace else "run_ms_p50"
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{side} {shown} {pair[side]['metrics'].get(shown, {}).get('value')}"
            for side in ("parent", "change")), flush=True)

    untraced = [p for p in record["pairs"] if p["workload"] == args.workload]
    if untraced:
        summary = record["summary"][args.workload] = summarise(untraced, better)
        print("\n".join(gate_lines(args.workload, summary, spec["end_to_end"])))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
