"""Time the cold set-up of a workload on two ``sols`` source trees, in alternating pairs.

Usage:
    python tools/setup_pairs.py WORKLOAD --base BASE_SRC [--src SRC] [--pairs N]

Each probe is a fresh process with one BLAS thread. It times ``import
sols`` from one tree (numpy and the package's own imports included), then
the build of WORKLOAD (one of ``bench/workloads.py``'s names) from this
checkout's workload definitions: the problem or the suite, with its
constants verified. That is the set-up that the benchmark's ``setup_s``
times, minus interpreter start-up. Pair i probes ``BASE_SRC`` (say, the
``src`` of a checkout of the parent commit) and ``SRC`` (default: this
checkout's ``src``) back to back, the side that goes first alternating from
pair to pair.

Prints, per side, the median and quartiles of import ms, build ms and their
sum. Then, for each, the ratio of the new median to the base median, the
median of the per-pair new/base ratios with the distribution-free 95%
interval of ``tools/pair_timing.py``, and the share of pairs the new tree
was faster on. Times are as measured, not scaled to a reference host speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from pair_timing import interval_note, median_interval, quartiles

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "new")
FIELDS = ("import_ms", "build_ms", "total_ms")

# The probe, run as ``python -c PROBE SRC BENCH WORKLOAD``.
PROBE = """
import json, os, sys, time
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
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


def probe(src: Path, workload: str) -> dict:
    """One cold set-up of ``workload`` on the package in ``src``, in ms."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(src), str(ROOT / "bench"), workload],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"probe of {src} failed:\n{proc.stderr.strip()}")
    times = json.loads(proc.stdout.splitlines()[-1])
    times["total_ms"] = times["import_ms"] + times["build_ms"]
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a workload name of bench/workloads.py")
    parser.add_argument("--base", type=Path, required=True,
                        help="directory holding the sols package to compare against")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the new sols package "
                             "(default: this checkout's src)")
    parser.add_argument("--pairs", type=int, default=15)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = dict(zip(SIDES, (args.base.resolve(), args.src.resolve())))

    samples = {s: [] for s in SIDES}
    for i in range(args.pairs):
        for s in SIDES if i % 2 == 0 else SIDES[::-1]:
            samples[s].append(probe(trees[s], args.workload))

    medians = {}
    for s in SIDES:
        print(f"{s:4} {trees[s]}:")
        for field in FIELDS:
            q1, q2, q3 = quartiles([p[field] for p in samples[s]])
            medians[s, field] = q2
            print(f"  {field:9} median {q2:9.3f} (q1 {q1:9.3f}, q3 {q3:9.3f})")
    print(f"over {args.pairs} pairs of {args.workload}; new/base:")
    for field in FIELDS:
        ratio = medians["new", field] / medians["base", field]
        ratios = [n[field] / b[field] for n, b in zip(samples["new"], samples["base"])]
        per_pair = statistics.median(ratios)
        wins = sum(r < 1.0 for r in ratios)
        print(f"  {field:9} median ratio {ratio:.4f} ({ratio - 1.0:+.2%}); median per-pair "
              f"ratio {per_pair:.4f} ({per_pair - 1.0:+.2%}), {interval_note(median_interval(ratios))}; "
              f"new faster in {wins}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
