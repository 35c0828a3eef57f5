"""Time one cold set-up of a workload in a fresh process.

Usage: python3 bench/probe.py <workload>

Prints one JSON line: ``import_s`` is the time to import ``sols`` (with
numpy and scipy), ``build_s`` the time to build the workload's problem or
suite, constant verification included. Interpreter start-up is not counted.
``host_factor`` turns these into times at the reference host speed (see
hostclock.py); the kernels are timed right after the set-up.
"""

import json
import statistics
import sys
import time

import checkout


def main(name: str) -> None:
    checkout.pin_threads()
    start = time.perf_counter()
    checkout.import_sols()
    imported = time.perf_counter()
    import hostclock
    import workloads  # sols and numpy are loaded by now, so these cost ~nothing

    workload = workloads.make(name)
    built_from = time.perf_counter()
    workload.build()
    done = time.perf_counter()
    slowness = statistics.median(hostclock.slowness() for _ in range(5))
    print(json.dumps({
        "import_s": imported - start,
        "build_s": done - built_from,
        "host_factor": 1.0 / slowness,
    }))


if __name__ == "__main__":
    main(sys.argv[1])
