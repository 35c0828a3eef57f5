"""Fixed reference kernels whose times track the speed the host gives us.

On a shared host the throughput of one vCPU drifts by up to 1.5x over tens
of seconds (other tenants on the same cores), and CPU time drifts with wall
time, so neither can be steadied by running longer. The reference kernels do
the kinds of work the solvers do: small numpy products in a Python loop (as
in Lanczos and CG), plain Python arithmetic (as in the drivers), and scalar
reads and writes of numpy arrays (as in the Rosenbrock Hessian). Their
inputs are fixed and never depend on the workload or its seed.

Timed along a measurement they give the host's slowness at each moment: the
geometric mean, over the kernels, of each kernel's time over its reference
time. A run's time divided by the slowness of the same stretch stays steady
while both drift; it reads as the run's time on a host where every kernel
takes its reference time.

Usage: measure inside ``with HostClock() as clock:``, then
``clock.factor(a, b)`` for a run that went from ``a`` to ``b``
(``time.perf_counter`` seconds).
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.5  # time between two samples
WINDOW_S = 1.0  # samples this close to a run's start or end describe it

_rng = np.random.default_rng(20170609)
_A = _rng.standard_normal((50, 50))
_A = _A + _A.T
_V0 = _rng.standard_normal(50)
_X = _rng.standard_normal(100)


def _products() -> None:
    v = _V0.copy()
    for _ in range(300):
        u = _A @ v
        u -= float(v @ u) * v
        v = u / np.linalg.norm(u)


def _python() -> None:
    s = 0
    for k in range(20000):
        s += k * k


def _scalar_fill() -> None:
    for _ in range(4):
        H = np.zeros((100, 100))
        for i in range(99):
            H[i, i] += 12.0 * _X[i] ** 2 - 4.0 * _X[i + 1] + 2.0
            H[i, i + 1] += -4.0 * _X[i]
            H[i + 1, i] += -4.0 * _X[i]
            H[i + 1, i + 1] += 2.0
        H @ _X


# Each kernel with its reference time, a fixed constant near the kernel's
# median time over a minute on a 2.1 GHz Xeon vCPU with one OpenBLAS thread.
KERNELS = ((_products, 2.7e-3), (_python, 1.5e-3), (_scalar_fill, 0.9e-3))


def _time(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def slowness() -> float:
    """The host's slowness now; each kernel counts its faster of two passes,
    which drops a pass hit by an interrupt."""
    logs = [math.log(min(_time(k), _time(k)) / ref) for k, ref in KERNELS]
    return math.exp(sum(logs) / len(logs))


class HostClock:
    """Reference-kernel samples taken every ``INTERVAL_S`` along a measurement.

    A SIGALRM timer runs the kernels in the main thread, between runs and
    inside them alike, so a run of several seconds is described by samples
    taken while it ran. ``spent_s`` totals the time the samples took, and
    ``spent_between`` the part of it inside a run, which the run's time leaves out.
    """

    def __init__(self):
        slowness()  # first passes pay for first-call costs
        self.samples: list[tuple[float, float, float]] = []  # (start, slowness, took_s)
        self.spent_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        now = time.perf_counter()
        slow = slowness()
        took = time.perf_counter() - now
        self.samples.append((now, slow, took))
        self.spent_s += took

    def spent_between(self, start: float, end: float) -> float:
        return sum(took for t, _, took in self.samples if start <= t <= end)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self, start: float, end: float) -> float:
        """One over the median slowness of the samples near the run.

        A sample at most ``INTERVAL_S`` old precedes each run, so the window
        is never empty.
        """
        near = [k for t, k, _ in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return 1.0 / statistics.median(near)
