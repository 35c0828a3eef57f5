"""The benchmark's workloads: what one closed-loop run does and how it is checked.

Each workload is built once (``setup``), then runs ``run(i)`` for
i = 0, 1, 2, ... back to back; run i uses seed ``base + i``. ``run`` is the
timed part. ``check`` runs outside the timed region and turns what ``run``
returned into an ``Outcome``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sols.cli
import sols.driver
from checkout import ROOT
from sols.problems import get_problem, rosenbrock, suite
from sols.steps import SolverConfig

# The acceptance batch's configuration for the 1000-seed run on quartic-saddle-50d.
MC_CFG = SolverConfig(eps_g=1e-4, eps_H=1e-2, theta=0.5, eta=1.0, zeta=0.5, delta=1e-6)

INEXACT_LAYERS = (
    "operators.value",
    "operators.gradient",
    "operators.hessian_vector",
    "eigen.lanczos_min_eig",
    "cgsolve.cg_capped",
    "linesearch.backtrack",
    "steps.select_direction",
    "driver.run",
)
CLI_LAYERS = (
    "operators.value",
    "operators.gradient",
    "operators.hessian_vector",
    "operators.dense_hessian",
    "eigen.min_eigenpair_exact",
    "cgsolve.solve_exact",
    "linesearch.backtrack",
    "steps.select_direction",
    "driver.run",
    "cli.main",
)


@dataclass
class Outcome:
    """One checked run. Runs with equal ``key`` must report equal ``counts``.

    A run with a ``failure`` counts in ``fail_frac``. It counts in the
    result's ``failed`` too unless it is a ``known_miss``: the workload's
    documented defect, ending exactly as documented, with outputs that pass
    every check that applies to them.
    """

    key: tuple
    counts: tuple[int, int, int]  # n_f, n_grad, n_hv as the program reports them
    status: str
    failure: str | None  # None when every check passed
    bytes_written: int = 0
    known_miss: bool = False


def certificate_failure(dense_hessian, point, g_norm_min, eps_g, eps_H) -> str | None:
    """Check a certificate against the dense eigenvalue oracle."""
    lam = float(np.linalg.eigvalsh(dense_hessian(np.asarray(point, dtype=float)))[0])
    if lam < -eps_H:
        return f"oracle lambda_min {lam:.3e} < -eps_H"
    if g_norm_min > eps_g:
        return f"certificate g_norm_min {g_norm_min:.3e} > eps_g"
    return None


def rosenbrock_100d():
    n = 100
    return rosenbrock(
        "rosenbrock-100d",
        n=n,
        x0=[-1.2 if i % 2 == 0 else 1.0 for i in range(n)],
        branch_coverage=[],
        coverage_config=SolverConfig(),
    )


class InexactWorkload:
    """``run_inexact`` on one problem; run i uses ``rng_seed = base + i``."""

    layers = INEXACT_LAYERS

    def __init__(self, build, cfg: SolverConfig):
        self.build = build  # the set-up ``setup_s`` times: the problem with its verified constants
        self.cfg = cfg
        self.base = 0

    def setup(self, base: int) -> None:
        self.base = base
        self.problem = self.build()

    def run(self, i: int):
        obj = self.problem.make_objective()
        cfg = self.cfg.with_updates(rng_seed=self.base + i)
        report, _records = sols.driver.run_inexact(obj, self.problem.start_point(), cfg)
        return obj, cfg, report

    def check(self, i: int, result) -> Outcome:
        obj, cfg, report = result
        c = report.counters
        if not report.converged:
            failure = f"status {report.status}"
        elif report.certificate is None:
            failure = "converged without a certificate"
        elif not report.all_envelope_checks_pass():
            failure = f"envelope check failed: {report.envelope_checks()}"
        else:
            cert = report.certificate
            failure = certificate_failure(
                obj.dense_hessian, cert.point, cert.g_norm_min, cfg.eps_g, cfg.eps_H
            )
        return Outcome((cfg.rng_seed,), (c.n_f, c.n_grad, c.n_hv), report.status, failure)

    def close(self) -> None:
        pass


class CliWorkload:
    """``sols run`` in-process on rosenbrock-10d, alternating exact and exact-local.

    Invocation i runs one seed, ``base + i``, and writes its trace CSV and
    report JSON to a scratch directory inside the checkout, emptied after
    each check and removed by ``close``.
    """

    layers = CLI_LAYERS
    problem_name = "rosenbrock-10d"
    algos = ("exact", "exact-local")
    eps_g, eps_H = 1e-5, 1e-2
    # The known defect: exact-local's local phase asks for a decrease below
    # the roundoff of f, so its line search stalls and the CLI exits with 3.
    known_miss = ("exact-local", "ls_stall", 3)

    def __init__(self):
        self.base = 0

    @staticmethod
    def build():
        """The CLI looks its problem up in the suite, built once per process."""
        return suite()

    def setup(self, base: int) -> None:
        self.base = base
        self.build()
        self.dense_hessian = get_problem(self.problem_name).make_objective().dense_hessian
        self.out = Path(tempfile.mkdtemp(prefix=".bench-cli-", dir=ROOT))

    def run(self, i: int):
        algo = self.algos[i % 2]
        argv = [
            "run",
            "--problem", self.problem_name,
            "--algo", algo,
            "--eps-g", repr(self.eps_g),
            "--eps-H", repr(self.eps_H),
            f"--seed={self.base + i}",
            "--out", str(self.out),
        ]
        console = io.StringIO()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = sols.cli.main(argv)
        return algo, code, console.getvalue()

    def check(self, i: int, result) -> Outcome:
        algo, code, console = result
        files = list(self.out.iterdir())
        nbytes = sum(f.stat().st_size for f in files) + len(console.encode())
        report = json.loads((self.out / f"{self.problem_name}_{algo}_report.json").read_text())
        for f in files:
            f.unlink()
        (run,) = report["runs"]
        c = run["counters"]
        cert = run["certificate"]
        checks = run["envelope_checks"]
        if code != 0:
            miss = f"exit {code}, status {run['status']}"
        elif run["status"] != "converged":
            miss = f"status {run['status']}"
        elif cert is None:
            miss = "converged without a certificate"
        else:
            miss = None
        # Envelope flags and any certificate are checked on every run, the known miss included.
        if not all(v for k, v in checks.items() if k.endswith("_ok")):
            wrong = f"envelope check failed: {checks}"
        elif cert is not None:
            wrong = certificate_failure(
                self.dense_hessian, cert["point"], cert["g_norm_min"], self.eps_g, self.eps_H
            )
        else:
            wrong = None
        known = wrong is None and miss is not None and (algo, run["status"], code) == self.known_miss
        return Outcome(
            (run["seed"], algo), (c["n_f"], c["n_grad"], c["n_hv"]), run["status"],
            wrong or miss, nbytes, known,
        )

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


NAMES = ("q50-inexact", "rosen100-inexact", "rosen10-cli")


def make(name: str):
    if name == "q50-inexact":
        return InexactWorkload(lambda: get_problem("quartic-saddle-50d"), MC_CFG)
    if name == "rosen100-inexact":
        return InexactWorkload(rosenbrock_100d, SolverConfig())
    if name == "rosen10-cli":
        return CliWorkload()
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
