"""Cold start: the exact path, envelope and list-problems never load scipy.linalg,
and no single-seed run loads the process pool."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import sols

SRC = str(Path(sols.__file__).resolve().parent.parent)

SCRIPT = """
import sys
import sols, sols.cli
out, algo = sys.argv[1], sys.argv[2]
codes = [
    sols.cli.main(["run", "--problem", "rosenbrock-10d", "--algo", algo, "--out", out]),
    sols.cli.main(["envelope", "--in", out]),
    sols.cli.main(["list-problems"]),
]
try:
    sols.cli.main(["--help"])
except SystemExit as exc:
    codes.append(exc.code)
print("codes", *codes)
print("concurrent.futures loaded:", "concurrent.futures" in sys.modules)
print("scipy.linalg loaded:", "scipy.linalg" in sys.modules)
"""


def run_script(tmp_path: Path, algo: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), algo],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_exact_path_never_loads_scipy_linalg(tmp_path):
    lines = run_script(tmp_path, "exact")
    assert "codes 0 0 0 0" in lines
    # scipy itself loads the pool module, so this holds only off the Lanczos path.
    assert "concurrent.futures loaded: False" in lines
    assert lines[-1] == "scipy.linalg loaded: False"


def test_inexact_path_still_runs(tmp_path):
    lines = run_script(tmp_path, "inexact")
    assert "codes 0 0 0 0" in lines
    # The Lanczos Ritz solve imports it on first use.
    assert lines[-1] == "scipy.linalg loaded: True"
