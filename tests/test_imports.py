"""Cold start: the exact path, envelope and list-problems never load scipy,
and no single-seed run loads the process pool. The inexact path loads one
scipy module, the compiled LAPACK extension ``scipy.linalg._flapack``, and
not the ``scipy.linalg`` package, whose init would also load the pool module."""

from __future__ import annotations

from conftest import run_python

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
print("scipy modules:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_exact_path_never_loads_scipy_linalg(tmp_path):
    lines = run_python(SCRIPT, str(tmp_path), "exact")
    assert "codes 0 0 0 0" in lines
    assert "concurrent.futures loaded: False" in lines
    assert lines[-1] == "scipy modules:"


def test_inexact_path_loads_only_lapack(tmp_path):
    lines = run_python(SCRIPT, str(tmp_path), "inexact")
    assert "codes 0 0 0 0" in lines
    # The Lanczos Ritz solve loads the extension on first use, and nothing
    # of scipy around it.
    assert "concurrent.futures loaded: False" in lines
    assert lines[-1] == "scipy modules: scipy.linalg._flapack"
