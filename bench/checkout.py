"""Process set-up shared by the benchmark's entry point and its set-up probe.

Call ``pin_threads`` before anything imports numpy: OpenBLAS reads its
thread count once, when it is loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread for this process and every process it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_sols():
    """Import ``sols`` from this checkout's ``src/`` or exit with code 2.

    An installed copy elsewhere must not stand in for the code under test,
    so a ``sols`` found outside ``src/`` is refused as well.
    """
    sys.path.insert(0, str(SRC))
    try:
        import sols
    except ImportError as exc:
        _fail(f"cannot import sols from {SRC}: {exc}")
    if not Path(sols.__file__).resolve().is_relative_to(SRC):
        _fail(f"sols was imported from {sols.__file__}, not from {SRC}")
    return sols


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)
