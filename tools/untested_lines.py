"""List the statements of the ``sols`` package that the test suite never runs.

Usage:
    python tools/untested_lines.py [PYTEST_ARGS ...]

Runs ``pytest.main`` in this process, with ``-p no:cacheprovider`` and
PYTEST_ARGS (default: the ``tests`` directory of this checkout), under a
``sys.settrace`` / ``threading.settrace`` hook that records the lines run
in the files of ``src/sols``. It then parses each of those files with
``ast`` and prints, as ``path:line: source``, every statement none of whose
lines ran, then one summary line. A compound statement (``if``, ``for``,
``def``, ...) counts by its header lines, its body statement by statement.
Statements that compile to no code are skipped: ``global`` and
``nonlocal`` declarations, docstrings, and the ``try:`` header.

Code that runs in another process is not seen: the tests that start a
fresh interpreter, and ``--jobs`` pool workers. The hook about doubles
the suite's wall time. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sols"


OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NO_CODE = (ast.Global, ast.Nonlocal, ast.Try)


def _docstring(body: list[ast.stmt]) -> ast.stmt | None:
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
        if isinstance(first.value.value, str):
            return first
    return None


def _statements(tree: ast.Module):
    """``(first line, last line)`` of every statement of ``tree`` that compiles
    to code, a compound statement spanning only its header."""
    docstrings = {id(_docstring(n.body)) for n in ast.walk(tree) if isinstance(n, OWNERS)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, NO_CODE) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield first, max(first, last)


def untested(executed: dict[str, set[int]]) -> list[tuple[Path, int, str]]:
    """``(file, line, source)`` of each package statement with no line in ``executed``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = executed.get(str(path), set())
        for first, last in _statements(ast.parse(source)):
            if ran.isdisjoint(range(first, last + 1)):
                out.append((path, first, lines[first - 1].strip()))
    return sorted(out, key=lambda item: (item[0], item[1]))


def main(argv: list[str]) -> int:
    if "sols" in sys.modules:
        raise RuntimeError("sols is already imported: its module-level lines would not be seen")
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed: dict[str, set[int]] = {}
    watched: dict = {}  # code object -> the line set of its file, or None

    def trace(frame, event, arg):
        code = frame.f_code
        lines = watched.get(code, False)
        if lines is False:
            name = os.path.abspath(code.co_filename)
            lines = executed.setdefault(name, set()) if name.startswith(prefix) else None
            watched[code] = lines
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    args = ["-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])]
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = untested(executed)
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} statements of src/sols never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
