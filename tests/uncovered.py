"""Run pytest in this process under a line tracer, and print each statement
of `src/riskplan/*.py` that no test executed.

    python tests/uncovered.py [PYTEST_ARGS ...]

With no arguments it runs the whole suite.  A statement is every line on
which `ast` starts one, apart from docstrings, the `def`, `class` and
import lines that run only as a module loads, and `global` and `nonlocal`
lines, which compile to no code.  Code that runs only in a subprocess a
test starts is not traced, so it shows up here.  Tracing about doubles
the suite's run time.  The exit status is pytest's.

pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "riskplan"


def statements(path: Path) -> dict[int, str]:
    """The lines of ``path`` that start a statement, each with its text."""
    text = path.read_text(encoding="utf-8")
    tree, lines = ast.parse(text), text.splitlines()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    skip = (*defs, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
    docstrings = {body[0].lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *defs))
                  and (body := node.body) and isinstance(body[0], ast.Expr)
                  and isinstance(body[0].value, ast.Constant)
                  and isinstance(body[0].value.value, str)}
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, skip)
            and node.lineno not in docstrings}


def main(argv: list[str]) -> int:
    files = sorted(SRC.glob("*.py"))
    executed: dict[Path, set[int]] = {path: set() for path in files}
    lines_of: dict[str, set[int] | None] = {}  # by code filename, as imported

    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = executed.get(Path(name).resolve())
        if lines_of[name] is None:
            return None
        lines_of[name].add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in files:
        for line, source in sorted(statements(path).items()):
            if line not in executed[path]:
                print(f"{path.relative_to(SRC.parent.parent)}:{line}: {source}")
                missed += 1
    print(f"{missed} statements never executed")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
