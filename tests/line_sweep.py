"""Statement sweep: which statements of ``src/srv6sim`` the test suite never runs.

Opt-in, outside tier-1 (pytest collects only ``test_*.py``). Run from the
repository root, with any pytest arguments (default: the configured
testpaths)::

    PYTHONPATH=src python tests/line_sweep.py [PYTEST_ARGS...]

A ``sys.settrace`` recorder notes every line that runs in the package's
files, in this process only: tests that start a subprocess do not count.
A statement counts as run when its first line ran. ``def``, ``class``,
import lines, docstrings and ``try:`` lines (which emit no line event) are
left out. Prints ``file:line: statement`` per statement never run, then the
count, and exits 1 if the suite failed. Expect it to take about three times
as long as the suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srv6sim"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Try)


def statements(path: Path) -> dict[int, str]:
    """First line -> source line of each counted statement of ``path``."""
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *_SKIPPED[:3])) and ast.get_docstring(node)}
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED)
            and id(node) not in docstrings}


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, _event, _arg):
        return local if frame.f_code.co_filename in ran else None

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    missed = 0
    for name, path in files.items():
        for line, source in sorted(statements(path).items()):
            if line not in ran[name]:
                missed += 1
                print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {source}")
    print(f"{missed} statements of src/srv6sim never ran")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
