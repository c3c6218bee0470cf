"""Statement sweep: which statements of ``src/srv6sim`` the test suite never
runs, and which it runs only by calling an inner function directly.

Opt-in, outside tier-1 (pytest collects only ``test_*.py``). Run from the
repository root, with any pytest arguments (default: the configured
testpaths)::

    PYTHONPATH=src python tests/line_sweep.py [PYTEST_ARGS...]

A ``sys.settrace`` recorder notes every line that runs in the package's
files, in this process only: tests that start a subprocess do not count.
A statement counts as run when its first line ran. ``def``, ``class``,
import lines, docstrings and ``try:`` lines (which emit no line event) are
left out. Hypothesis runs derandomized and without its example database,
so two sweeps of one tree list the same statements.

Each line is also tagged with the package call it ran under: the outermost
package frame of its stack, the one a test (or an import) called. Calls
to ``ENTRY_POINTS`` and module bodies are where input enters; a statement
that ran only under direct calls to other package functions is reached
only by tests that hand an inner function what no entry point would.

Prints ``file:line: statement`` per statement never run, then per
statement run only under direct calls, each list with its count, and
exits 1 if the suite failed. Expect it to take about three times as long
as the suite.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srv6sim"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Try)
# (module, qualified name); a name ending in "." stands for every method of that class
ENTRY_POINTS = (
    ("cli", "main"),
    ("sim", "Simulation."),
    ("scenario", "load_scenario"),
    ("bgp", "parse_policy_file"),
    ("sim", "load_configmap_docs"),
    ("net_types", "encode_srh"),
    ("net_types", "decode_srh"),
    ("net_types", "InnerPacket.encode"),
    ("net_types", "decode_inner"),
    ("bgp", "encode_safi73"),
    ("bgp", "decode_safi73"),
)


def statements(path: Path) -> dict[int, str]:
    """First line -> source line of each counted statement of ``path``."""
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *_SKIPPED[:3])) and ast.get_docstring(node)}
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED)
            and id(node) not in docstrings}


def is_entry(path: Path, qualname: str) -> bool:
    return qualname == "<module>" or any(
        path.stem == module and (qualname == name or name.endswith(".") and qualname.startswith(name))
        for module, name in ENTRY_POINTS)


class Derandomized:
    """Loads a Hypothesis profile without randomness or example database once
    pytest is configured: before any test module (and its ``@settings``) is
    imported, after pytest has set up its assertion rewriting."""

    def pytest_configure(self, config):
        from hypothesis import settings
        settings.register_profile("line-sweep", derandomize=True, database=None)
        settings.load_profile("line-sweep")


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}  # under an entry point
    direct: dict[str, set[int]] = {name: set() for name in files}  # under another direct call

    def tracer(lines):
        def local(frame, event, _arg):
            if event == "line":
                lines[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return local

    entry_local, direct_local = tracer(ran), tracer(direct)

    def on_call(frame, _event, _arg):
        code = frame.f_code
        if code.co_filename not in ran:
            return None
        caller = frame.f_back  # the nearest traced frame decides, past test callbacks
        while caller is not None and caller.f_trace not in (entry_local, direct_local):
            caller = caller.f_back
        if caller is not None:
            return caller.f_trace
        return entry_local if is_entry(files[code.co_filename], code.co_qualname) else direct_local

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[Derandomized()])
    finally:
        sys.settrace(None)
    never, only_direct = [], []
    for name, path in files.items():
        where = path.relative_to(PACKAGE.parent.parent)
        for line, source in sorted(statements(path).items()):
            if line not in ran[name]:
                (never if line not in direct[name] else only_direct).append(f"{where}:{line}: {source}")
    print("\n".join(never))
    print(f"{len(never)} statements of src/srv6sim never ran")
    print("\n".join(only_direct))
    print(f"{len(only_direct)} statements of src/srv6sim ran only in direct calls to "
          "functions other than the entry points")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
