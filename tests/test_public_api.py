"""No public API that only tests call.

A public module-level function of the package, and a public method or
property of one of its module-level classes, must be used somewhere in the
package (other than by its own definition and ``__init__.py``) or by the
benchmark in ``perfbench/``; tests alone do not keep it alive. A use is a
name, an attribute, an imported name, or a string that equals the name (the
benchmark's tracer patches functions named by strings). ``ORACLES`` are the
exceptions: functions kept as a reference that tests check the package
against.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srv6sim"
# The SRH wire codec: the byte-exact reference for ``Srh``.
ORACLES = ("encode_srh", "decode_srh")


def _public_defs(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """``(qualified name, definition)`` of each public function, method and property."""
    defs = []
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        owner, members = (f"{node.name}.", node.body) if is_class else ("", [node])
        defs += [(owner + d.name, d) for d in members
                 if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not d.name.startswith("_")]
    return defs


def _uses(tree: ast.AST) -> Counter:
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.asname or node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_function_has_a_caller_outside_tests():
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = Counter()
    for path, tree in modules.items():
        if path.name != "__init__.py":
            used += _uses(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used += _uses(_parse(path))
    unused = [f"{path.stem}.{name}" for path, tree in modules.items()
              for name, d in _public_defs(tree)
              if used[d.name] <= _uses(d)[d.name] and d.name not in ORACLES]
    assert unused == [], f"public functions, methods and properties that only tests call: {unused}"
