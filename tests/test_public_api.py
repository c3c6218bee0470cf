"""No public API that only tests call.

A public module-level function of the package must be used somewhere in the
package (other than by its own definition and ``__init__.py``) or by the
benchmark in ``perfbench/``; tests alone do not keep it alive. A use is a
name, an attribute, an imported name, or a string that equals the name (the
benchmark's tracer patches functions named by strings). ``ORACLES`` are the
exceptions: functions kept as a reference that tests check the package
against.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srv6sim"
# The SRH wire codec: the byte-exact reference for ``Srh``.
ORACLES = ("encode_srh", "decode_srh")


def _public_defs(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def _uses(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_function_has_a_caller_outside_tests():
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for path, tree in modules.items():
        if path.name != "__init__.py":
            used |= _uses(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _uses(_parse(path))
    unused = [f"{path.stem}.{name}" for path, tree in modules.items()
              for name in _public_defs(tree) if name not in used and name not in ORACLES]
    assert unused == [], f"public functions that only tests call: {unused}"
