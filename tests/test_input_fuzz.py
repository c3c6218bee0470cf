"""Fuzz oracle for the input readers: mutate the shipped scenario, ConfigMap
and policy files and run each mutant through the CLI.

A mutation deletes a key or entry, retypes a value (an integer, a boolean,
null, a list, a mapping, or an address or prefix of the other family),
duplicates a list entry, or points a string at a name that does not exist.
Every run must return 0, 1 or 2 from ``main`` without raising or printing
a traceback, and every exit 2 must name the mutated file.
"""

import contextlib
import copy
import io
import tempfile
from ipaddress import ip_address, ip_network
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from srv6sim.cli import main

from conftest import SCENARIOS

PING = ["ping", "--scenario", "{}", "pod-master", "pod-worker1"]
# (shipped file, command line with {} for the mutant's path)
INPUTS = [
    ("basic.yaml", PING),
    ("full_cm.yaml", PING),
    ("full_bgp.yaml", PING),
    ("configmap_worker2_modified.yaml",
     ["apply-configmap", "--scenario", str(SCENARIOS / "full_cm.yaml"), "--file", "{}"]),
    *[(f"policies/{p.name}", ["inject", "--scenario", str(SCENARIOS / "full_bgp.yaml"), "--policy", "{}"])
      for p in sorted((SCENARIOS / "policies").glob("*.yaml"))],
]
RETYPED = [7, -1, True, None, [1], {"k": 1}]


def _documents(name: str) -> list:
    """The file's YAML; a ConfigMap manifest's ``data.srv6`` text as a second document."""
    outer = yaml.safe_load((SCENARIOS / name).read_text())
    if outer.get("kind") == "ConfigMap":
        return [outer, yaml.safe_load(outer["data"]["srv6"])]
    return [outer]


def _render(docs: list, original: list) -> str:
    outer = docs[0]
    if (len(docs) > 1 and isinstance(outer.get("data"), dict)
            and outer["data"].get("srv6") == original[0]["data"]["srv6"]):
        outer["data"]["srv6"] = yaml.safe_dump(docs[1], sort_keys=False)
    return yaml.safe_dump(outer, sort_keys=False)


def _paths(node, path=()):
    """The path of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(root, path):
    for key in path:
        root = root[key]
    return root


def _other_family(value):
    """An address or prefix of the other family, or None if ``value`` is neither."""
    try:
        parsed = ip_network(value, strict=False) if "/" in value else ip_address(value)
    except ValueError:
        return None
    if "/" in value:
        return "10.9.0.0/16" if parsed.version == 6 else "fd99::/64"
    return "10.9.9.9" if parsed.version == 6 else "fd99::9"


@st.composite
def mutants(draw):
    name, argv = draw(st.sampled_from(INPUTS))
    original = _documents(name)
    docs = copy.deepcopy(original)
    paths = [p for p in _paths(docs) if len(p) > 1]
    op = draw(st.sampled_from(["delete", "retype", "duplicate", "dangle"]))
    if op == "duplicate":
        paths = [p for p in paths if isinstance(_at(docs, p[:-1]), list)]
    elif op == "dangle":
        paths = [p for p in paths if isinstance(_at(docs, p), str)]
    path = draw(st.sampled_from(paths))
    parent, key = _at(docs, path[:-1]), path[-1]
    if op == "delete":
        del parent[key]
    elif op == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
    elif op == "dangle":
        parent[key] = "ghost"
    else:
        swapped = _other_family(parent[key]) if isinstance(parent[key], str) else None
        parent[key] = draw(st.sampled_from(RETYPED + ([swapped] if swapped else [])))
    return f"{name} {op} {path}", _render(docs, original), argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutants())
def test_mutated_inputs_exit_cleanly(mutant):
    label, text, argv = mutant
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.yaml"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{}", str(path)) for arg in argv])
    stderr = err.getvalue()
    assert code in (0, 1, 2), label
    assert "Traceback" not in out.getvalue() + stderr, label
    if code == 2:
        assert f"error: {path}" in stderr, (label, stderr)
