"""Tiny-size smoke test of the benchmark; asserts no timings.

    python -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
pkg = run.import_package(ROOT)

TINY = dict(nodes=4, grid=2, updates=3, pings=3, bulk_packets=8, min_rounds=workloads.SEED_CYCLE + 1)


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], bulk_pings=1, **TINY)


@pytest.mark.parametrize("mode", ["bgp", "configmap"])
@pytest.mark.parametrize("fanout", ["per-node", "single-map"])
def test_generated_scenarios_converge_and_deliver(mode, fanout):
    cluster = gen.build_cluster(5, 2, mode, fanout, seed=3)
    scenario = pkg.scenario.load_scenario(gen.generate(5, 2, mode, fanout, seed=3))
    assert scenario.mode == mode and scenario.configmap_fanout == fanout
    assert len(scenario.nodes) == 5 and len(scenario.routers) == 4
    sim = pkg.Simulation(scenario).start()
    for family in gen.FAMILIES:
        report = sim.ping(cluster.nodes[0].pod, cluster.nodes[3].pod, count=2, family=family)
        assert report.delivered == 2, report.drop_reasons


def test_workloads_are_the_declared_ones():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_and_checks_pass(name):
    runner = workloads.Runner(pkg, tiny(name), seed=5)
    check, setups, rounds, _, _ = run.measure(runner, 0, trace=False)
    assert not check.errors
    assert sum(r.failed for r in rounds) == 0
    # the last round repeats the first one's seed, so the repeat guard ran
    assert rounds[-1].seed == rounds[0].seed
    e2e = run.e2e_metrics(setups, rounds)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert e2e[metric["name"]][1] == metric["unit"]

    check, _, rounds, traced, tracers = run.measure(runner, 0, trace=True)
    assert not check.errors and len(traced) == len(rounds) == 1
    layers = run.layer_metrics(rounds, traced, tracers)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert layers[metric["name"]][1] == metric["unit"]


def test_exact_counts_repeat_for_the_same_seed():
    def counts():
        runner = workloads.Runner(pkg, tiny("pod-traffic"), seed=9)
        _, _, rounds, traced, tracers = run.measure(runner, 0, trace=True)
        layers = run.layer_metrics(rounds, traced, tracers)
        exact = {k: v for k, v in layers.items() if not k.endswith("self_s") and not k.startswith("trace.")}
        return exact, [(r.report_digest, r.state_digest) for r in traced]

    assert counts() == counts()


def test_without_the_package_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pod-traffic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
