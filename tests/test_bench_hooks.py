"""The benchmark's tracer (``perfbench/tracer.py``) patches entry points by
name, where their callers look them up. A refactor that moves or renames
one breaks traced benchmark runs, so these tests load the tracer as it is
and check every hook against the package."""

import importlib.util
from pathlib import Path

import srv6sim
import srv6sim.sim  # noqa: F401  (imports every submodule the tracer reaches)
from srv6sim.scenario import load_scenario
from srv6sim.underlay import waypoints

from conftest import SCENARIOS

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracer = _tracer_module()
    hooks = [(owner, attr) for owner, attr, _name in tracer.SPANNED]
    hooks.append(("bgp.SessionBus", "send"))
    missing = [
        f"{owner}.{attr}"
        for owner, attr in hooks
        if attr not in tracer._resolve(srv6sim, owner).__dict__
    ]
    assert not missing


def test_traced_ping_counts_vectors_and_hops():
    tracer_module = _tracer_module()
    sim = srv6sim.Simulation(load_scenario(SCENARIOS / "basic.yaml")).start()
    tracer = tracer_module.Tracer(srv6sim)
    with tracer.installed():
        report = sim.ping("pod-master", "pod-worker2", count=3, family="v6")
    assert report.delivered == 3
    assert tracer.counts["graph.vectors"] == 1
    assert tracer.counts["graph.packets"] == 3
    assert tracer.counts["underlay.packets"] == 1  # one walk per flow
    calls = {name: n for name, (n, _s) in tracer.layer_totals().items()}
    assert calls["graph.run_vector"] == 1 and calls["underlay.forward"] == 1
    # The flow's one walk looks up each localSID it hits (its End hops and the
    # End.DT SID); End.DT then decodes each packet's inner bytes.
    assert calls["dataplane.process_local"] == len(waypoints(report.traces[0])) + 1
    assert calls["net_types.decode_inner"] == 3
    assert srv6sim.sim.run_vector is srv6sim.graph.run_vector  # unpatched again
