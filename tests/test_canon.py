"""One object per address value: ``net_types.canon`` interns addresses where
they are born, so equal addresses on the hot paths are one object and
compare without calling ``IPv6Address.__eq__``.

The count tests pin the comparisons that identity saves. The other tests
check that the intern table keeps no address alive, and that identity
changes nothing the simulator does: a document of fresh, equal objects
gives the same state and the same pings as one of canonical objects.
"""

import gc
import importlib.util
import sys
import weakref
from ipaddress import IPv4Address, IPv6Address
from pathlib import Path

import pytest

from srv6sim import net_types
from srv6sim.bgp import parse_policy_file
from srv6sim.k8s import ConfigMapDoc, PolicyDocEntry, decodes_to_itself
from srv6sim.net_types import canon, parse_addr, parse_v6
from srv6sim.scenario import load_scenario
from srv6sim.sim import Simulation, load_configmap_docs

from conftest import SCENARIOS

PODS = ("pod-master", "pod-worker1", "pod-worker2")
GEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def fresh(addr: IPv6Address) -> IPv6Address:
    """An address equal to ``addr`` that is not its canonical object."""
    copy = IPv6Address(str(addr))
    assert copy == addr and copy is not addr
    return copy


def fresh_doc(doc: ConfigMapDoc, segment_list=tuple) -> ConfigMapDoc:
    """``doc`` rebuilt from fresh address objects, the way callers build
    documents, with each segment list made by ``segment_list``."""
    return ConfigMapDoc(
        node=doc.node,
        localsids={kind: fresh(sid) for kind, sid in doc.localsids.items()},
        policies=tuple(
            PolicyDocEntry(fresh(p.egress_node), fresh(p.bsid),
                           segment_list(map(fresh, p.segment_list)), p.traffic)
            for p in doc.policies
        ),
    )


def addresses(doc: ConfigMapDoc) -> list:
    return [*doc.localsids.values(),
            *(a for p in doc.policies for a in (p.egress_node, p.bsid, *p.segment_list))]


def ping_all(sim: Simulation) -> dict:
    return {
        (src, dst, family): (r.delivered, r.drop_reasons)
        for src in PODS for dst in PODS if src != dst for family in ("v4", "v6")
        for r in [sim.ping(src, dst, count=3, family=family)]
    }


# -- the table --------------------------------------------------------------


def test_equal_addresses_are_one_object():
    text = "fcff:3::1"
    assert parse_v6(text) is parse_addr(f" {text} ") is canon(IPv6Address(text))
    assert parse_addr("172.16.231.1") is canon(IPv4Address("172.16.231.1"))
    assert net_types.decode_inner(
        net_types.InnerPacket(src=parse_v6("fd90::1"), dst=parse_v6(text)).encode()
    ).dst is parse_v6(text)


def test_scoped_and_foreign_addresses_stay_as_they_are():
    scoped = IPv6Address("fe80::1%eth0")
    plain = canon(IPv6Address("fe80::1"))
    assert canon(scoped) is scoped and canon(IPv6Address("fe80::1")) is plain

    class Tagged(IPv6Address):
        pass

    tagged = Tagged("fe80::1")
    assert canon(tagged) is tagged


@pytest.mark.parametrize("cls,value", [(IPv6Address, 0x2001_0DB8_7A11_0000_0000_0000_0000_0001),
                                       (IPv4Address, 0xC633_6401)])
def test_table_holds_no_strong_reference(cls, value):
    """A value no memo holds (it is never parsed from text or bytes) leaves
    the table when its last holder drops it."""
    addr = canon(cls(value))
    assert canon(cls(value)) is addr
    assert net_types._canonical[cls].get(value) is addr
    alive = weakref.ref(addr)
    del addr
    gc.collect()
    assert alive() is None
    assert value not in net_types._canonical[cls]


# -- identity does not leak -------------------------------------------------


@pytest.fixture(scope="module")
def modified_doc() -> ConfigMapDoc:
    return load_configmap_docs((SCENARIOS / "configmap_worker2_modified.yaml").read_text())[0]


def applied(doc: ConfigMapDoc) -> Simulation:
    sim = Simulation(load_scenario(SCENARIOS / "full_cm.yaml")).start()
    assert sim.apply_configmaps([doc]) == ["worker2: 1 replaced"]
    return sim


def test_fresh_objects_behave_as_canonical_ones(modified_doc):
    """A document of fresh, equal objects whose segment lists are lists does
    not decode to itself, so it is not canonicalised: its text is parsed
    again. It leaves the state and the pings as the canonical one does."""
    listed = fresh_doc(modified_doc, segment_list=list)
    assert decodes_to_itself(listed) is None
    reference, sim = applied(modified_doc), applied(listed)
    assert sim.state_dump() == reference.state_dump()
    pings = ping_all(sim)
    assert pings == ping_all(reference)
    assert all(delivered == 3 for delivered, _ in pings.values())
    stored = sim.agents["worker2"].last_doc
    assert stored is not listed and stored == modified_doc
    assert all(a is canon(a) for a in addresses(stored))


def test_admitted_document_is_stored_canonical(modified_doc):
    """A document that decodes to itself is stored with canonical addresses,
    and one that is already canonical is kept entry for entry."""
    doc = fresh_doc(modified_doc)
    same = decodes_to_itself(doc)
    assert same == doc == modified_doc
    assert all(a is canon(a) for a in addresses(same))
    assert not any(a is canon(a) for a in addresses(doc))
    kept = decodes_to_itself(modified_doc).policies
    assert len(kept) == len(modified_doc.policies)
    assert all(p is q for p, q in zip(kept, modified_doc.policies))
    sim = applied(doc)
    assert sim.state_dump() == applied(modified_doc).state_dump()
    assert all(a is canon(a) for a in addresses(sim.agents["worker2"].last_doc))


# -- count tests ------------------------------------------------------------


@pytest.mark.parametrize("family", ["v4", "v6"])
def test_ping_compares_no_address_after_its_first_packet(address_eq, family):
    sim = Simulation(load_scenario(SCENARIOS / "full_cm.yaml")).start()
    sim.ping("pod-master", "pod-worker2", count=1, family=family)  # computes the routes
    address_eq.calls = 0
    sim.ping("pod-master", "pod-worker2", count=1, family=family)
    first = address_eq.calls
    address_eq.calls = 0
    report = sim.ping("pod-master", "pod-worker2", count=256, family=family)
    assert report.delivered == 256
    assert address_eq.calls == first


@pytest.mark.parametrize("scenario", ["full_bgp", "full_cm"])
def test_bring_up_compares_no_address_with_the_agents_own(address_eq, scenario):
    """An agent checks each tunnel's endpoint against its own infra address
    (``Agent._is_self``): identity, then the integers, and ``__eq__`` only
    when those are equal but not identical, which a bring-up never has.
    full_bgp installs its policies by SAFI-73 injects after the bring-up."""
    sim = Simulation(load_scenario(SCENARIOS / f"{scenario}.yaml")).start()
    if scenario == "full_bgp":
        for path in sorted((SCENARIOS / "policies").glob("*.yaml")):
            sim.inject(parse_policy_file(path.read_text()))
        assert sim.metrics["step2_received"]
    assert not address_eq.callers.keys() & {"_is_self", "on_policy", "on_configmap_change"}


def _gen_module():
    """The benchmark's scenario generator, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_reroute_update_compares_few_addresses(address_eq):
    """On the benchmark's 24-node configmap cluster, a document that reroutes
    one tunnel, built from fresh address objects, compares a few addresses:
    the rerouted segment lists and the tunnel's egress against the node."""
    cluster = _gen_module().build_cluster(24, 4, "configmap", seed=5)
    sim = Simulation(load_scenario(cluster.scenario_yaml())).start()
    node = cluster.nodes[0].name
    doc = fresh_doc(sim.agents[node].last_doc)
    first = doc.policies[0]
    waypoint = next(fresh(r.end_sid) for r in sim.scenario.routers
                    if r.end_sid not in first.segment_list)
    rerouted = PolicyDocEntry(first.egress_node, first.bsid,
                              (waypoint, *first.segment_list[1:]), first.traffic)
    doc = ConfigMapDoc(doc.node, doc.localsids, (rerouted, *doc.policies[1:]))
    address_eq.calls = 0
    assert sim.apply_configmaps([doc]) == [f"{node}: 1 replaced"]
    assert address_eq.calls <= 10
