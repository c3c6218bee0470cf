import re
from collections import Counter
from dataclasses import replace

import pytest
import yaml

from srv6sim.agent import Agent
from srv6sim.bgp import (
    Segment,
    SessionBus,
    SrPolicySafiUpdate,
    Step1Update,
    decode_safi73,
    encode_safi73,
    parse_policy_file,
)
from srv6sim.dataplane import NodeDataplane, SrPolicyEntry
from srv6sim.errors import ModeMismatchError, UnknownNodeError, ValidationError
from srv6sim.k8s import IpPool, IpamAllocator, parse_configmap_doc
from srv6sim.net_types import parse_prefix, parse_v6
from srv6sim.scenario import NodeConfig, RouterConfig, Scenario, load_scenario
from srv6sim.sim import Simulation, load_configmap_docs

INFRA_A = parse_v6("fd10::1000")
INFRA_B = parse_v6("fd11::1000")


def make_agent(mode="bgp", name="a", infra=INFRA_A, pinned=None):
    bus = SessionBus()
    ipam = IpamAllocator(
        [
            IpPool(name="bsids", cidr=parse_prefix("cafe::/118"), block_size=122),
            IpPool(name="sids", cidr=parse_prefix("fcdd::/64"), block_size=122),
        ]
    )
    node = NodeConfig(name=name, infra=infra, router="r1",
                      pod_prefixes=(parse_prefix("fd90:0:10::/64"),),
                      localsids=pinned or {}, localsid_pool="sids")
    peer = NodeConfig(name="b", infra=INFRA_B, router="r1", pod_prefixes=())
    scenario = Scenario(
        name="agent", mode=mode, seed=0, families={"v6"},
        routers=[RouterConfig(name="r1", end_sid=parse_v6("fcff:1::1"))], links=[],
        nodes=[node, peer], pools=[], pods=[],
        bsid_pool="bsids", injector="pi",
    )
    return Agent(node, scenario, NodeDataplane(name), bus, ipam, events=[], metrics=Counter())


def policy_for_b(bsid="cafe::99", seg="fcdd::b6"):
    return SrPolicySafiUpdate(
        distinguisher=1,
        color=0,
        endpoint=INFRA_B,
        bsid=parse_v6(bsid),
        segments=(
            Segment(parse_v6("fcff:3::1"), 18),
            Segment(parse_v6(seg), 18),
        ),
        next_hop=INFRA_B,
    )


B_PREFIX = Step1Update(prefix=parse_prefix("fd90:0:11::/64"), next_hop=INFRA_B)


def test_startup_configures_dataplane_and_advertises():
    agent = make_agent()
    agent.startup()
    assert agent.dp.encap_source == INFRA_A
    assert len(agent.dp.localsids) == 1  # v6 only -> DT6
    # one step-1 and one step-2 message queued toward the other node
    session = agent.bus.sessions[("a", "b")]
    assert len(session) == 2
    assert isinstance(session[0], Step1Update)
    assert session[1][0] == "safi73"


def test_step1_then_step2_installs_tunnel():
    agent = make_agent()
    agent.startup()
    agent.on_step1(B_PREFIX)
    agent.on_policy("b", policy_for_b())
    key = (INFRA_B._ip, "v6")
    assert key in agent.installed
    assert agent.dp.steer_lookup(parse_v6("fd90:0:11::7")) == parse_v6("cafe::99")


def test_step2_before_step1_is_order_independent():
    ordered = make_agent()
    ordered.startup()
    ordered.on_step1(B_PREFIX)
    ordered.on_policy("b", policy_for_b())

    reversed_ = make_agent()
    reversed_.startup()
    reversed_.on_policy("b", policy_for_b())
    assert (INFRA_B._ip, "v6") in reversed_.pending  # queued, not installed
    reversed_.on_step1(B_PREFIX)

    assert ordered.dp.dump() == reversed_.dp.dump()


def test_duplicate_inputs_are_idempotent():
    agent = make_agent()
    agent.startup()
    agent.on_step1(B_PREFIX)
    agent.on_policy("b", policy_for_b())
    version = agent.dp.version
    agent.on_step1(B_PREFIX)
    agent.on_policy("b", policy_for_b())
    assert agent.dp.version == version


def test_policy_replacement_swaps_bsid():
    agent = make_agent()
    agent.startup()
    agent.on_step1(B_PREFIX)
    agent.on_policy("b", policy_for_b(bsid="cafe::99"))
    agent.on_policy("b", policy_for_b(bsid="cafe::aa"))
    assert parse_v6("cafe::aa")._ip in agent.dp.policies
    assert parse_v6("cafe::99")._ip not in agent.dp.policies
    assert agent.dp.steer_lookup(parse_v6("fd90:0:11::7")) == parse_v6("cafe::aa")


def test_policy_withdraw_uninstalls():
    from dataclasses import replace
    agent = make_agent()
    agent.startup()
    agent.on_step1(B_PREFIX)
    agent.on_policy("b", policy_for_b())
    agent.on_policy("b", replace(policy_for_b(), withdraw=True))
    assert agent.dp.policies == {}
    assert (INFRA_B._ip, "v6") not in agent.installed


def test_policy_from_unregistered_peer_is_audited(scenarios_dir):
    agent = make_agent()
    agent.startup()
    agent.on_step1(B_PREFIX)
    agent.handle_message("rogue", ("safi73", encode_safi73(policy_for_b())))
    assert (INFRA_B._ip, "v6") not in agent.installed
    assert any(e[2] == "audit-unregistered-peer" for e in agent.events)
    # the registered external injector is accepted
    agent.handle_message("pi", ("safi73", encode_safi73(policy_for_b())))
    assert (INFRA_B._ip, "v6") in agent.installed
    # through the simulation: an injector the scenario does not register
    scenario = load_scenario(scenarios_dir / "full_bgp.yaml")
    scenario.injector_registered = False
    sim = Simulation(scenario).start()
    before = sim.state_dump()
    sim.inject(parse_policy_file((scenarios_dir / "policies" / "worker2-v4.yaml").read_text()))
    assert sim.state_dump() == before and sim.metrics["step2_received"] == 0
    assert sorted(e[1:] for e in sim.events if e[2] == "audit-unregistered-peer") == [
        (node, "audit-unregistered-peer", "srv6-pi") for node in ("master", "worker1", "worker2")]


def test_configmap_mode_ignores_step2(scenarios_dir):
    """No step-2 update reaches a configmap-mode agent: agents advertise
    none, and ``inject`` refuses to send one."""
    sim = Simulation(load_scenario(scenarios_dir / "full_cm.yaml")).start()
    before = sim.state_dump()
    assert sim.metrics["step2_sent"] == sim.metrics["step2_received"] == 0
    with pytest.raises(ModeMismatchError, match="inject requires bgp mode"):
        sim.inject(policy_for_b())
    assert not sim.bus.pending_sessions() and sim.metrics["step2_received"] == 0
    assert sim.state_dump() == before


def test_configmap_reconcile_add_replace_remove():
    agent = make_agent(mode="configmap")
    base = {
        "node": "a",
        "localsids": {"DT6": "fcdd::a6"},
        "policies": [
            {"egress_node": str(INFRA_B), "bsid": "cafe::99",
             "segment_list": ["fcff:3::1", "fcdd::b6"], "traffic": "IPv6"},
        ],
    }
    agent.startup(configmap_doc=parse_configmap_doc(base))
    agent.on_step1(B_PREFIX)
    assert (INFRA_B._ip, "v6") in agent.installed

    changed = dict(base)
    changed["policies"] = [dict(base["policies"][0], bsid="cafe::aa")]
    diff = agent.on_configmap_change(parse_configmap_doc(changed))
    assert diff.summary() == "1 replaced"
    assert parse_v6("cafe::aa")._ip in agent.dp.policies

    # omission means removal
    empty = dict(base, policies=[])
    diff = agent.on_configmap_change(parse_configmap_doc(empty))
    assert len(diff.removes) == 1
    assert agent.dp.policies == {}

    # identical re-apply: no mutations
    version = agent.dp.version
    assert agent.on_configmap_change(parse_configmap_doc(empty)).empty
    assert agent.dp.version == version


def test_configmap_doc_for_wrong_node_rejected(scenarios_dir):
    """A document reaches only its own node's agent: the simulation stores
    each under its ``node``, and refuses one for a node the cluster lacks."""
    sim = Simulation(load_scenario(scenarios_dir / "full_cm.yaml")).start()
    worker1 = next(doc for doc in sim.scenario.configmaps if doc.node == "worker1")
    fewer = replace(worker1, policies=worker1.policies[1:])
    assert sim.apply_configmaps([fewer]) == ["worker1: 1 removed"]
    assert {name: agent.last_doc.node for name, agent in sim.agents.items()} == {
        name: name for name in sim.agents}
    with pytest.raises(UnknownNodeError, match="ghost"):
        sim.apply_configmaps([replace(fewer, node="ghost")])


def test_configmap_mode_requires_document(scenarios_dir):
    """Every configmap-mode agent starts from its node's document: a
    scenario that lacks one is refused where it enters, at ``configmaps``."""
    data = yaml.safe_load((scenarios_dir / "full_cm.yaml").read_text())
    data["configmaps"] = [doc for doc in data["configmaps"] if doc["node"] != "worker1"]
    with pytest.raises(ValidationError, match=re.escape(
            "<scenario>.configmaps: missing configmap for node 'worker1'")):
        load_scenario(yaml.safe_dump(data))


def test_single_segment_mode():
    agent = make_agent()
    agent.scenario.segment_mode = "single"
    agent.startup()
    payload = agent.bus.sessions[("a", "b")][1]
    from srv6sim.bgp import decode_safi73
    update = decode_safi73(payload[1])
    assert len(update.segments) == 1


def _inject_every_policy_file(monkeypatch, scenarios_dir):
    """A full_bgp bring-up, then an inject of every file under
    ``scenarios/policies/``: the simulation, and each distinct update its
    agents took in. full_bgp advertises no policy at start-up."""
    decode_safi73.cache_clear()  # an earlier test's decodes would be shared with this one's
    received = {}  # id -> update, which keeps it alive
    on_policy = Agent.on_policy

    def spy(self, sender, update):
        received[id(update)] = update
        on_policy(self, sender, update)

    monkeypatch.setattr(Agent, "on_policy", spy)
    sim = Simulation(load_scenario(scenarios_dir / "full_bgp.yaml")).start()
    paths = sorted((scenarios_dir / "policies").glob("*.yaml"))
    for path in paths:
        sim.inject(parse_policy_file(path.read_text()))
    updates = list(received.values())
    # one decode per wire update, which every node that is not its endpoint receives
    assert len({encode_safi73(u) for u in updates}) == len(updates) == len(paths)
    assert not any(u.withdraw for u in updates)
    return sim, updates


def test_a_broadcast_policy_is_built_once_per_update(monkeypatch, scenarios_dir):
    """``SrPolicyEntry.__init__`` runs once per distinct SAFI-73 update, not
    once per receiver."""
    built = []
    init = SrPolicyEntry.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SrPolicyEntry, "__init__", counted_init)
    sim, updates = _inject_every_policy_file(monkeypatch, scenarios_dir)
    assert len(built) == len(updates)
    assert sum(map(len, (a.installed for a in sim.agents.values()))) == 2 * len(updates)


def test_receivers_of_a_broadcast_install_one_policy_object(monkeypatch, scenarios_dir):
    """Every node that installs an update's policy holds the same object, in
    its agent and in its dataplane."""
    sim, updates = _inject_every_policy_file(monkeypatch, scenarios_dir)
    for update in updates:
        tunnel = (update.bsid, tuple(s.sid for s in update.segments), update.family)
        held = [(agent, policy) for agent in sim.agents.values()
                for policy in agent.installed.values()
                if (policy.bsid, policy.segments, policy.family) == tunnel]
        assert len(held) == 2  # both nodes but the endpoint
        assert held[0][1] is held[1][1]
        for agent, policy in held:
            assert agent.installed[update.endpoint._ip, update.family] is policy
            assert agent.dp.policies[update.bsid._ip] is policy


def test_installs_hash_no_address(monkeypatch, address_hash, scenarios_dir):
    """No function of ``agent.py`` or ``dataplane.py`` hashes an address: their
    tables are keyed by the address integers."""
    _inject_every_policy_file(monkeypatch, scenarios_dir)
    assert address_hash.calls > 0  # the counter counts
    assert [caller for caller in address_hash.callers
            if caller[0] in ("agent.py", "dataplane.py")] == []


def test_installs_hash_no_prefix(monkeypatch, prefix_hash, scenarios_dir):
    """No function of ``agent.py`` or ``dataplane.py`` hashes a prefix: the
    steering and FIB tables are keyed by ``prefix_key``'s integers."""
    _inject_every_policy_file(monkeypatch, scenarios_dir)
    assert [caller for caller in prefix_hash.callers
            if caller[0] in ("agent.py", "dataplane.py")] == []
    hash(parse_prefix("fd90::/64"))  # the counter counts
    assert prefix_hash.callers["test_agent.py", "test_installs_hash_no_prefix"] == 1


@pytest.mark.parametrize("fanout", ["per-node", "single-map"])
def test_configmap_bring_up_and_apply_hash_no_address_or_prefix(
        fanout, address_hash, prefix_hash, scenarios_dir):
    """A configmap bring-up and an apply hash no address and no prefix in
    ``agent.py``, ``dataplane.py`` or ``diff_policies``, whose maps are keyed
    by ``(egress_node._ip, traffic)``."""
    text = (scenarios_dir / "full_cm.yaml").read_text()
    text = text.replace("configmap_fanout: per-node", f"configmap_fanout: {fanout}")
    sim = Simulation(load_scenario(text)).start()
    assert sim.scenario.configmap_fanout == fanout
    modified = (scenarios_dir / "configmap_worker2_modified.yaml").read_text()
    assert sim.apply_configmaps(load_configmap_docs(modified))
    assert address_hash.calls > 0  # the counter counts: the readers hash addresses
    hashed = address_hash.callers + prefix_hash.callers
    assert [caller for caller in hashed if caller[0] in ("agent.py", "dataplane.py")
            or caller == ("k8s.py", "diff_policies")] == []
