from collections import Counter

import pytest

from srv6sim.agent import Agent
from srv6sim.bgp import (
    Segment,
    SessionBus,
    SrPolicySafiUpdate,
    Step1Update,
    encode_safi73,
)
from srv6sim.dataplane import NodeDataplane
from srv6sim.errors import SimError, ValidationError
from srv6sim.k8s import IpPool, IpamAllocator, parse_configmap_doc
from srv6sim.net_types import parse_prefix, parse_v6
from srv6sim.scenario import NodeConfig, RouterConfig, Scenario

INFRA_A = parse_v6("fd10::1000")
INFRA_B = parse_v6("fd11::1000")


def make_agent(mode="bgp", name="a", infra=INFRA_A, pinned=None):
    bus = SessionBus()
    for peer in ("a", "b"):
        bus.register(peer)
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
    key = (INFRA_B, "v6")
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
    assert (INFRA_B, "v6") in reversed_.pending  # queued, not installed
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
    assert parse_v6("cafe::aa") in agent.dp.policies
    assert parse_v6("cafe::99") not in agent.dp.policies
    assert agent.dp.steer_lookup(parse_v6("fd90:0:11::7")) == parse_v6("cafe::aa")


def test_policy_withdraw_uninstalls():
    from dataclasses import replace
    agent = make_agent()
    agent.startup()
    agent.on_step1(B_PREFIX)
    agent.on_policy("b", policy_for_b())
    agent.on_policy("b", replace(policy_for_b(), withdraw=True))
    assert agent.dp.policies == {}
    assert (INFRA_B, "v6") not in agent.installed


def test_policy_from_unregistered_peer_is_audited():
    agent = make_agent()
    agent.startup()
    agent.on_step1(B_PREFIX)
    agent.handle_message("rogue", ("safi73", encode_safi73(policy_for_b())))
    assert (INFRA_B, "v6") not in agent.installed
    assert any(e[2] == "audit-unregistered-peer" for e in agent.events)
    # the registered external injector is accepted
    agent.handle_message("pi", ("safi73", encode_safi73(policy_for_b())))
    assert (INFRA_B, "v6") in agent.installed


def test_configmap_mode_ignores_step2():
    doc = parse_configmap_doc({"node": "a", "localsids": {"DT6": "fcdd::a6"},
                               "policies": []})
    agent = make_agent(mode="configmap")
    agent.startup(configmap_doc=doc)
    agent.on_policy("b", policy_for_b())
    assert agent.installed == {} and agent.pending == {}
    assert any(e[2] == "step2-ignored" for e in agent.events)


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
    assert (INFRA_B, "v6") in agent.installed

    changed = dict(base)
    changed["policies"] = [dict(base["policies"][0], bsid="cafe::aa")]
    diff = agent.on_configmap_change(parse_configmap_doc(changed))
    assert diff.summary() == "1 replaced"
    assert parse_v6("cafe::aa") in agent.dp.policies

    # omission means removal
    empty = dict(base, policies=[])
    diff = agent.on_configmap_change(parse_configmap_doc(empty))
    assert len(diff.removes) == 1
    assert agent.dp.policies == {}

    # identical re-apply: no mutations
    version = agent.dp.version
    assert agent.on_configmap_change(parse_configmap_doc(empty)).empty
    assert agent.dp.version == version


def test_configmap_doc_for_wrong_node_rejected():
    agent = make_agent(mode="configmap")
    doc = parse_configmap_doc({"node": "a", "localsids": {"DT6": "fcdd::a6"},
                               "policies": []})
    agent.startup(configmap_doc=doc)
    with pytest.raises(ValidationError):
        agent.on_configmap_change(
            parse_configmap_doc({"node": "b", "localsids": {}, "policies": []})
        )


def test_configmap_mode_requires_document():
    agent = make_agent(mode="configmap")
    with pytest.raises(SimError):
        agent.startup(configmap_doc=None)


def test_single_segment_mode():
    agent = make_agent()
    agent.scenario.segment_mode = "single"
    agent.startup()
    payload = agent.bus.sessions[("a", "b")][1]
    from srv6sim.bgp import decode_safi73
    update = decode_safi73(payload[1])
    assert len(update.segments) == 1
