"""Binding SIDs: one BSID names one policy (RFC 9256 §2).

A node's dataplane indexes its steering rules by BSID, so removing or
replacing a policy touches only the rules steered to it. The oracles here
are the linear ``remove_policy`` it replaced, and a stateful machine that
injects and withdraws policies whose BSIDs come from a small pool, so that
BSIDs are swapped between tunnels and collide.
"""

import re
from collections import Counter
from dataclasses import replace
from ipaddress import IPv6Address

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from srv6sim.bgp import Segment, SrPolicySafiUpdate
from srv6sim.dataplane import (
    BEHAVIOR_END_DT4,
    BEHAVIOR_END_DT6,
    NodeDataplane,
    SrPolicyEntry,
)
from srv6sim.errors import ValidationError
from srv6sim.k8s import parse_configmap_doc
from srv6sim.net_types import family_of, parse_prefix, parse_v6, prefix_of
from srv6sim.scenario import load_scenario
from srv6sim.sim import Simulation

from conftest import SCENARIOS

PODS = ("pod-master", "pod-worker1", "pod-worker2")
FAMILIES = ("v4", "v6")


def steered_inverse(steering: dict) -> dict:
    """BSID integer -> the prefix keys steered to it, each counted once."""
    inverse: dict = {}
    for key, bsid in steering.items():
        inverse.setdefault(bsid._ip, Counter())[key] += 1
    return inverse


def assert_steering_points_at_its_family(dp: NodeDataplane) -> None:
    """Every steering rule points at an installed policy of its own family."""
    for key, bsid in dp.steering.items():
        prefix = prefix_of(key)
        assert bsid._ip in dp.policies and dp.policies[bsid._ip].family == family_of(prefix), (
            dp.name, prefix, bsid)


def assert_index_is_inverse(dp: NodeDataplane) -> None:
    """Once built, the index lists each steered prefix once, under its BSID,
    and has no entry for a BSID nothing is steered to."""
    if dp._steered is not None:
        index = {bsid: Counter(prefixes) for bsid, prefixes in dp._steered.items()}
        assert index == steered_inverse(dp.steering), dp.name


# -- the dataplane's BSID index against the linear scan ---------------------


class LinearDataplane(NodeDataplane):
    """The oracle: ``remove_policy`` as it was before the BSID index, a scan
    that compares every steering rule of the node with the BSID."""

    def remove_policy(self, bsid: IPv6Address) -> None:
        if self.policies.pop(bsid._ip, None) is not None:
            dangling = [key for key, b in self.steering.items() if b == bsid]
            for key in dangling:
                del self.steering[key]
            self.version += 1


BSIDS = tuple(parse_v6(f"cafe::{i}") for i in range(1, 5))
PREFIXES = tuple(parse_prefix(p) for p in (
    "fd90:0:10::/64", "fd90:0:11::/64", "fd90:0:12::/64", "fd90:0:12::/80",
    "172.16.231.0/26", "172.16.166.128/26", "172.16.0.0/16",
))
DP_OP = st.one_of(
    st.tuples(st.just("install_policy"), st.sampled_from(BSIDS), st.sampled_from(FAMILIES)),
    st.tuples(st.just("remove_policy"), st.sampled_from(BSIDS), st.none()),
    st.tuples(st.just("install_steering"), st.sampled_from(PREFIXES), st.sampled_from(BSIDS)),
)


def _apply(dp: NodeDataplane, op) -> None:
    name, a, b = op
    if name == "install_policy":
        dp.install_policy(SrPolicyEntry(bsid=a, segments=(parse_v6("fcff:3::1"),), family=b))
    elif name == "install_steering":
        policy = dp.policies.get(b._ip)
        if policy is not None and policy.family == family_of(a):
            # a fresh, equal BSID object: the index must not rely on identity
            dp.install_steering(a, IPv6Address(int(b)))
    else:
        getattr(dp, name)(a)


@settings(max_examples=200, deadline=None)
@given(st.lists(DP_OP, max_size=40))
def test_bsid_index_matches_linear_remove_policy(ops):
    """After every mutation the indexed dataplane has the oracle's policies,
    steering rules and version, and its index (once built) is the inverse
    of its steering table."""
    indexed, linear = NodeDataplane("n"), LinearDataplane("n")
    for dp in (indexed, linear):
        dp.set_encap_source(parse_v6("fd10::1"))
    for op in ops:
        _apply(indexed, op)
        _apply(linear, op)
        assert indexed.dump() == linear.dump()
        assert indexed.version == linear.version
        assert_index_is_inverse(indexed)


def test_bsid_swap_touches_only_its_own_rules(address_eq):
    """On a node with 1,000 steering rules over 500 policies, moving one
    policy to a new BSID compares a handful of addresses; the linear scan
    compares every rule's BSID."""
    def node(cls):
        dp = cls("headend")
        dp.set_encap_source(parse_v6("fd10::1"))
        for i in range(500):
            bsid = parse_v6(f"cafe::{i:x}")
            dp.install_policy(SrPolicyEntry(bsid=bsid, segments=(parse_v6("fcff:3::1"),),
                                            family="v6"))
            for j in range(2):
                dp.install_steering(parse_prefix(f"fd90:{i:x}:{j}::/64"), bsid)
        dp.remove_policy(parse_v6("cafe::1f3"))  # the index is built here, once
        return dp

    def swap(dp):
        old, new = parse_v6("cafe::7"), parse_v6("cafe:1::7")
        dp.install_policy(replace(dp.policies[old._ip], bsid=new))
        for j in range(2):
            dp.install_steering(parse_prefix(f"fd90:7:{j}::/64"), new)
        dp.remove_policy(old)

    counts = {}
    for cls in (NodeDataplane, LinearDataplane):
        dp = node(cls)
        assert len(dp.steering) == 998
        address_eq.calls = 0
        swap(dp)
        counts[cls] = address_eq.calls
        assert len(dp.steering) == 998 and len(dp.policies) == 499
        assert set(map(prefix_of, steered_inverse(dp.steering)[parse_v6("cafe:1::7")._ip])) == {
            parse_prefix("fd90:7:0::/64"), parse_prefix("fd90:7:1::/64")}
        assert_index_is_inverse(dp)
    assert counts[NodeDataplane] <= 10
    assert counts[LinearDataplane] >= 998


# -- BSIDs swapped or reused by the control planes --------------------------


def _master_doc_with_swapped_bsids(scenario):
    doc = next(d for d in scenario.configmaps if d.node == "master")
    first, second, *rest = doc.policies
    swapped = (replace(first, bsid=second.bsid), replace(second, bsid=first.bsid), *rest)
    return replace(doc, policies=swapped)


def test_configmap_bsid_swap_keeps_both_tunnels():
    """A document that swaps the BSIDs of two tunnels leaves both working,
    in the state of a fresh bring-up of that document: the tunnel replaced
    second does not remove the BSID the first one has just taken."""
    scenario = load_scenario(SCENARIOS / "full_cm.yaml")
    swapped = _master_doc_with_swapped_bsids(scenario)
    sim = Simulation(scenario).start()
    assert sim.apply_configmaps([swapped]) == ["master: 2 replaced"]
    for dst in ("pod-worker1", "pod-worker2"):
        for family in FAMILIES:
            report = sim.ping("pod-master", dst, count=1, family=family)
            assert report.delivered == 1, (dst, family, report.drop_reasons)
    fresh = load_scenario(SCENARIOS / "full_cm.yaml")
    fresh.configmaps = [swapped if d.node == "master" else d for d in fresh.configmaps]
    assert sim.state_dump() == Simulation(fresh).start().state_dump()


def test_policy_of_another_family_drops_the_bsids_steering_rules():
    """Re-installing master's v6 policy ``cafe::5`` as v4 through the
    dataplane API drops the v6 rules steered to it, so each v6 packet drops
    with a reason instead of the ping raising FamilyMismatchError."""
    sim = Simulation(load_scenario(SCENARIOS / "full_cm.yaml")).start()
    dp = sim.dataplanes["master"]
    bsid = parse_v6("cafe::5")
    assert dp.policies[bsid._ip].family == "v6" and bsid in dp.steering.values()
    dp.install_policy(replace(dp.policies[bsid._ip], family="v4"))
    assert dp.policies[bsid._ip].family == "v4" and bsid not in dp.steering.values()
    assert_index_is_inverse(dp)
    report = sim.ping("pod-master", "pod-worker2", count=4, family="v6")
    assert (report.delivered, report.drop_reasons) == (0, ["no steering match"] * 4)
    assert sim.ping("pod-master", "pod-worker2", count=4, family="v4").delivered == 4


def test_duplicate_bsids_do_not_decode_to_themselves():
    """A caller's document that names one BSID twice is refused where it
    enters, at the second policy's BSID, as its YAML text would be."""
    doc = next(d for d in load_scenario(SCENARIOS / "full_cm.yaml").configmaps
               if d.node == "master")
    assert parse_configmap_doc(doc) == doc
    first, second, *rest = doc.policies
    with pytest.raises(ValidationError, match=re.escape(
            f"configmap.policies[1].bsid: duplicate bsid '{first.bsid}'")):
        parse_configmap_doc(replace(doc, policies=(first, replace(second, bsid=first.bsid), *rest)))


def _bgp_sim() -> Simulation:
    return Simulation(load_scenario(SCENARIOS / "full_bgp.yaml")).start()


def _update(sim: Simulation, egress: str, family: str, bsid: IPv6Address,
            waypoint: int = 2, withdraw: bool = False) -> SrPolicySafiUpdate:
    """An injector policy to ``egress`` through router R``waypoint``."""
    node = next(n for n in sim.scenario.nodes if n.name == egress)
    code = BEHAVIOR_END_DT4 if family == "v4" else BEHAVIOR_END_DT6
    return SrPolicySafiUpdate(
        distinguisher=7, color=1, endpoint=node.infra, bsid=bsid,
        segments=(Segment(parse_v6(f"fcff:{waypoint}::1"), code),
                  Segment(node.localsids["DT4" if family == "v4" else "DT6"], code)),
        next_hop=node.infra, withdraw=withdraw,
    )


def test_injected_policy_with_a_taken_bsid_is_refused():
    """An injected policy whose BSID another tunnel of a node holds leaves
    that node's dataplane as it was and logs ``policy-bsid-conflict``; the
    tunnel that holds the BSID keeps carrying its traffic."""
    sim = _bgp_sim()
    bsid = parse_v6("cafe::a1")
    sim.inject(_update(sim, "worker1", "v6", bsid))
    before = sim.state_dump()
    sim.inject(_update(sim, "worker2", "v4", bsid))
    # master holds the BSID for its tunnel to worker1; worker1 has no tunnel
    # to itself, so there the BSID is free; worker2 is the new endpoint
    after = sim.state_dump()
    assert after["master"] == before["master"]
    assert after["worker1"] != before["worker1"]
    conflicts = [e[1:] for e in sim.events if e[2] == "policy-bsid-conflict"]
    assert conflicts == [("master", "policy-bsid-conflict", "fd12::1000 v4 cafe::a1")]
    for src in ("pod-master", "pod-worker2"):
        assert sim.ping(src, "pod-worker1", count=2, family="v6").delivered == 2
    report = sim.ping("pod-master", "pod-worker2", count=1, family="v4")
    assert report.drop_reasons == ["no steering match"]
    assert sim.ping("pod-worker1", "pod-worker2", count=1, family="v4").delivered == 1


# -- the stateful oracle ----------------------------------------------------

POOL = tuple(parse_v6(f"cafe::a{i}") for i in range(1, 4))
EGRESS = ("master", "worker1", "worker2")


class BsidMachine(RuleBasedStateMachine):
    """Injects and withdraws over a started ``full_bgp`` simulation, with
    BSIDs drawn from a pool of three for up to six tunnels per node."""

    def __init__(self):
        super().__init__()
        self.sim = _bgp_sim()

    @rule(egress=st.sampled_from(EGRESS), family=st.sampled_from(FAMILIES),
          bsid=st.sampled_from(POOL), waypoint=st.integers(1, 8))
    def inject(self, egress, family, bsid, waypoint):
        self.sim.inject(_update(self.sim, egress, family, bsid, waypoint))

    @rule(egress=st.sampled_from(EGRESS), family=st.sampled_from(FAMILIES),
          bsid=st.sampled_from(POOL))
    def withdraw(self, egress, family, bsid):
        self.sim.inject(_update(self.sim, egress, family, bsid, withdraw=True))

    @invariant()
    def steering_references_installed_policies_of_its_family(self):
        for name in EGRESS:
            assert_steering_points_at_its_family(self.sim.dataplanes[name])

    @invariant()
    def bsid_index_is_the_inverse_of_steering(self):
        for name in EGRESS:
            assert_index_is_inverse(self.sim.dataplanes[name])

    @invariant()
    def each_bsid_names_one_tunnel(self):
        for name in EGRESS:
            agent = self.sim.agents[name]
            assert {p.bsid._ip for p in agent.installed.values()} == set(agent.dp.policies)
            for policy in agent.installed.values():
                assert agent.dp.policies[policy.bsid._ip] == policy

    @invariant()
    def every_ping_delivers_or_drops_with_a_reason(self):
        for src in PODS:
            for dst in PODS:
                for family in FAMILIES if src != dst else ():
                    report = self.sim.ping(src, dst, count=1, family=family)
                    assert report.delivered + len(report.drop_reasons) == 1
                    assert report.drop_reasons in ([], ["no steering match"]), (
                        src, dst, family, report.drop_reasons)


TestBsidMachine = BsidMachine.TestCase
TestBsidMachine.settings = settings(max_examples=50, stateful_step_count=15, deadline=None)
