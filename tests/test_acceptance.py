"""Acceptance criteria. Each test covers one numbered criterion and prints a
single PASS line with the measured evidence."""

import json
import random
import time
from collections import Counter

import pytest

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
from srv6sim.dataplane import (
    Behavior,
    LocalSidEntry,
    NodeDataplane,
    SrPolicyEntry,
)
from srv6sim.errors import SimError, ValidationError
from srv6sim.graph import run_vector
from srv6sim.k8s import (
    ConfigMapDoc,
    IpPool,
    IpamAllocator,
    PolicyDocEntry,
    parse_configmap_doc,
)
from srv6sim.net_types import (
    InnerPacket,
    Srh,
    decode_srh,
    encode_srh,
    parse_addr,
    parse_prefix,
    parse_v6,
)
from srv6sim.scenario import NodeConfig, RouterConfig, Scenario, load_scenario
from srv6sim.sim import Simulation, load_configmap_docs
from srv6sim.underlay import waypoints

from conftest import SCENARIOS, random_v4, random_v6, tx_flows

BASIC = str(SCENARIOS / "basic.yaml")
FULL_CM = str(SCENARIOS / "full_cm.yaml")
FULL_BGP = str(SCENARIOS / "full_bgp.yaml")
POLICY_FILES = sorted((SCENARIOS / "policies").glob("*.yaml"))


def test_criterion_01_srh_codec():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(10_000):
        n = rng.randint(1, 10)
        h = Srh(
            next_header=rng.choice([4, 41]),
            segments_left=rng.randrange(n),
            segment_list=tuple(random_v6(rng) for _ in range(n)),
            flags=rng.randrange(256),
            tag=rng.randrange(1 << 16),
        )
        raw = encode_srh(h)
        assert len(raw) == 8 + 16 * n
        assert decode_srh(raw) == h
    # single- vs double-segment encapsulation: the SRHs are exactly 16 bytes apart
    dp = NodeDataplane("n")
    dp.set_encap_source(parse_v6("fd10::1"))
    s1, s2 = parse_v6("fcff:1::1"), parse_v6("fcff:2::1")
    inner = InnerPacket(src=parse_addr("fd90::1"), dst=parse_addr("fd90::2"))
    sizes = {}
    for name, segs in (("single", (s1,)), ("double", (s1, s2))):
        dp.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::1"), segments=segs,
                                        family="v6"))
        sizes[name] = len(encode_srh(dp.h_encaps(parse_v6("cafe::1")).srh))
    assert sizes["double"] - sizes["single"] == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\ncriterion 1: PASS — 10000 SRH round-trips, size law 8+16n, "
          f"16-byte single/double delta, {elapsed:.2f}s")


def test_criterion_02_dataplane_three_segment_example():
    s1, s2, s3 = (parse_v6(f"fcff:{i}::1") for i in (1, 2, 3))
    head = NodeDataplane("head")
    head.set_encap_source(parse_v6("fd10::1"))
    head.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::1"),
                                      segments=(s1, s2, s3), family="v6"))
    outer = head.h_encaps(parse_v6("cafe::1"))
    assert outer.srh.segment_list == (s3, s2, s1)
    assert outer.srh.segments_left == 2
    assert outer.dst == s1
    mid = NodeDataplane("mid")
    mid.install_localsid(LocalSidEntry(sid=s1, behavior=Behavior("End")))
    out = mid.process_local(outer).packet
    assert out.srh.segments_left == 1
    assert out.dst == s2
    print("\ncriterion 2: PASS — SRH <S3,S2,S1>, SL 2→1, dst S1→S2 exact")


def test_criterion_03_end_to_end_inversion():
    rng = random.Random(303)
    for case in range(1000):
        family = rng.choice(["v4", "v6"])
        maker = random_v4 if family == "v4" else random_v6
        inner = InnerPacket(
            src=maker(rng), dst=maker(rng),
            hop_limit=rng.randrange(1, 256),
            payload=rng.randbytes(rng.randrange(32)),
        )
        k = rng.randint(1, 5)
        sids = tuple(random_v6(rng) for _ in range(k))
        head = NodeDataplane("head")
        head.set_encap_source(random_v6(rng))
        head.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::1"),
                                          segments=sids, family=family))
        pkt = head.h_encaps(parse_v6("cafe::1"))
        for sid in sids[:-1]:
            mid = NodeDataplane("mid")
            mid.install_localsid(LocalSidEntry(sid=sid, behavior=Behavior("End")))
            disp = mid.process_local(pkt)
            assert disp.kind == "forward", case
            pkt = disp.packet
        egress = NodeDataplane("egress")
        kind = "EndDT4" if family == "v4" else "EndDT6"
        egress.install_localsid(LocalSidEntry(sid=sids[-1], behavior=Behavior(kind)))
        disp = egress.process_local(pkt).decap(inner.encode())
        assert disp.kind == "deliver", case
        assert disp.inner.encode() == inner.encode(), case
    print("\ncriterion 3: PASS — 1000 encap/(k−1)·End/DT-decap inversions "
          "byte-identical")


def test_criterion_04_safi73_codec():
    start = time.perf_counter()
    update = parse_policy_file((SCENARIOS / "policies" / "worker2-v4.yaml").read_text())
    assert update.endpoint == parse_v6("fd12::1000")
    assert update.bsid == parse_v6("cafe::4")
    assert [str(s.sid) for s in update.segments] == [
        "fcff:5::1", "fcff:7::1", "fcff:8::1", "fcdd::12aa:d460:b250:45:b04"
    ]
    assert all(s.behavior_code == 19 for s in update.segments)
    assert decode_safi73(encode_safi73(update)) == update

    rng = random.Random(404)
    raw = encode_safi73(update)
    crashes = 0
    for _ in range(100_000):
        buf = bytearray(raw)
        for _ in range(rng.randrange(1, 5)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        try:
            decode_safi73(bytes(buf))
        except SimError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\ncriterion 4: PASS — worker2 policy field-for-field, 100000 "
          f"mutations, 0 crashes, {elapsed:.1f}s")


def test_criterion_05_convergence_and_interleaving_invariance():
    dumps = set()
    for seed in range(50):
        sim = Simulation(load_scenario(BASIC, seed=seed)).start()
        per_family = Counter()
        for agent in sim.agents.values():
            for (_endpoint, family) in agent.installed:
                per_family[family] += 1
        assert per_family == {"v4": 6, "v6": 6}, seed
        dumps.add(json.dumps(sim.state_dump(), sort_keys=True))
    assert len(dumps) == 1

    # step-2 before step-1 from the same origin cannot occur on the FIFO
    # bus, so exercise that ordering by direct delivery to a fresh agent.
    def build(order):
        bus = SessionBus()
        ipam = IpamAllocator([IpPool(name="p", cidr=parse_prefix("cafe::/118"),
                                     block_size=122)])
        node = NodeConfig(name="a", infra=parse_v6("fd10::1"), router="r1",
                          pod_prefixes=(parse_prefix("fd90:0:10::/64"),), localsid_pool="p")
        scenario = Scenario(
            name="criterion-5", mode="bgp", seed=0, families={"v6"},
            routers=[RouterConfig(name="r1", end_sid=parse_v6("fcff:1::1"))], links=[],
            nodes=[node, NodeConfig(name="b", infra=parse_v6("fd11::1"), router="r1",
                                    pod_prefixes=())],
            pools=[], pods=[], bsid_pool="p",
        )
        agent = Agent(node, scenario, NodeDataplane("a"), bus, ipam, events=[], metrics=Counter())
        agent.startup()
        step1 = Step1Update(prefix=parse_prefix("fd90:0:11::/64"),
                            next_hop=parse_v6("fd11::1"))
        step2 = SrPolicySafiUpdate(
            distinguisher=1, color=0, endpoint=parse_v6("fd11::1"),
            bsid=parse_v6("cafe::77"),
            segments=(Segment(parse_v6("fcff:1::1"), 18),
                      Segment(parse_v6("fcdd::b6"), 18)),
            next_hop=parse_v6("fd11::1"),
        )
        for message in order(step1, ("safi73", encode_safi73(step2))):
            agent.handle_message("b", message)
        return agent.dp.dump()

    assert build(lambda s1, s2: [s1, s2]) == build(lambda s1, s2: [s2, s1])
    print("\ncriterion 5: PASS — 6 tunnels/family, 50 interleavings one state, "
          "step-2-first equal")


def test_criterion_06_te_rewiring():
    start = time.perf_counter()
    sim = Simulation(load_scenario(FULL_CM)).start()
    assert waypoints(sim.trace("pod-worker2", "pod-worker1", "v6")) == ["R4", "R3"]
    docs = load_configmap_docs(
        (SCENARIOS / "configmap_worker2_modified.yaml").read_text()
    )
    summaries = sim.apply_configmaps(docs)
    assert "worker2: 1 replaced" in summaries
    assert waypoints(sim.trace("pod-worker2", "pod-worker1", "v6")) == [
        "R7", "R2", "R3"
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\ncriterion 6: PASS — waypoints [R4,R3] → [R7,R2,R3], {elapsed:.2f}s")


def test_criterion_07_bgp_te_injection():
    sim = Simulation(load_scenario(FULL_BGP)).start()
    pods = ["pod-master", "pod-worker1", "pod-worker2"]
    before = sum(
        sim.ping(a, b, count=2, family=f).delivered
        for a in pods for b in pods if a != b for f in ("v4", "v6")
    )
    assert before == 0

    sim = Simulation(load_scenario(FULL_BGP)).start()  # fresh counters
    for path in POLICY_FILES:
        sim.inject(parse_policy_file(path.read_text()))
    delivered_at = Counter()
    for a in pods:
        for b in pods:
            if a == b:
                continue
            for family in ("v4", "v6"):
                report = sim.ping(a, b, count=4, family=family)
                assert report.delivered == 4, (a, b, family, report.drop_reasons)
                delivered_at[(sim.pods[b].node, family)] += report.delivered
    for node in ("master", "worker1", "worker2"):
        counters = sim.dataplanes[node].counters()
        agent = sim.agents[node]
        for kind, family in (("DT4", "v4"), ("DT6", "v6")):
            sid = str(agent.node.localsids[kind])
            assert counters[sid] == delivered_at[(node, family)], (node, kind)
    print("\ncriterion 7: PASS — 0 delivered pre-inject; 48/48 post-inject; "
          "DT counters == delivered")


def _updates():
    return [parse_policy_file(p.read_text()) for p in POLICY_FILES]


def test_criterion_08_mode_equivalence():
    bgp_sim = Simulation(load_scenario(FULL_BGP)).start()
    for update in _updates():
        bgp_sim.inject(update)

    cm_scenario = load_scenario(FULL_BGP)
    cm_scenario.mode = "configmap"
    node_by_infra = {str(n.infra): n for n in cm_scenario.nodes}
    docs = []
    for node in cm_scenario.nodes:
        policies = tuple(
            PolicyDocEntry(
                egress_node=u.endpoint,
                bsid=u.bsid,
                segment_list=u.policy.segments,
                traffic="IPv4" if u.family == "v4" else "IPv6",
            )
            for u in _updates()
            if u.endpoint != node.infra
        )
        docs.append(ConfigMapDoc(node=node.name, localsids=dict(node.localsids),
                                 policies=policies))
    assert len(node_by_infra) == 3
    cm_scenario.configmaps = docs
    cm_sim = Simulation(cm_scenario).start()

    assert bgp_sim.state_dump() == cm_sim.state_dump()
    print("\ncriterion 8: PASS — bgp and configmap dumps identical for the "
          "same policy set")


FANOUT_TEMPLATE = """
name: fanout
mode: configmap
seed: 1
families: [v6]
configmap_fanout: {fanout}
routers:
  - {{name: R1, end_sid: "fcff:1::1"}}
nodes:
{nodes}
pools: []
pods: []
configmaps:
{configmaps}
"""


def _fanout_scenario(fanout):
    nodes, cms = [], []
    for i in range(5):
        nodes.append(
            f"  - {{name: n{i}, infra: 'fd{i}::1', router: R1, "
            f"pod_prefix_v6: 'fd90:0:{i}::/64'}}"
        )
        cms.append(
            f"  - {{node: n{i}, localsids: {{DT6: 'fcdd::{i}'}}, policies: []}}"
        )
    return load_scenario(
        FANOUT_TEMPLATE.format(fanout=fanout, nodes="\n".join(nodes),
                               configmaps="\n".join(cms))
    )


def test_criterion_09_fanout_law():
    scans = {}
    for fanout in ("single-map", "per-node"):
        sim = Simulation(_fanout_scenario(fanout)).start()
        base = sim.store.scan_units
        for w in range(20):
            target = f"n{w % 5}"
            doc = parse_configmap_doc({
                "node": target,
                "localsids": {"DT6": f"fcdd::{w % 5}"},
                "policies": [{
                    "egress_node": f"fd{(w + 1) % 5}::1",
                    "bsid": f"cafe::{100 + w:x}",
                    "segment_list": ["fcff:1::1", f"fcdd::{(w + 1) % 5}"],
                    "traffic": "IPv6",
                }],
            })
            sim.apply_configmaps([doc])
        scans[fanout] = sim.store.scan_units - base
    assert scans == {"single-map": 100, "per-node": 20}
    print("\ncriterion 9: PASS — scan units 100 (single-map) vs 20 (per-node) "
          "for W=20, N=5")


def test_criterion_10_vector_scalar_oracle():
    dp = NodeDataplane("n")
    dp.set_encap_source(parse_v6("fd10::1"))
    dp.install_policy(SrPolicyEntry(
        bsid=parse_v6("cafe::1"),
        segments=(parse_v6("fcff:1::1"), parse_v6("fcff:3::1")),
        family="v6",
    ))
    dp.install_policy(SrPolicyEntry(
        bsid=parse_v6("cafe::2"), segments=(parse_v6("fcff:8::1"),), family="v4",
    ))
    dp.install_policy(SrPolicyEntry(
        bsid=parse_v6("cafe::3"), segments=(parse_v6("fcee::1"),), family="v6",
    ))
    dp.install_steering(parse_prefix("fd90::/64"), parse_v6("cafe::1"))
    dp.install_steering(parse_prefix("10.1.0.0/16"), parse_v6("cafe::2"))
    dp.install_steering(parse_prefix("fd91::/64"), parse_v6("cafe::3"))
    dp.add_fib_route(parse_prefix("fcff::/16"), "uplink")  # fcee::1 has no route

    rng = random.Random(1010)

    def packet():
        roll = rng.random()
        if roll < 0.35:
            dst = f"fd90::{rng.randrange(1, 255):x}"
        elif roll < 0.65:
            dst = f"10.1.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        elif roll < 0.8:
            dst = f"fd91::{rng.randrange(1, 255):x}"  # steered, no route
        else:
            dst = f"fd99::{rng.randrange(1, 255):x}"  # no steering match
        src = "10.0.0.1" if "." in dst else "fd90::beef"
        return InnerPacket(src=parse_addr(src), dst=parse_addr(dst), payload=b"x")

    fates = Counter()
    for _ in range(1000):
        n = rng.randint(1, 256)
        vec = [packet() for _ in range(n)]
        flows = run_vector(dp, vec)
        assert flows == tx_flows(dp, vec)
        fates.update(flow.reason for flow in flows)
    assert set(fates) == {None, "no route", "no steering match"}
    print("\ncriterion 10: PASS — 1000 vectors (1..256): vector == scalar "
          "dispositions and bytes")


def test_criterion_11_ipam():
    pool = IpPool(name="p", cidr=parse_prefix("10.9.0.0/24"), block_size=27,
                  node_selector=None)
    ipam = IpamAllocator([pool])
    addrs = [ipam.allocate("p", f"node{i % 4}") for i in range(256)]
    assert len(set(addrs)) == 256
    assert all(a in pool.cidr for a in addrs)
    reference_pools = [
        IpPool(name="sr-policies-pool", cidr=parse_prefix("cafe::/118"),
               block_size=122),
        IpPool(name="sr-localsids-pool-master",
               cidr=parse_prefix("fcff:0:0:00AA::/64"), block_size=122,
               node_selector="master"),
        IpPool(name="sr-localsids-pool-node1",
               cidr=parse_prefix("fcff:0:0:11AA::/64"), block_size=122,
               node_selector="node1"),
        IpPool(name="sr-localsids-pool-node2",
               cidr=parse_prefix("fcff:0:0:12AA::/64"), block_size=122,
               node_selector="node2"),
    ]
    ipam = IpamAllocator(reference_pools)
    assert str(ipam.allocate("sr-policies-pool", "master")) == "cafe::"
    for node in ("master", "node1", "node2"):
        sid = ipam.allocate(f"sr-localsids-pool-{node}", node)
        assert sid in dict((p.name, p) for p in reference_pools)[
            f"sr-localsids-pool-{node}"
        ].cidr
    # selectors and pool sizes are enforced where the scenario enters:
    # load_scenario checks each pool a node allocates from
    basic = (SCENARIOS / "basic.yaml").read_text()
    with pytest.raises(ValidationError, match="selects node 'master', not 'worker1'"):
        load_scenario(basic.replace("nodeSelector: worker1", "nodeSelector: master"))
    with pytest.raises(ValidationError, match="selects node 'master', not 'worker1'"):
        load_scenario(basic.replace("  - name: sr-policies-pool\n",
                                    "  - name: sr-policies-pool\n    nodeSelector: master\n"))
    with pytest.raises(ValidationError, match="pool 'sr-policies-pool' has no block left "
                                              "for node 'worker2'"):
        load_scenario(basic.replace('cidr: "cafe::/118"', 'cidr: "cafe::/121"'))
    print("\ncriterion 11: PASS — 256/256 distinct in-CIDR, selectors and sizes enforced, "
          "reference pools allocate")
