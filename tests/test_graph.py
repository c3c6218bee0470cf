import random
from collections import Counter

import pytest

from srv6sim.dataplane import NodeDataplane, SrPolicyEntry, SteeringRule
from srv6sim.errors import SimError
from srv6sim.graph import VECTOR_MAX, run_vector
from srv6sim.net_types import (
    InnerPacket,
    parse_addr,
    parse_prefix,
    parse_v6,
)

from conftest import scalar_tx, tx_flows


def make_dp():
    """fd90::/64 tunnels via fcff:1::1, which the FIB routes; fd91::/64 via
    fcee::1, which it does not; nothing steers fd99::/64."""
    dp = NodeDataplane("n")
    dp.set_encap_source(parse_v6("fd10::1000"))
    for bsid, first, match in (("cafe::1", "fcff:1::1", "fd90::/64"),
                               ("cafe::2", "fcee::1", "fd91::/64")):
        dp.install_policy(
            SrPolicyEntry(
                bsid=parse_v6(bsid),
                segments=(parse_v6(first), parse_v6("fcff:3::1")),
                family="v6",
            )
        )
        dp.install_steering(SteeringRule(parse_prefix(match), parse_v6(bsid)))
    dp.add_fib_route(parse_prefix("fcff::/16"), "uplink")
    return dp


def make_packet(rng):
    # half the packets are routed, a quarter have no route, a quarter no steering
    net = rng.choice(("fd90", "fd90", "fd91", "fd99"))
    dst = f"{net}::{rng.randrange(1, 200):x}"
    return InnerPacket(src=parse_addr("fd90::beef"), dst=parse_addr(dst), payload=b"p")


def test_vector_cap_enforced():
    dp = make_dp()
    rng = random.Random(0)
    too_many = [make_packet(rng) for _ in range(VECTOR_MAX + 1)]
    with pytest.raises(SimError):
        run_vector(dp, too_many)
    run_vector(dp, too_many[:VECTOR_MAX])  # at the cap is fine


def test_empty_vector_rejected():
    with pytest.raises(SimError):
        run_vector(make_dp(), [])


def test_conservation_every_packet_gets_a_disposition():
    rng = random.Random(1)
    vec = [make_packet(rng) for _ in range(100)]
    flows = run_vector(make_dp(), vec)
    assert sum(len(flow.packets) for flow in flows) == 100
    assert {(flow.header is not None, flow.reason) for flow in flows} == {
        (True, None), (False, "no route"), (False, "no steering match"),
    }


def test_vector_equals_scalar_tx():
    rng = random.Random(2)
    dp = make_dp()
    vec = [make_packet(rng) for _ in range(64)]
    flows = run_vector(dp, vec)
    assert flows == tx_flows(dp, vec)
    assert {flow.reason for flow in flows} == {None, "no route", "no steering match"}


def test_disposition_multiset_independent_of_batching():
    rng = random.Random(4)
    packets = [make_packet(rng) for _ in range(300)]
    dp = make_dp()
    whole = Counter()
    for i in range(0, 300, 256):
        for flow in run_vector(dp, packets[i : i + 256]):
            for inner in flow.packets:
                whole[flow.header, flow.reason, inner if flow.header is not None else None] += 1
    single = Counter()
    for p in packets:
        disp, inner = scalar_tx(dp, p)
        single[disp.packet, disp.reason, inner] += 1
    assert whole == single


def test_one_flow_per_bsid_and_drop_reason():
    """The packets steered to one BSID share one header, and drops are kept
    with their reasons; each flow keeps its packets in vector order."""
    dp = make_dp()
    dsts = ("fd90::1", "fd90::2", "fd99::1", "fd90::1", "fd91::1", "fd91::2", "fd90::3")
    vector = [InnerPacket(src=parse_addr("fd90::beef"), dst=parse_addr(d), payload=b"%d" % i)
              for i, d in enumerate(dsts)]
    flows = run_vector(dp, vector)
    packets = [[vector[k].encode() for k in ks] for ks in ((0, 1, 3, 6), (2,), (4, 5))]
    assert [(f.header is not None, f.reason, f.packets) for f in flows] == [
        (True, None, packets[0]), (False, "no steering match", packets[1]),
        (False, "no route", packets[2]),
    ]
    assert flows[0].header.srh is dp.policies[parse_v6("cafe::1")].srh
