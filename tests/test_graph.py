import random
from collections import Counter

import pytest

from srv6sim.dataplane import NodeDataplane, SrPolicyEntry, SteeringRule
from srv6sim.errors import SimError
from srv6sim.graph import (
    VECTOR_MAX,
    bench_dispatch,
    render_bench_csv,
    run_scalar,
    run_vector,
)
from srv6sim.net_types import (
    InnerPacket,
    encode_outer,
    parse_addr,
    parse_prefix,
    parse_v6,
)


def make_dp(steered_fraction_prefix="fd90::/64"):
    dp = NodeDataplane("n")
    dp.set_encap_source(parse_v6("fd10::1000"))
    dp.install_policy(
        SrPolicyEntry(
            bsid=parse_v6("cafe::1"),
            segments=(parse_v6("fcff:1::1"), parse_v6("fcff:3::1")),
            family="v6",
        )
    )
    dp.install_steering(
        SteeringRule(parse_prefix(steered_fraction_prefix), parse_v6("cafe::1"))
    )
    dp.add_fib_route(parse_prefix("::/0"), "uplink")
    return dp


def make_packet(rng):
    # half the packets match steering, half do not
    dst = f"fd90::{rng.randrange(1, 200):x}" if rng.random() < 0.5 else "fd99::1"
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
    out = run_vector(make_dp(), vec)
    assert len(out) == 100
    assert {d.kind for d in out} <= {"tx", "drop"}


def _signature(disp):
    wire = encode_outer(disp.outer) if disp.outer is not None else b""
    return (disp.kind, disp.reason, disp.next_hop, wire)


def test_vector_equals_scalar_tx():
    rng = random.Random(2)
    dp = make_dp()
    vec = [make_packet(rng) for _ in range(64)]
    vector_out = run_vector(dp, vec)
    scalar_out = [run_scalar(dp, p) for p in vec]
    assert [_signature(d) for d in vector_out] == [_signature(d) for d in scalar_out]


def test_bench_reports_both_batches():
    dp = make_dp()
    rng = random.Random(3)
    rows = []
    for batch in (1, 256):
        pkts = [make_packet(rng) for _ in range(512)]
        rows.append(bench_dispatch(dp, pkts, batch))
    csv = render_bench_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "batch,packets,seconds,pps"
    assert len(lines) == 3
    assert all(r["packets"] == 512 for r in rows)
    with pytest.raises(SimError):
        bench_dispatch(dp, [make_packet(rng)], 7)


def test_disposition_multiset_independent_of_batching():
    rng = random.Random(4)
    packets = [make_packet(rng) for _ in range(300)]
    dp = make_dp()
    whole = Counter()
    for i in range(0, 300, 256):
        for d in run_vector(dp, packets[i : i + 256]):
            whole[_signature(d)] += 1
    single = Counter()
    for p in packets:
        single[_signature(run_scalar(dp, p))] += 1
    assert whole == single
