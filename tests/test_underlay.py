import itertools
from ipaddress import IPv6Network

import pytest

from srv6sim.dataplane import (
    Behavior,
    LocalSidEntry,
    NodeDataplane,
    SrPolicyEntry,
)
from srv6sim.errors import SimError
from srv6sim.net_types import InnerPacket, Srh, parse_addr, parse_prefix, parse_v6
from srv6sim.underlay import (
    Link,
    Topology,
    compute_routes,
    forward,
    waypoints,
)

GRID_LINKS = [
    ("R1", "R2", "l12"), ("R2", "R3", "l23"), ("R3", "R4", "l34"),
    ("R5", "R6", "l56"), ("R6", "R7", "l67"), ("R7", "R8", "l78"),
    ("R1", "R5", "l15"), ("R2", "R6", "l26"), ("R3", "R7", "l37"),
    ("R4", "R8", "l48"),
]


def make_grid():
    return Topology(
        routers={f"R{i}" for i in range(1, 9)},
        links=[Link(a, b, 1, name) for a, b, name in GRID_LINKS],
    )


def brute_force_best(topo, src, dst):
    """All simple paths; minimize (cost, link-name sequence)."""
    adj = topo.edges()
    best = None
    stack = [(src, 0, (), {src})]
    while stack:
        vertex, cost, names, seen = stack.pop()
        if vertex == dst:
            cand = (cost, names)
            if best is None or cand < best:
                best = cand
            continue
        for neighbor, weight, link in adj.get(vertex, []):
            if neighbor in seen:
                continue
            stack.append((neighbor, cost + weight, names + (link,), seen | {neighbor}))
    return best


def test_dijkstra_matches_brute_force_on_grid():
    topo = make_grid()
    prefix_of = {f"R{i}": parse_prefix(f"fcff:{i}::/32") for i in range(1, 9)}
    advertised = {p: r for r, p in prefix_of.items()}
    routes = compute_routes(topo, advertised)
    for src, dst in itertools.permutations([f"R{i}" for i in range(1, 9)], 2):
        cost, names = brute_force_best(topo, src, dst)
        # walk the route table and accumulate the chosen path
        walked = []
        current = src
        while current != dst:
            nh, link = routes[current][prefix_of[dst]]
            walked.append(link)
            current = nh
        assert sum(1 for _ in walked) == cost, (src, dst)
        assert tuple(walked) == names, (src, dst)


def test_deterministic_tie_break_prefers_smaller_link_names():
    topo = make_grid()
    advertised = {parse_prefix("fcff:6::/32"): "R6"}
    routes = compute_routes(topo, advertised)
    # R1->R6: via R2 (l12,l26) and via R5 (l15,l56) both cost 2
    assert routes["R1"][parse_prefix("fcff:6::/32")] == ("R2", "l12")


def test_unreachable_origin_left_out():
    topo = Topology(routers={"R1", "R2", "R9"}, links=[Link("R1", "R2", 1, "l12")])  # R9 isolated
    advertised = {
        parse_prefix("fcff:2::/32"): "R2",
        parse_prefix("fcff:9::/32"): "R9",
    }
    routes = compute_routes(topo, advertised)
    assert dict(routes["R1"]) == {parse_prefix("fcff:2::/32"): ("R2", "l12")}
    assert dict(routes["R9"]) == {}


def test_negative_cost_rejected():
    with pytest.raises(SimError):
        Link("A", "B", 0, "z")


def make_overlay():
    """Grid + two attached nodes with a 2-waypoint tunnel between them."""
    topo = make_grid()
    src_dp = NodeDataplane("src")
    src_dp.set_encap_source(parse_v6("fd10::1"))
    dt = parse_v6("fcdd::99")
    src_dp.install_policy(
        SrPolicyEntry(
            bsid=parse_v6("cafe::9"),
            segments=(parse_v6("fcff:4::1"), parse_v6("fcff:3::1"), dt),
            family="v6",
        )
    )
    dst_dp = NodeDataplane("dst")
    dst_dp.install_localsid(LocalSidEntry(sid=dt, behavior=Behavior("EndDT6")))
    topo.attach("src", "R8")
    topo.attach("dst", "R3")
    dataplanes = {"src": src_dp, "dst": dst_dp}
    for i in range(1, 9):
        dp = NodeDataplane(f"R{i}")
        dp.install_localsid(
            LocalSidEntry(sid=parse_v6(f"fcff:{i}::1"), behavior=Behavior("End"))
        )
        dataplanes[f"R{i}"] = dp
    advertised = {parse_prefix(f"fcff:{i}::/32"): f"R{i}" for i in range(1, 9)}
    advertised[IPv6Network((dt, 128))] = "dst"
    routes = compute_routes(topo, advertised)
    return topo, routes, dataplanes, src_dp


def test_forward_consumes_waypoints_and_delivers():
    topo, routes, dataplanes, src_dp = make_overlay()
    inner = InnerPacket(src=parse_addr("fd90::1"), dst=parse_addr("fd91::1"))
    outer = src_dp.h_encaps(inner, parse_v6("cafe::9"))
    trace = forward(topo, routes, "src", outer, dataplanes)
    assert trace.delivered and trace.deliver_node == "dst"
    assert waypoints(trace) == ["R4", "R3"]
    assert trace.disposition.inner == inner
    assert "action=deliver" in trace.render()


def test_forward_drops_on_ttl_expiry():
    topo, routes, dataplanes, src_dp = make_overlay()
    inner = InnerPacket(src=parse_addr("fd90::1"), dst=parse_addr("fd91::1"))
    from dataclasses import replace
    outer = replace(src_dp.h_encaps(inner, parse_v6("cafe::9")), hop_limit=2)
    trace = forward(topo, routes, "src", outer, dataplanes)
    assert not trace.delivered and trace.drop_reason == "ttl"


def test_forward_drops_without_route():
    topo, routes, dataplanes, src_dp = make_overlay()
    from dataclasses import replace
    inner = InnerPacket(src=parse_addr("fd90::1"), dst=parse_addr("fd91::1"))
    outer = src_dp.h_encaps(inner, parse_v6("cafe::9"))
    stray = replace(outer, srh=Srh(next_header=41, segments_left=0,
                                   segment_list=(parse_v6("feee::1"),)))
    trace = forward(topo, routes, "src", stray, dataplanes)
    assert trace.drop_reason == "no route"
