import itertools
import re
from dataclasses import replace
from ipaddress import IPv6Network

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srv6sim.dataplane import (
    Behavior,
    LocalSidEntry,
    LpmIndex,
    NodeDataplane,
    SrPolicyEntry,
)
from srv6sim.errors import ValidationError
from srv6sim.graph import run_vector
from srv6sim.net_types import InnerPacket, Srh, parse_addr, parse_prefix, parse_v6, prefix_key
from srv6sim.scenario import load_scenario
from srv6sim.sim import Simulation
from srv6sim.underlay import (
    Link,
    Routes,
    Topology,
    compute_routes,
    forward,
    waypoints,
)

from conftest import forward_packet

GRID_LINKS = [
    ("R1", "R2", "l12"), ("R2", "R3", "l23"), ("R3", "R4", "l34"),
    ("R5", "R6", "l56"), ("R6", "R7", "l67"), ("R7", "R8", "l78"),
    ("R1", "R5", "l15"), ("R2", "R6", "l26"), ("R3", "R7", "l37"),
    ("R4", "R8", "l48"),
]


def routes_of(topo, advertised):
    """Routes as ``Simulation.current_routes`` builds them, from prefix keys."""
    return Routes(LpmIndex({prefix_key(p): o for p, o in advertised.items()}),
                  compute_routes(topo))


def make_grid():
    return Topology(
        routers={f"R{i}" for i in range(1, 9)},
        links=[Link(a, b, 1, name) for a, b, name in GRID_LINKS],
    )


def brute_force_best(topo, src):
    """Every simple path from ``src``; per reachable vertex the minimum
    (cost, link-name sequence) and that path's vertices."""
    adj = topo.edges()
    best = {}
    stack = [(src, 0, (), (src,))]
    while stack:
        vertex, cost, names, path = stack.pop()
        if vertex not in best or (cost, names) < best[vertex][:2]:
            best[vertex] = (cost, names, path)
        for neighbor, weight, link in adj.get(vertex, []):
            if neighbor not in path:
                stack.append((neighbor, cost + weight, names + (link,), path + (neighbor,)))
    return best


def test_dijkstra_matches_brute_force_on_grid():
    topo = make_grid()
    prefix_of = {f"R{i}": parse_prefix(f"fcff:{i}::/32") for i in range(1, 9)}
    advertised = {p: r for r, p in prefix_of.items()}
    routes = routes_of(topo, advertised)
    for src, dst in itertools.permutations([f"R{i}" for i in range(1, 9)], 2):
        cost, names, _ = brute_force_best(topo, src)[dst]
        # walk the routes and accumulate the chosen path
        walked = []
        current = src
        while current != dst:
            nh, link = routes.next_hop(current, prefix_of[dst].network_address)
            walked.append(link)
            current = nh
        assert sum(1 for _ in walked) == cost, (src, dst)
        assert tuple(walked) == names, (src, dst)


def test_deterministic_tie_break_prefers_smaller_link_names():
    topo = make_grid()
    advertised = {parse_prefix("fcff:6::/32"): "R6"}
    routes = routes_of(topo, advertised)
    # R1->R6: via R2 (l12,l26) and via R5 (l15,l56) both cost 2
    assert routes.first_hop["R1"]["R6"] == ("R2", "l12")
    assert routes.next_hop("R1", parse_v6("fcff:6::1")) == ("R2", "l12")


def test_unreachable_origin_left_out():
    topo = Topology(routers={"R1", "R2", "R9"}, links=[Link("R1", "R2", 1, "l12")])  # R9 isolated
    advertised = {
        parse_prefix("fcff:2::/32"): "R2",
        parse_prefix("fcff:9::/32"): "R9",
    }
    routes = routes_of(topo, advertised)
    assert routes.first_hop["R1"] == {"R2": ("R2", "l12")}
    assert routes.first_hop["R9"] == {}
    assert routes.next_hop("R1", parse_v6("fcff:2::1")) == ("R2", "l12")
    assert routes.next_hop("R1", parse_v6("fcff:9::1")) is None
    assert routes.next_hop("R9", parse_v6("fcff:2::1")) is None


NESTED_SID = """\
name: nested
mode: bgp
families: [v6]
segment_mode: single
routers:
  - {name: R0, end_sid: "fcff:0::1"}
  - {name: R1, end_sid: "fcff:1::1"}
  - {name: R9, end_sid: "fcff:9::1"}
links:
  - {a: R0, b: R1, name: l01}
nodes:
  - {name: A, infra: "fd10::1000", router: R1, pod_prefix_v6: "fd90:a::/64",
     localsids: {DT6: "fcff:1:0:aa::1"}}
  - {name: B, infra: "fd11::1000", router: R9, pod_prefix_v6: "fd90:b::/64",
     localsids: {DT6: "fcff:0:0:bb::1"}}
pools:
  - {name: bsids, cidr: "cafe::/118", blockSize: 122}
bsid_pool: bsids
pods:
  - {name: pod-a, node: A, v6: "fd90:a::2"}
  - {name: pod-b, node: B, v6: "fd90:b::2"}
"""


def test_unreachable_sid_nested_in_a_reachable_block_drops_at_the_block():
    """B's End.DT6 SID lies in R0's /32, and B sits on the isolated R9. At A
    the SID's /128 is skipped as unreachable, so R0's /32 leads the packet to
    R0. There the /128 is still unreachable and R0's own /32 is skipped: "no
    route" at R0, not the longest match sending it on toward B."""
    sim = Simulation(load_scenario(NESTED_SID)).start()
    sid = parse_v6("fcff:0:0:bb::1")
    trace = sim.trace("pod-a", "pod-b")
    assert [(h.at, h.dst, h.action) for h in trace.hops] == [
        ("A", sid, "source"), ("R1", sid, "transit"), ("R0", sid, "transit"),
        ("R0", sid, "drop:no route"),
    ]


def test_negative_cost_rejected():
    """``Link`` trusts its cost: ``load_scenario`` refuses one below 1."""
    for cost in (0, -3):
        text = ("routers:\n  - {name: A, end_sid: 'fcff:1::1'}\n  - {name: B, end_sid: 'fcff:2::1'}\n"
                f"links:\n  - {{a: A, b: B, cost: {cost}, name: z}}\n")
        with pytest.raises(ValidationError,
                           match=re.escape(f"<scenario>.links[0]: link cost {cost} is not a positive integer")):
            load_scenario(text)
    assert load_scenario(text.replace("-3", "1")).links == [Link("A", "B", 1, "z")]


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
    routes = routes_of(topo, advertised)
    return topo, routes, dataplanes, src_dp


def test_forward_consumes_waypoints_and_delivers():
    topo, routes, dataplanes, src_dp = make_overlay()
    inner = InnerPacket(src=parse_addr("fd90::1"), dst=parse_addr("fd91::1"))
    outer = src_dp.h_encaps(parse_v6("cafe::9"))
    trace = forward_packet(topo, routes, "src", outer, inner.encode(), dataplanes)
    assert trace.delivered and trace.deliver_node == "dst"
    assert waypoints(trace) == ["R4", "R3"]
    assert trace.disposition.inner == inner
    assert "action=deliver" in trace.render()


def test_forward_drops_on_ttl_expiry():
    topo, routes, dataplanes, src_dp = make_overlay()
    outer = replace(src_dp.h_encaps(parse_v6("cafe::9")), hop_limit=2)
    walk = forward(topo, routes, "src", outer, dataplanes)
    assert walk.end.reason == "ttl" and walk.record(walk.end).disposition.reason == "ttl"


def test_forward_drops_without_route():
    topo, routes, dataplanes, src_dp = make_overlay()
    outer = src_dp.h_encaps(parse_v6("cafe::9"))
    stray = replace(outer, srh=Srh(next_header=41, segments_left=0,
                                   segment_list=(parse_v6("feee::1"),)))
    assert forward(topo, routes, "src", stray, dataplanes).end.reason == "no route"


# -- drawn scenarios -----------------------------------------------------------

@st.composite
def drawn_scenarios(draw):
    """A small bgp-mode scenario as YAML text: 2-8 routers, links of cost 1-3
    (ties are common) that may leave the graph disconnected, 2-4 nodes
    attached anywhere. Each node's localSID pool, and sometimes its infra
    address, nests inside some router's /32 SID block."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          unique=True, max_size=10))
    names = draw(st.permutations(range(len(pairs))))  # link names do not follow router order
    links = "".join(
        f'  - {{a: R{a}, b: R{b}, cost: {draw(st.integers(1, 3))}, name: l{name}}}\n'
        for (a, b), name in zip(pairs, names)
    )
    families = draw(st.sampled_from([["v4"], ["v6"], ["v4", "v6"]]))
    nodes, pools, pods = [], [], []
    for k in range(draw(st.integers(2, 4))):
        infra_block = draw(st.none() | st.integers(0, n - 1))
        infra = f"fd1{k}::1000" if infra_block is None else f"fcff:{infra_block}:0:{k}::1000"
        nodes.append(
            f'  - {{name: n{k}, infra: "{infra}", router: R{draw(st.integers(0, n - 1))}, '
            f'pod_prefix_v4: "10.{k}.0.0/24", pod_prefix_v6: "fd90:{k}::/64", '
            f'localsid_pool: sids-n{k}}}\n'
        )
        pools.append(f'  - {{name: sids-n{k}, cidr: "fcff:{draw(st.integers(0, n - 1))}:0:'
                     f'{k}aa::/64", blockSize: 122, nodeSelector: n{k}}}\n')
        pods.append(f'  - {{name: p{k}, node: n{k}, v4: "10.{k}.0.1", v6: "fd90:{k}::2"}}\n')
    routers = "".join(f'  - {{name: R{i}, end_sid: "fcff:{i}::1"}}\n' for i in range(n))
    return (
        f"name: drawn\nmode: bgp\nfamilies: {families}\n"
        f"segment_mode: {draw(st.sampled_from(['double', 'single']))}\n"
        f"routers:\n{routers}links:\n{links or '  []'}\nnodes:\n{''.join(nodes)}"
        f'pools:\n  - {{name: bsids, cidr: "cafe::/118", blockSize: 122}}\n{"".join(pools)}'
        f"bsid_pool: bsids\npods:\n{''.join(pods)}"
    )


class BruteForceUnderlay:
    """All-pairs best paths by enumeration and a linear longest-prefix scan
    over the advertised prefixes: the underlay ``compute_routes`` and
    ``forward`` must reproduce."""

    def __init__(self, sim):
        topo = sim.topology
        self.routers = topo.routers
        self.best = {v: brute_force_best(topo, v) for v in topo.routers | set(topo.attachments)}
        self.advertised = {r.sid_prefix: r.name for r in sim.scenario.routers}
        self.holder = {r.end_sid: r.name for r in sim.scenario.routers}
        for node in sim.scenario.nodes:
            self.advertised[IPv6Network((node.infra, 128))] = node.name
            for entry in sim.dataplanes[node.name].localsids.values():
                self.advertised[IPv6Network((entry.sid, 128))] = node.name
                self.holder[entry.sid] = node.name

    def origin(self, vertex, addr):
        """Origin of the longest advertised prefix holding ``addr`` that
        ``vertex`` can reach, its own prefixes left out; None if none."""
        held = [(p.prefixlen, o) for p, o in self.advertised.items()
                if addr in p and o != vertex and o in self.best[vertex]]
        return max(held)[1] if held else None

    def next_hop(self, vertex, addr):
        origin = self.origin(vertex, addr)
        if origin is None:
            return None
        _cost, names, path = self.best[vertex][origin]
        return path[1], names[0]

    def hops(self, source, segments):
        """``(vertex, dst, action)`` of each hop: the best path to each
        segment's holder in turn. Where the holder is out of reach, the best
        path to the origin of the longest prefix that is not, and "no route"
        where none is left."""
        hops = []
        current = source
        for i, seg in enumerate(segments):
            leg = [current]
            while leg[-1] != self.holder[seg] and (origin := self.origin(leg[-1], seg)):
                leg += self.best[leg[-1]][origin][2][1:]
                assert len(leg) < 64, leg
            # the leg's first vertex already has its hop, unless it is the source
            for v in leg[1 if i else 0:-1]:
                hops.append((v, seg, "transit" if hops else "source"))
            current = leg[-1]
            if current != self.holder[seg]:
                if len(leg) > 1 or not i:
                    hops.append((current, seg, "transit" if hops else "source"))
                return hops + [(current, seg, "drop:no route")]
            hops.append((current, seg, "end" if i + 1 < len(segments) else "deliver"))
        return hops


def _hops(trace):
    return [(h.at, h.dst, h.action) for h in trace.hops]


@settings(max_examples=200, deadline=None)
@given(drawn_scenarios())
def test_routes_and_traces_match_brute_force_on_drawn_scenarios(text):
    sim = Simulation(load_scenario(text)).start()
    oracle = BruteForceUnderlay(sim)
    routes = sim.current_routes()
    probes = [p.network_address for p in oracle.advertised]
    probes += [parse_v6(f"fcff:{r[1:]}:0:ffff::7") for r in sorted(oracle.routers)]  # no SID
    probes.append(parse_v6("2001:db8::1"))  # outside every prefix
    for vertex in oracle.best:
        for addr in probes:
            assert routes.next_hop(vertex, addr) == oracle.next_hop(vertex, addr), (vertex, addr)

    by_node = {pod.node: pod for pod in sim.scenario.pods}
    for (a, src), (b, dst) in itertools.permutations(sorted(by_node.items()), 2):
        for family in sorted(sim.scenario.families):
            probe = InnerPacket(src=src.addrs[family], dst=dst.addrs[family])
            flow, = run_vector(sim.dataplanes[a], [probe])
            assert flow.header is not None, (a, b, family)
            srh = flow.header.srh
            segments = srh.segment_list[srh.segments_left::-1]
            assert oracle.holder[segments[-1]] == b
            want = oracle.hops(a, segments)
            assert _hops(sim.trace(src.name, dst.name, family)) == want, (a, b, family)
            # the hop limit runs out at the h-th router the packet passes
            visits = [k for k, (v, _dst, action) in enumerate(want)
                      if v in oracle.routers and action in ("source", "transit", "end")]
            for h, k in enumerate(visits, 1):
                outer = replace(flow.header, hop_limit=h)
                walk = forward(sim.topology, routes, a, outer, sim.dataplanes)
                trace = walk.record(walk.end)  # a ttl drop: the header decides
                assert _hops(trace) == want[:k + 1] + [(want[k][0], want[k + 1][1], "drop:ttl")]
