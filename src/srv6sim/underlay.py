"""Emulated routed backbone: link-state route computation and hop-by-hop
forwarding of outer packets, with path tracing.

Routes are one prefix -> origin index plus a first-hop matrix computed once
per simulation, as the topology is fixed: Dijkstra over the router graph plus
cluster-node attachment edges, with equal-cost ties broken by the
lexicographically smallest sequence of link names, so the first link name
decides.

``forward`` walks an outer header, once per flow. A packet's trace is its
flow's walk ended by that packet's disposition (``Walk.record``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from ipaddress import IPv6Address
from typing import NamedTuple, Optional, Union

from .dataplane import Disposition, LocalSidEntry, LpmIndex, NodeDataplane
from .net_types import OuterPacket


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    cost: int
    name: str


@dataclass
class Topology:
    routers: set[str] = field(default_factory=set)
    links: list[Link] = field(default_factory=list)
    attachments: dict[str, str] = field(default_factory=dict)  # node -> router

    def attach(self, node: str, router: str) -> None:
        self.attachments[node] = router

    def edges(self) -> dict[str, list[tuple[str, int, str]]]:
        """Adjacency over routers and attached cluster nodes."""
        adj: dict[str, list[tuple[str, int, str]]] = {r: [] for r in self.routers}
        for link in self.links:
            adj.setdefault(link.a, []).append((link.b, link.cost, link.name))
            adj.setdefault(link.b, []).append((link.a, link.cost, link.name))
        for node, router in self.attachments.items():
            name = f"att-{node}"
            adj.setdefault(node, []).append((router, 1, name))
            adj[router].append((node, 1, name))
        return adj


class Hop(NamedTuple):  # immutable, so the packets of one flow share theirs
    at: str
    dst: IPv6Address
    action: str  # source | transit | end | deliver | drop:<reason>


@dataclass
class TraceRecord:
    hops: list[Hop] = field(default_factory=list)
    disposition: Optional[Disposition] = None
    deliver_node: Optional[str] = None

    @property
    def delivered(self) -> bool:
        return self.disposition is not None and self.disposition.kind == "deliver"

    def render(self) -> str:
        return "\n".join(
            f"hop {h.at} dst={h.dst} action={h.action}" for h in self.hops
        )


class Routes(NamedTuple):
    """Where each advertised prefix lives and how to reach each vertex."""

    prefixes: LpmIndex  # advertised prefix -> origin vertex
    first_hop: dict[str, dict[str, tuple[str, str]]]  # vertex -> origin -> (neighbor, link)

    def next_hop(self, vertex: str, addr: IPv6Address) -> Optional[tuple[str, str]]:
        """``(neighbor, link name)`` toward the longest prefix holding ``addr``
        whose origin ``vertex`` can reach, itself excluded, or None: a shorter
        prefix matches where a longer one's origin is out of reach."""
        hops = self.first_hop.get(vertex, {})
        hit = self.prefixes.lookup(addr, among=hops)
        return hops[hit[1]] if hit is not None else None


def _best_paths(adj: dict, source: str) -> dict[str, tuple]:
    """Dijkstra from ``source``; value is (cost, link-name path, first hop)."""
    best: dict[str, tuple] = {source: (0, (), None)}
    heap = [(0, (), source, None)]
    while heap:
        cost, names, vertex, first = heapq.heappop(heap)
        if (cost, names) > best[vertex][:2]:
            continue  # stale heap entry
        for neighbor, weight, link_name in adj.get(vertex, []):
            cand = (cost + weight, names + (link_name,))
            prev = best.get(neighbor)
            if prev is None or cand < prev[:2]:
                hop = first if first is not None else (neighbor, link_name)
                best[neighbor] = (cand[0], cand[1], hop)
                heapq.heappush(heap, (cand[0], cand[1], neighbor, hop))
    return best


def compute_routes(topology: Topology) -> dict[str, dict[str, tuple[str, str]]]:
    """First hops along minimum-cost paths: ``[vertex][origin]`` is the
    ``(neighbor, link name)`` to leave ``vertex`` by. A vertex has no entry
    for itself or for an origin it cannot reach."""
    adj = topology.edges()
    return {
        vertex: {origin: path[2] for origin, path in _best_paths(adj, vertex).items()
                 if origin != vertex}
        for vertex in set(topology.routers) | set(topology.attachments)
    }


@dataclass
class Walk:
    """One walk of an outer header: its hops up to the vertex ``at``, where it
    ended with destination ``dst``; every localSID entry it hit, in order; and
    its end, the End.DT entry whose ``decap`` then decides each packet, or the
    disposition that the header decided."""

    hops: list[Hop]
    consumed: list[LocalSidEntry]
    end: Union[LocalSidEntry, Disposition]
    at: str
    dst: IPv6Address
    _tails: dict = field(default_factory=dict)  # drop reason, None to deliver -> hops

    def record(self, disp: Disposition) -> TraceRecord:
        """The trace of a packet of this walk that ended in ``disp``. The traces
        of packets that end alike share one hop list."""
        reason = disp.reason
        hops = self._tails.get(reason)
        if hops is None:
            action = "deliver" if reason is None else f"drop:{reason}"
            hops = self._tails[reason] = self.hops + [Hop(self.at, self.dst, action)]
        return TraceRecord(hops, disp, self.at if reason is None else None)


def forward(topology: Topology, routes: Routes, source: str, pkt: OuterPacket,
            dataplanes: dict[str, NodeDataplane]) -> Walk:
    """Walk the outer header ``pkt`` hop by hop, starting at ``source``.

    At each vertex, a destination matching a local SID executes the part of
    its behavior that the header decides; otherwise the packet follows
    ``routes``. Routers decrement the outer hop limit. The walk ends at an
    End.DT SID with no segments left, or with a drop. No inner bytes take
    part, so the packets of one flow share one walk.

    The walk of a header with hop limit h >= 1 (64 from H.Encaps) visits at
    most 2h + 1 vertices: links join only routers, a cluster node's one link
    goes to its router, and each router visit lowers the hop limit or drops.
    """
    hops: list[Hop] = []
    consumed: list = []  # every localSID entry the walk hits
    current = source
    while True:
        dp = dataplanes.get(current)
        entry = dp.localsids.get(pkt.dst._ip) if dp is not None else None
        if entry is not None:
            end = dp.process_local(pkt)
            consumed.append(entry)
            if end is entry or end.kind != "forward":
                break
            hops.append(Hop(current, pkt.dst, "end"))
            pkt = end.packet
        else:
            hops.append(Hop(current, pkt.dst, "transit" if hops else "source"))
        if current in topology.routers:
            if pkt.hop_limit <= 1:
                end = Disposition(kind="drop", reason="ttl")
                break
            pkt = OuterPacket(pkt.src, pkt.hop_limit - 1, pkt.srh)
        hit = routes.next_hop(current, pkt.dst)
        if hit is None:
            end = Disposition(kind="drop", reason="no route")
            break
        current = hit[0]
    return Walk(hops, consumed, end, current, pkt.dst)


def waypoints(trace: TraceRecord) -> list[str]:
    """Ordered vertices at which a segment was consumed (Segments Left fell)."""
    return [h.at for h in trace.hops if h.action == "end"]
