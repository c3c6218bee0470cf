"""Emulated routed backbone: link-state route computation and hop-by-hop
forwarding of outer packets, with path tracing.

Route computation is Dijkstra over the router graph plus cluster-node
attachment edges; equal-cost ties are broken by the lexicographically
smallest sequence of link names, so the first link name decides.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache
from ipaddress import IPv6Address
from typing import Optional

from .dataplane import Disposition, LpmIndex, NodeDataplane
from .errors import SimError
from .net_types import OuterPacket, Prefix

MAX_TRACE_HOPS = 1024


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    cost: int
    name: str

    def __post_init__(self):
        if self.cost <= 0:
            raise SimError(f"link {self.name} must have positive cost")


@dataclass
class Topology:
    routers: set[str] = field(default_factory=set)
    links: list[Link] = field(default_factory=list)
    attachments: dict[str, str] = field(default_factory=dict)  # node -> router

    def attach(self, node: str, router: str) -> None:
        if router not in self.routers:
            raise SimError(f"attachment router {router} does not exist")
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


@dataclass(frozen=True)
class Hop:
    at: str
    dst: IPv6Address
    action: str  # source | transit | end | deliver | drop:<reason>


# Hops are immutable, so the packets of one flow share theirs.
_hop = lru_cache(maxsize=4096)(Hop)


@dataclass
class TraceRecord:
    hops: list[Hop] = field(default_factory=list)
    disposition: Optional[Disposition] = None
    deliver_node: Optional[str] = None

    @property
    def delivered(self) -> bool:
        return self.disposition is not None and self.disposition.kind == "deliver"

    @property
    def drop_reason(self) -> Optional[str]:
        if self.disposition is not None and self.disposition.kind == "drop":
            return self.disposition.reason
        return None

    def render(self) -> str:
        return "\n".join(
            f"hop {h.at} dst={h.dst} action={h.action}" for h in self.hops
        )


# RouteTable: router/node -> indexed prefix -> (neighbor, link name)
RouteTable = dict[str, LpmIndex]


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


def compute_routes(topology: Topology, advertised: dict[Prefix, str]) -> RouteTable:
    """Per-vertex next hops along minimum-cost paths to each prefix origin.

    A prefix whose origin is unreachable from a vertex is left out of that
    vertex's table, so packets to it drop there with "no route".
    """
    adj = topology.edges()
    table: RouteTable = {}
    for vertex in set(topology.routers) | set(topology.attachments):
        paths = _best_paths(adj, vertex)
        entry: dict[Prefix, tuple[str, str]] = {}
        for prefix, origin in advertised.items():
            if origin != vertex and origin in paths:
                entry[prefix] = paths[origin][2]
        table[vertex] = LpmIndex(entry)
    return table


def _settle(trace: TraceRecord, ending: Hop, disp: Disposition) -> TraceRecord:
    """End ``trace`` with a deliver or drop disposition at the vertex of
    ``ending``, the deliver hop there."""
    deliver = disp.kind == "deliver"
    trace.hops.append(ending if deliver else _hop(ending.at, ending.dst, f"drop:{disp.reason}"))
    trace.disposition = disp
    if deliver:
        trace.deliver_node = ending.at
    return trace


def forward(
    topology: Topology,
    routes: RouteTable,
    source: str,
    pkt: OuterPacket,
    dataplanes: dict[str, NodeDataplane],
    memo: Optional[dict] = None,
) -> TraceRecord:
    """Forward ``pkt`` hop by hop starting at ``source``.

    At each vertex, a destination matching a local SID executes its behavior;
    otherwise the packet follows the route table. Routers decrement the outer
    hop limit. Terminates with a deliver or drop disposition.

    ``memo`` maps an outer header (source, hop limit, and the SRH, which
    names the destination) to its first packet's walk: hops, consumed End
    entries, last packet, end and deliver hop. The walk, its SRH rewrites
    and its hops are built once per flow. Each later packet with that header
    replays it, counting the consumed entries; one that ended at a localSID
    runs it again on this packet's inner, which is all the work done per
    packet. A memo lives for
    one ``Simulation.ping`` call, in which routes and dataplanes stay fixed.
    ``memo=None`` is the plain-walk oracle.
    """
    key = (source, pkt.hop_limit, pkt.srh)
    flow = memo.get(key) if memo is not None else None
    if flow is not None:
        hops, consumed, last, end, ending = flow
        for entry in consumed:
            entry.rx_counter += 1
        if isinstance(end, NodeDataplane):
            end = end.process_local(OuterPacket(last.src, last.hop_limit, last.srh, pkt.inner))
        return _settle(TraceRecord(hops=list(hops)), ending, end)
    trace = TraceRecord()
    consumed: list = []
    current = source
    is_first = True
    for _ in range(MAX_TRACE_HOPS):
        dp = dataplanes.get(current)
        entry = dp.localsids.get(pkt.dst) if dp is not None else None
        if entry is not None:
            disp = dp.process_local(pkt)
            if disp.kind in ("drop", "deliver"):
                end = dp  # the inner decides: replays run this localSID again
                break
            consumed.append(entry)
            trace.hops.append(_hop(current, pkt.dst, "end"))
            pkt = disp.packet
        else:
            trace.hops.append(
                _hop(current, pkt.dst, "source" if is_first else "transit")
            )
        is_first = False
        if current in topology.routers:
            if pkt.hop_limit <= 1:
                disp = end = Disposition(kind="drop", reason="ttl")
                break
            pkt = OuterPacket(pkt.src, pkt.hop_limit - 1, pkt.srh, pkt.inner)
        table = routes.get(current)
        hit = table.lookup(pkt.dst) if table is not None else None
        if hit is None:
            disp = end = Disposition(kind="drop", reason="no route")
            break
        current = hit[1][0]
    else:
        raise SimError("forwarding did not terminate")
    ending = _hop(current, pkt.dst, "deliver")
    if memo is not None:
        memo[key] = (tuple(trace.hops), consumed, pkt, end, ending)
    return _settle(trace, ending, disp)


def waypoints(trace: TraceRecord) -> list[str]:
    """Ordered vertices at which a segment was consumed (Segments Left fell)."""
    return [h.at for h in trace.hops if h.action == "end"]
