"""Vector packet processing: a directed graph of dispatch nodes.

Execution is node-at-a-time: every packet of the current wave finishes a
node's dispatch before any successor node runs, and a vector never exceeds
256 packets. ``run_scalar`` is the one-packet oracle the vector path is
tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .dataplane import NodeDataplane
from .errors import GraphConfigError, SimError
from .net_types import InnerPacket, OuterPacket, encode_outer

VECTOR_MAX = 256


@dataclass
class PacketWork:
    """Mutable per-packet work item carried through the graph."""

    index: int
    inner: Optional[InnerPacket] = None
    outer: Optional[OuterPacket] = None
    bsid: Optional[object] = None


@dataclass(frozen=True)
class GraphDisposition:
    """Terminal fate of one packet."""

    kind: str  # tx | deliver | drop
    outer: Optional[OuterPacket] = None
    inner: Optional[InnerPacket] = None
    next_hop: Optional[str] = None
    table_id: Optional[int] = None
    reason: Optional[str] = None
    index: int = -1  # position in the packet vector

    def wire_bytes(self) -> bytes:
        if self.outer is not None:
            return encode_outer(self.outer)
        if self.inner is not None:
            return self.inner.encode()
        return b""


# A dispatch function maps the node's sub-vector to, per packet, either
# (successor_name, work_item) or (None, GraphDisposition).
DispatchFn = Callable[[list[PacketWork]], list[tuple[Optional[str], object]]]


@dataclass
class GraphNode:
    name: str
    dispatch: DispatchFn


@dataclass
class Graph:
    nodes: dict[str, GraphNode] = field(default_factory=dict)
    entry: str = ""

    def add(self, node: GraphNode) -> None:
        self.nodes[node.name] = node


def run_vector(g: Graph, vector: list[PacketWork]) -> list[GraphDisposition]:
    """Process ``vector`` wave by wave; returns one disposition per packet."""
    if not vector:
        raise SimError("empty packet vector")
    if len(vector) > VECTOR_MAX:
        raise SimError(f"vector of {len(vector)} exceeds the {VECTOR_MAX} cap")
    if g.entry not in g.nodes:
        raise GraphConfigError(f"graph entry {g.entry!r} does not exist")
    for i, item in enumerate(vector):
        item.index = i
    results: dict[int, GraphDisposition] = {}
    wave: dict[str, list[PacketWork]] = {g.entry: list(vector)}
    while wave:
        next_wave: dict[str, list[PacketWork]] = {}
        for name, items in wave.items():
            node = g.nodes.get(name)
            if node is None:
                raise GraphConfigError(f"graph node {name!r} does not exist")
            out = node.dispatch(items)
            for successor, value in out:
                if successor is None:
                    results[value.index] = value
                else:
                    next_wave.setdefault(successor, []).append(value)
        wave = next_wave
    if len(results) != len(vector):
        missing = len(vector) - len(results)
        raise GraphConfigError(f"{missing} packets never reached a terminal")
    return [results[i] for i in range(len(vector))]


def run_scalar(g: Graph, packet: PacketWork) -> GraphDisposition:
    """Identical semantics to running a one-packet vector."""
    return run_vector(g, [packet])[0]


def _terminal(item: PacketWork, **kwargs) -> tuple[None, GraphDisposition]:
    return (None, GraphDisposition(index=item.index, **kwargs))


def build_tx_pipeline(dp: NodeDataplane, steering_cache: bool = False) -> Graph:
    """Pod-tx path: classify/steer -> h-encaps -> fib-lookup -> link-tx.

    With ``steering_cache`` the first packet of a wave seeds a per-wave
    memoization of steering lookups keyed by destination; correctness must
    be unaffected.
    """

    def classify(items):
        out = []
        cache: dict = {}
        for item in items:
            dst = item.inner.dst
            if steering_cache and dst in cache:
                bsid = cache[dst]
            else:
                bsid = dp.steer_lookup(dst)
                if steering_cache:
                    cache[dst] = bsid
            if bsid is None:
                out.append(_terminal(item, kind="drop", reason="no steering match"))
            else:
                item.bsid = bsid
                out.append(("h-encaps", item))
        return out

    def h_encaps(items):
        out = []
        for item in items:
            item.outer = dp.h_encaps(item.inner, item.bsid)
            out.append(("fib-lookup", item))
        return out

    def fib_lookup(items):
        out = []
        for item in items:
            nh = dp.fib_lookup(item.outer.dst)
            if nh is None:
                out.append(_terminal(item, kind="drop", reason="no route"))
            else:
                item.bsid = nh  # reuse the slot to carry the next hop
                out.append(("link-tx", item))
        return out

    def link_tx(items):
        return [
            _terminal(item, kind="tx", outer=item.outer, next_hop=item.bsid)
            for item in items
        ]

    g = Graph(entry="classify")
    g.add(GraphNode("classify", classify))
    g.add(GraphNode("h-encaps", h_encaps))
    g.add(GraphNode("fib-lookup", fib_lookup))
    g.add(GraphNode("link-tx", link_tx))
    return g


def build_rx_pipeline(dp: NodeDataplane) -> Graph:
    """Receive path: srv6-localsid-lookup dispatching on the bound behavior."""

    def localsid_lookup(items):
        out = []
        for item in items:
            pkt = item.outer
            if pkt.dst not in dp.localsids:
                out.append(_terminal(item, kind="drop", reason="not a localSID"))
                continue
            disp = dp.process_local(pkt)
            if disp.kind in ("forward", "forward_via"):
                out.append(
                    _terminal(
                        item,
                        kind="tx",
                        outer=disp.packet,
                        next_hop=str(disp.next_hop) if disp.next_hop else None,
                    )
                )
            elif disp.kind == "deliver":
                out.append(
                    _terminal(
                        item, kind="deliver", inner=disp.inner, table_id=disp.table_id
                    )
                )
            else:
                out.append(_terminal(item, kind="drop", reason=disp.reason))
        return out

    g = Graph(entry="srv6-localsid-lookup")
    g.add(GraphNode("srv6-localsid-lookup", localsid_lookup))
    return g


def bench_dispatch(g: Graph, packets: list[PacketWork], batch: int) -> dict:
    """Wall-clock throughput of the pipeline at the given batch size.

    Report only; no speedup ratio is asserted.
    """
    if not packets:
        raise SimError("bench requires at least one packet")
    if batch not in (1, VECTOR_MAX):
        raise SimError(f"batch must be 1 or {VECTOR_MAX}")
    start = time.perf_counter()
    dropped = 0
    for i in range(0, len(packets), batch):
        chunk = packets[i : i + batch]
        for disp in run_vector(g, chunk):
            if disp.kind == "drop":
                dropped += 1
    seconds = time.perf_counter() - start
    return {
        "batch": batch,
        "packets": len(packets),
        "seconds": seconds,
        "pps": len(packets) / seconds if seconds > 0 else float("inf"),
        "dropped": dropped,
    }


def render_bench_csv(rows: list[dict]) -> str:
    lines = ["batch,packets,seconds,pps"]
    for row in rows:
        lines.append(
            f"{row['batch']},{row['packets']},{row['seconds']:.6f},{row['pps']:.1f}"
        )
    return "\n".join(lines)
