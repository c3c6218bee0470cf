"""Vector packet processing on a node's pod-tx path.

``run_vector`` takes up to 256 inner packets leaving one node, in the per-node
vector idiom of VPP, and takes each through steer -> H.Encaps -> FIB lookup.
Header work is done once per flow: steering is looked up once per destination
in the vector, and H.Encaps and the FIB once per BSID, whose policy got its
SRH when it was installed. Per packet, only the payload is joined to the
inner's fixed header, built once per flow and payload length. The packets
leave as flows: the inner bytes behind one outer header, or dropped with one
reason. ``Simulation.ping`` walks each header through the underlay once and
runs End.DT's ``decap`` per packet, which reads each fixed header once. The
per-packet oracle is ``scalar_tx`` in ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .dataplane import NodeDataplane
from .net_types import InnerPacket, OuterPacket

VECTOR_MAX = 256


class Flow(NamedTuple):
    """Packets of one vector that leave alike: behind one outer ``header``, or
    dropped for one ``reason``. ``packets`` are their inner bytes in vector
    order."""

    header: Optional[OuterPacket]
    reason: Optional[str]
    packets: list


def run_vector(dp: NodeDataplane, vector: list[InnerPacket]) -> list[Flow]:
    """Steer, encapsulate and route ``vector``; its flows, in first-seen order."""
    # The dataplane cannot change while one vector runs; a run of packets to
    # one destination object reuses its flow without hashing the address.
    flows: dict = {}  # BSID, None for no steering match -> its flow
    of_dst: dict = {}  # inner dst -> its flow
    last = packets = None
    for inner in vector:
        if inner.dst is not last:
            last = inner.dst
            flow = of_dst.get(last)
            if flow is None:
                flow = of_dst[last] = _flow(dp, flows, last)
            packets = flow.packets
        packets.append(inner.encode())
    return list(flows.values())


def _flow(dp: NodeDataplane, flows: dict, dst) -> Flow:
    """The flow of the packets to ``dst``, made when its BSID is first seen."""
    bsid = dp.steer_lookup(dst)
    if bsid not in flows:
        if bsid is None:
            flows[bsid] = Flow(None, "no steering match", [])
        else:
            header = dp.h_encaps(bsid)
            routed = dp.fib_lookup(header.dst) is not None
            flows[bsid] = Flow(header, None, []) if routed else Flow(None, "no route", [])
    return flows[bsid]
