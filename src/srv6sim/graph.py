"""Vector packet processing on a node's pod-tx path.

``run_vector`` takes up to 256 inner packets leaving one node, in the
per-node vector idiom of VPP, and takes each through steer -> H.Encaps ->
FIB lookup. Header work is done once per flow: steering and the FIB are
looked up once per destination in the vector, and H.Encaps reuses the SRH
its policy got when it was installed. Per packet, only the inner is encoded
and wrapped. Each packet leaves as a ``Disposition``: ``forward`` with its
outer packet, or ``drop`` with a reason. ``underlay.forward`` walks the
later hops once per outer header in a ping and replays that walk for the
other packets (its flow memo). The per-packet oracle is ``scalar_tx`` in
``tests/conftest.py``.
"""

from __future__ import annotations

from .dataplane import Disposition, NodeDataplane
from .errors import SimError
from .net_types import InnerPacket

VECTOR_MAX = 256
_UNSEEN = object()


def run_vector(dp: NodeDataplane, vector: list[InnerPacket]) -> list[Disposition]:
    """Steer, encapsulate and route ``vector``; one disposition per packet,
    in vector order."""
    if not vector:
        raise SimError("empty packet vector")
    if len(vector) > VECTOR_MAX:
        raise SimError(f"vector of {len(vector)} exceeds the {VECTOR_MAX} cap")
    # The dataplane cannot change while one vector runs; a run of packets to
    # one destination object reuses its route without hashing the address.
    routed: dict = {}  # inner dst -> [BSID, FIB next hop of its outer dst]
    last = route = None
    out = []
    for inner in vector:
        if inner.dst is not last:
            last = inner.dst
            route = routed.get(last)
            if route is None:
                route = routed[last] = [dp.steer_lookup(last), _UNSEEN]
        if route[0] is None:
            out.append(Disposition(kind="drop", reason="no steering match"))
            continue
        outer = dp.h_encaps(inner, route[0])
        if route[1] is _UNSEEN:
            route[1] = dp.fib_lookup(outer.dst)
        if route[1] is None:
            out.append(Disposition(kind="drop", reason="no route"))
        else:
            out.append(Disposition(kind="forward", packet=outer))
    return out
