"""Vector packet processing on a node's pod-tx path.

``run_vector`` takes up to 256 inner packets leaving one node and runs each
stage over the whole vector before the next (steer -> H.Encaps -> FIB
lookup), the per-node vector idiom of VPP. Each packet leaves as a
``Disposition``: ``forward`` with its outer packet, or ``drop`` with a
reason. ``underlay.forward`` walks the later hops once per outer header in a
ping and replays that walk for the other packets (its flow memo). The
per-packet oracle is ``scalar_tx`` in ``tests/conftest.py``.
"""

from __future__ import annotations

from .dataplane import Disposition, NodeDataplane
from .errors import SimError
from .net_types import InnerPacket

VECTOR_MAX = 256


def run_vector(dp: NodeDataplane, vector: list[InnerPacket]) -> list[Disposition]:
    """Steer, encapsulate and route ``vector``; one disposition per packet,
    in vector order."""
    if not vector:
        raise SimError("empty packet vector")
    if len(vector) > VECTOR_MAX:
        raise SimError(f"vector of {len(vector)} exceeds the {VECTOR_MAX} cap")
    # Steering is memoised per destination: the dataplane cannot change
    # while one vector runs.
    steered: dict = {}
    for inner in vector:
        if inner.dst not in steered:
            steered[inner.dst] = dp.steer_lookup(inner.dst)
    bsids = [steered[inner.dst] for inner in vector]
    outers = [
        None if bsid is None else dp.h_encaps(inner, bsid)
        for inner, bsid in zip(vector, bsids)
    ]
    next_hops = [None if outer is None else dp.fib_lookup(outer.dst) for outer in outers]
    out = []
    for outer, next_hop in zip(outers, next_hops):
        if outer is None:
            out.append(Disposition(kind="drop", reason="no steering match"))
        elif next_hop is None:
            out.append(Disposition(kind="drop", reason="no route"))
        else:
            out.append(Disposition(kind="forward", packet=outer))
    return out
