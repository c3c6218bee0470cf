import random
import sys
from collections import Counter
from ipaddress import IPv4Address, IPv4Network, IPv6Address, IPv6Network
from pathlib import Path
from types import SimpleNamespace

import pytest

from srv6sim import dataplane
from srv6sim.dataplane import Disposition, LocalSidEntry
from srv6sim.graph import VECTOR_MAX
from srv6sim.net_types import (
    PROTO_IPV4_ENCAP,
    PROTO_IPV6_ENCAP,
    OuterPacket,
    Srh,
    family_of,
)
from srv6sim.sim import PingReport, _probe
from srv6sim.underlay import forward

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def scenarios_dir() -> Path:
    return SCENARIOS


@pytest.fixture
def address_eq(monkeypatch) -> SimpleNamespace:
    """Counts ``IPv4Address.__eq__`` and ``IPv6Address.__eq__`` calls in
    ``.calls``, and by calling function in ``.callers``; set ``.calls`` to 0
    to start a new count. ``!=`` counts too, as it falls back to ``__eq__``."""
    counter = SimpleNamespace(calls=0, callers=Counter())
    for cls in (IPv4Address, IPv6Address):
        def counted(a, b, eq=cls.__eq__):
            counter.calls += 1
            counter.callers[sys._getframe(1).f_code.co_name] += 1
            return eq(a, b)
        monkeypatch.setattr(cls, "__eq__", counted)
    return counter


def _count_hashes(monkeypatch, classes) -> SimpleNamespace:
    """Counts the ``__hash__`` calls of ``classes`` in ``.calls``, and by the
    calling function's file and name in ``.callers``, as in
    ``("agent.py", "on_step1")``; a dict or set operation counts under the
    function that runs it, and one in a comprehension or a lambda under the
    function that runs that. Set ``.calls`` to 0 to start a new count."""
    counter = SimpleNamespace(calls=0, callers=Counter())
    for cls in classes:
        def counted(a, hash_=cls.__hash__):
            counter.calls += 1
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<") and frame.f_back is not None:
                frame = frame.f_back  # <dictcomp>, <lambda> and the like
            code = frame.f_code
            counter.callers[Path(code.co_filename).name, code.co_name] += 1
            return hash_(a)
        monkeypatch.setattr(cls, "__hash__", counted)
    return counter


@pytest.fixture
def address_hash(monkeypatch) -> SimpleNamespace:
    """Counts ``IPv4Address.__hash__`` and ``IPv6Address.__hash__`` calls, as
    ``_count_hashes`` does."""
    return _count_hashes(monkeypatch, (IPv4Address, IPv6Address))


@pytest.fixture
def prefix_hash(monkeypatch) -> SimpleNamespace:
    """Counts ``IPv4Network.__hash__`` and ``IPv6Network.__hash__`` calls, as
    ``_count_hashes`` does."""
    return _count_hashes(monkeypatch, (IPv4Network, IPv6Network))


def random_v6(rng: random.Random) -> IPv6Address:
    return IPv6Address(rng.getrandbits(128))


def random_v4(rng: random.Random) -> IPv4Address:
    return IPv4Address(rng.getrandbits(32))


def scalar_tx(dp, packet):
    """The tx-path oracle for ``graph.run_vector``: one packet through
    steer -> H.Encaps -> FIB lookup, with no vector and no flow. Returns its
    disposition and, for a forwarded packet, the inner bytes that travel with
    the outer header (None for a drop). The SRH is built here from the
    installed policy, not taken from the dataplane's stored header, so a
    stale header shows as a difference."""
    bsid = dp.steer_lookup(packet.dst)
    if bsid is None:
        return Disposition(kind="drop", reason="no steering match"), None
    policy = dp.policies[bsid._ip]
    assert family_of(packet.src) == policy.family and dp.encap_source is not None
    srh = Srh(
        next_header=PROTO_IPV4_ENCAP if policy.family == "v4" else PROTO_IPV6_ENCAP,
        segments_left=len(policy.segments) - 1,
        segment_list=tuple(reversed(policy.segments)),
    )
    outer = OuterPacket(src=dp.encap_source, hop_limit=dataplane.OUTER_HOP_LIMIT, srh=srh)
    assert outer.dst == policy.segments[0]
    if dp.fib_lookup(outer.dst) is None:
        return Disposition(kind="drop", reason="no route"), None
    return Disposition(kind="forward", packet=outer), packet.encode()


def tx_flows(dp, vector) -> list:
    """The flows ``run_vector(dp, vector)`` must return, from ``scalar_tx``:
    each packet's result, grouped by the BSID that steers it (None for none)
    in first-seen order, as ``(outer header, drop reason, inner bytes in
    vector order)``. A BSID's packets leave alike; two BSIDs may give equal
    headers or drop for one reason, and still make two flows."""
    groups: dict = {}
    for packet in vector:
        disp, _inner = scalar_tx(dp, packet)
        header, reason, packets = groups.setdefault(
            dp.steer_lookup(packet.dst), (disp.packet, disp.reason, []))
        assert (header, reason) == (disp.packet, disp.reason), packet
        packets.append(packet.encode())
    return list(groups.values())


def forward_packet(topology, routes, source, outer, inner, dataplanes):
    """One packet through the underlay: the walk of its outer header, then
    End.DT's ``decap`` of its ``inner`` bytes where the walk ended at one."""
    walk = forward(topology, routes, source, outer, dataplanes)
    end = walk.end
    return walk.record(end.decap(inner) if isinstance(end, LocalSidEntry) else end)


def twin_ping(sim, src_pod, dst_pod, count=4, family="v6") -> PingReport:
    """The per-packet oracle of ``Simulation.ping``: each packet through
    ``scalar_tx``, then its own walk, then ``decap``, with ping's accounting."""
    src, dst = sim.pods[src_pod], sim.pods[dst_pod]
    report = PingReport(src_pod=src_pod, dst_pod=dst_pod, family=family, sent=count)
    if src.node == dst.node:
        report.delivered = count
        return report
    for i in range(count):
        disp, inner = scalar_tx(sim.dataplanes[src.node], _probe(src, dst, family, i % VECTOR_MAX))
        if disp.kind == "forward":
            trace = forward_packet(sim.topology, sim.current_routes(), src.node, disp.packet,
                                   inner, sim.dataplanes)
            report.traces.append(trace)
            sim.traces_forwarded += 1
            disp = trace.disposition
            if trace.deliver_node == dst.node and disp.inner.dst == dst.addrs[family]:
                report.delivered += 1
                continue
        report.dropped += 1
        report.drop_reasons.append(disp.reason or "misdelivered")
    if report.delivered:
        sim.tunnel_counts[f"{src.node}->{dst.node}/{family}"] += report.delivered
    return report
