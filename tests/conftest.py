import random
import sys
from collections import Counter
from ipaddress import IPv4Address, IPv6Address
from pathlib import Path
from types import SimpleNamespace

import pytest

from srv6sim.dataplane import OUTER_HOP_LIMIT, Disposition
from srv6sim.net_types import (
    PROTO_IPV4_ENCAP,
    PROTO_IPV6_ENCAP,
    OuterPacket,
    Srh,
)

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


def random_v6(rng: random.Random) -> IPv6Address:
    return IPv6Address(rng.getrandbits(128))


def random_v4(rng: random.Random) -> IPv4Address:
    return IPv4Address(rng.getrandbits(32))


def scalar_tx(dp, packet):
    """The tx-path oracle for ``graph.run_vector``: one packet through
    steer -> H.Encaps -> FIB lookup, with no vector and no memo. The SRH is
    built here from the installed policy, not taken from the dataplane's
    stored header, so a stale header shows as a difference."""
    bsid = dp.steer_lookup(packet.dst)
    if bsid is None:
        return Disposition(kind="drop", reason="no steering match")
    policy = dp.policies[bsid]
    assert packet.family == policy.family and dp.encap_source is not None
    srh = Srh(
        next_header=PROTO_IPV4_ENCAP if policy.family == "v4" else PROTO_IPV6_ENCAP,
        segments_left=len(policy.segments) - 1,
        segment_list=tuple(reversed(policy.segments)),
    )
    outer = OuterPacket(src=dp.encap_source, hop_limit=OUTER_HOP_LIMIT, srh=srh,
                        inner=packet.encode())
    assert outer.dst == policy.segments[0]
    if dp.fib_lookup(outer.dst) is None:
        return Disposition(kind="drop", reason="no route")
    return Disposition(kind="forward", packet=outer)
