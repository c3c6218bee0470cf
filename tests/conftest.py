import random
from ipaddress import IPv4Address, IPv6Address
from pathlib import Path

import pytest

from srv6sim.dataplane import Disposition

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def scenarios_dir() -> Path:
    return SCENARIOS


def random_v6(rng: random.Random) -> IPv6Address:
    return IPv6Address(rng.getrandbits(128))


def random_v4(rng: random.Random) -> IPv4Address:
    return IPv4Address(rng.getrandbits(32))


def scalar_tx(dp, packet):
    """The tx-path oracle for ``graph.run_vector``: one packet through
    steer -> H.Encaps -> FIB lookup, with no vector and no memo."""
    bsid = dp.steer_lookup(packet.dst)
    if bsid is None:
        return Disposition(kind="drop", reason="no steering match")
    outer = dp.h_encaps(packet, bsid)
    if dp.fib_lookup(outer.dst) is None:
        return Disposition(kind="drop", reason="no route")
    return Disposition(kind="forward", packet=outer)
