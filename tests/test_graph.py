import random
from collections import Counter
from ipaddress import IPv4Address, IPv6Address

import pytest

import srv6sim.sim
from srv6sim import dataplane
from srv6sim.cli import main
from srv6sim.dataplane import Disposition, NodeDataplane, SrPolicyEntry, SteeringRule
from srv6sim.graph import VECTOR_MAX, run_vector
from srv6sim.net_types import (
    InnerPacket,
    parse_addr,
    parse_prefix,
    parse_v6,
)
from srv6sim.scenario import load_scenario
from srv6sim.sim import Simulation
from srv6sim.underlay import waypoints

from conftest import scalar_tx, tx_flows


def make_dp():
    """fd90::/64 tunnels via fcff:1::1, which the FIB routes; fd91::/64 via
    fcee::1, which it does not; nothing steers fd99::/64."""
    dp = NodeDataplane("n")
    dp.set_encap_source(parse_v6("fd10::1000"))
    for bsid, first, match in (("cafe::1", "fcff:1::1", "fd90::/64"),
                               ("cafe::2", "fcee::1", "fd91::/64")):
        dp.install_policy(
            SrPolicyEntry(
                bsid=parse_v6(bsid),
                segments=(parse_v6(first), parse_v6("fcff:3::1")),
                family="v6",
            )
        )
        dp.install_steering(SteeringRule(parse_prefix(match), parse_v6(bsid)))
    dp.add_fib_route(parse_prefix("fcff::/16"), "uplink")
    return dp


def make_packet(rng):
    # half the packets are routed, a quarter have no route, a quarter no steering
    net = rng.choice(("fd90", "fd90", "fd91", "fd99"))
    dst = f"{net}::{rng.randrange(1, 200):x}"
    return InnerPacket(src=parse_addr("fd90::beef"), dst=parse_addr(dst), payload=b"p")


def test_vector_cap_enforced(monkeypatch, scenarios_dir):
    """``run_vector`` trusts its one producer, ``ping``, which splits a ping
    into vectors of 1 to VECTOR_MAX packets, the last one holding the rest.
    The CLI refuses a count below 1 (``test_ping_count_must_be_positive``)."""
    sim = Simulation(load_scenario(scenarios_dir / "basic.yaml")).start()
    sizes, real = [], srv6sim.sim.run_vector
    monkeypatch.setattr(srv6sim.sim, "run_vector",
                        lambda dp, vector: sizes.append(len(vector)) or real(dp, vector))
    for count in (1, VECTOR_MAX, VECTOR_MAX + 1, 2 * VECTOR_MAX + 3):
        sizes.clear()
        assert sim.ping("pod-master", "pod-worker2", count=count).delivered == count
        full, rest = divmod(count, VECTOR_MAX)
        assert sizes == [VECTOR_MAX] * full + [rest] * (rest > 0)


def test_empty_vector_rejected(monkeypatch, scenarios_dir, capsys):
    """No empty vector reaches ``run_vector``: the CLI refuses ``--count 0``
    before a simulation starts, and a library ``ping`` of 0 packets builds
    no vector and reports nothing sent."""
    path = str(scenarios_dir / "basic.yaml")
    assert main(["ping", "--scenario", path, "pod-master", "pod-worker2", "--count=0"]) == 2
    assert "--count 0 is not positive" in capsys.readouterr().err
    sim = Simulation(load_scenario(path)).start()
    vectors = []
    monkeypatch.setattr(srv6sim.sim, "run_vector", lambda dp, vector: vectors.append(vector))
    report = sim.ping("pod-master", "pod-worker2", count=0)
    assert vectors == []
    assert (report.sent, report.delivered, report.dropped) == (0, 0, 0)


def test_conservation_every_packet_gets_a_disposition():
    rng = random.Random(1)
    vec = [make_packet(rng) for _ in range(100)]
    flows = run_vector(make_dp(), vec)
    assert sum(len(flow.packets) for flow in flows) == 100
    assert {(flow.header is not None, flow.reason) for flow in flows} == {
        (True, None), (False, "no route"), (False, "no steering match"),
    }


def test_vector_equals_scalar_tx():
    rng = random.Random(2)
    dp = make_dp()
    vec = [make_packet(rng) for _ in range(64)]
    flows = run_vector(dp, vec)
    assert flows == tx_flows(dp, vec)
    assert {flow.reason for flow in flows} == {None, "no route", "no steering match"}


def test_disposition_multiset_independent_of_batching():
    rng = random.Random(4)
    packets = [make_packet(rng) for _ in range(300)]
    dp = make_dp()
    whole = Counter()
    for i in range(0, 300, 256):
        for flow in run_vector(dp, packets[i : i + 256]):
            for inner in flow.packets:
                whole[flow.header, flow.reason, inner if flow.header is not None else None] += 1
    single = Counter()
    for p in packets:
        disp, inner = scalar_tx(dp, p)
        single[disp.packet, disp.reason, inner] += 1
    assert whole == single


def test_one_flow_per_bsid_and_drop_reason():
    """The packets steered to one BSID share one header, and drops are kept
    with their reasons; each flow keeps its packets in vector order."""
    dp = make_dp()
    dsts = ("fd90::1", "fd90::2", "fd99::1", "fd90::1", "fd91::1", "fd91::2", "fd90::3")
    vector = [InnerPacket(src=parse_addr("fd90::beef"), dst=parse_addr(d), payload=b"%d" % i)
              for i, d in enumerate(dsts)]
    flows = run_vector(dp, vector)
    packets = [[vector[k].encode() for k in ks] for ks in ((0, 1, 3, 6), (2,), (4, 5))]
    assert [(f.header is not None, f.reason, f.packets) for f in flows] == [
        (True, None, packets[0]), (False, "no steering match", packets[1]),
        (False, "no route", packets[2]),
    ]
    assert flows[0].header.srh is dp.policies[parse_v6("cafe::1")._ip].srh


@pytest.mark.parametrize("family", ["v4", "v6"])
def test_long_ping_per_packet_floor_by_counts(monkeypatch, scenarios_dir, family):
    """The per-packet work of a 768-packet ping, pinned by counts: no
    ``InnerPacket`` goes through its dataclass ``__init__``, no address's
    ``.packed`` is read, and End.DT's ``decode_inner`` runs once per packet.
    ``Disposition.__init__`` runs only in the flow's one walk, once per End
    hop, as it does for a one-packet ping."""
    sim = Simulation(load_scenario(scenarios_dir / "full_cm.yaml")).start()
    counts = Counter()
    for cls in (InnerPacket, Disposition):
        def counted_init(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted_init)
    for cls in (IPv4Address, IPv6Address):
        def counted_packed(self, packed=cls.packed.fget, name=f"{cls.__name__}.packed"):
            counts[name] += 1
            return packed(self)
        monkeypatch.setattr(cls, "packed", property(counted_packed))
    decode = dataplane.decode_inner
    monkeypatch.setattr(dataplane, "decode_inner",
                        lambda data: counts.update(["decode_inner"]) or decode(data))
    hops = {}
    for count in (1, 768):
        counts.clear()
        report = sim.ping("pod-master", "pod-worker2", count=count, family=family)
        assert report.delivered == len(report.traces) == count
        hops[count] = counts.pop("Disposition")
        assert counts == {"decode_inner": count}
    assert hops[768] == hops[1] == len(waypoints(report.traces[0])) == 2
