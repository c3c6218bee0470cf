import random
import struct
from dataclasses import replace
from itertools import permutations
from ipaddress import IPv4Address, IPv6Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srv6sim import net_types
from srv6sim.dataplane import Behavior, LocalSidEntry, NodeDataplane, SrPolicyEntry
from srv6sim.errors import (
    AddrParseError,
    MalformedPacketError,
    TruncationError,
    UnsupportedTypeError,
    ValidationError,
)
from srv6sim.net_types import (
    InnerPacket,
    OuterPacket,
    Srh,
    decode_inner,
    decode_srh,
    encode_srh,
    family_of,
    parse_addr,
    parse_prefix,
    parse_v6,
)
from srv6sim.scenario import load_scenario
from srv6sim.sim import Simulation, _probe

from conftest import SCENARIOS, random_v4, random_v6


def test_parse_addr_families():
    assert family_of(parse_addr("10.0.0.1")) == "v4"
    assert family_of(parse_addr("fcff:3::1")) == "v6"
    assert parse_v6("FCFF:3::1") == IPv6Address("fcff:3::1")


def test_parse_addr_rejects_garbage():
    for bad in ("", "10.0.0.256", "fcff::g", "10.0.0.1/24"):
        with pytest.raises(AddrParseError):
            parse_addr(bad)
    with pytest.raises(AddrParseError):
        parse_v6("10.0.0.1")


def test_cached_parse_v6_raises_on_every_call():
    assert parse_v6("fcff:3::1") is parse_v6("fcff:3::1")
    for _ in range(2):
        with pytest.raises(AddrParseError):
            parse_v6("fcff::g")
        with pytest.raises(AddrParseError):
            parse_v6("10.0.0.1")


def test_parse_prefix_normalizes_noncanonical_base():
    assert str(parse_prefix("172.16.166.130/26")) == "172.16.166.128/26"


def test_srh_golden_bytes():
    # one-segment SRH around fcff:3::1
    h = Srh(next_header=41, segments_left=0, segment_list=(parse_v6("fcff:3::1"),))
    raw = encode_srh(h)
    assert raw == bytes(
        [41, 2, 4, 0, 0, 0, 0, 0]
        + [0xFC, 0xFF, 0, 3] + [0] * 11 + [1]
    )


def test_srh_size_law():
    sids = tuple(parse_v6(f"fcff:{i}::1") for i in range(1, 6))
    sizes = [len(encode_srh(Srh(41, 0, sids[:n]))) for n in range(1, 6)]
    assert sizes == [8 + 16 * n for n in range(1, 6)]


def test_srh_field_invariants():
    """``Srh`` checks nothing itself; its producers keep its fields in range.
    A policy's SRH holds its segments reversed, Segments Left at the first and
    the next header of its family; an End hop lowers Segments Left only above
    0. ``decode_srh`` refuses the rest (``test_decode_srh_rejects_bad_buffers``)."""
    sids = tuple(parse_v6(f"fcff:{i}::1") for i in range(1, 4))
    for family, next_header in (("v4", 4), ("v6", 41)):
        for n in range(1, 4):
            srh = SrPolicyEntry(parse_v6("cafe::1"), sids[:n], family).srh
            assert (srh.next_header, srh.segments_left, srh.last_entry) == (next_header, n - 1, n - 1)
            assert srh.segment_list == sids[n - 1::-1] and srh.active_segment == sids[0]
    dp = NodeDataplane("r")
    dp.install_localsid(LocalSidEntry(sid=sids[0], behavior=Behavior("End")))
    srh = SrPolicyEntry(parse_v6("cafe::1"), sids[:2], "v6").srh
    disp = dp.process_local(OuterPacket(parse_v6("fd10::1"), 64, srh))
    assert disp.kind == "forward" and disp.packet.srh.segments_left == 0
    last = Srh(next_header=41, segments_left=0, segment_list=(sids[0],))
    assert dp.process_local(OuterPacket(parse_v6("fd10::1"), 64, last)).reason == "no more segments"


def test_decode_srh_rejects_bad_buffers():
    good = encode_srh(Srh(41, 0, (parse_v6("fcff:1::1"),)))
    with pytest.raises(TruncationError):
        decode_srh(good[:-1])
    with pytest.raises(TruncationError):
        decode_srh(good[:4])
    bad_type = bytearray(good)
    bad_type[2] = 3  # routing type != 4
    with pytest.raises(UnsupportedTypeError):
        decode_srh(bytes(bad_type))
    two = encode_srh(Srh(41, 1, (parse_v6("fcff:1::1"), parse_v6("fcff:2::1"))))
    for offset, value, message in ((4, 0, "hdr_ext_len 4 inconsistent with last_entry 0"),
                                   (3, 2, "segments_left 2 > last_entry 1")):
        bad = bytearray(two)
        bad[offset] = value  # 3: segments_left, 4: last_entry
        with pytest.raises(MalformedPacketError, match=message):
            decode_srh(bytes(bad))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 8),
    nh=st.sampled_from([4, 41]),
    flags=st.integers(0, 255),
    tag=st.integers(0, 0xFFFF),
    data=st.data(),
)
def test_srh_roundtrip_property(n, nh, flags, tag, data):
    sids = tuple(
        IPv6Address(data.draw(st.integers(0, 2**128 - 1))) for _ in range(n)
    )
    sl = data.draw(st.integers(0, n - 1))
    h = Srh(next_header=nh, segments_left=sl, segment_list=sids, flags=flags, tag=tag)
    assert decode_srh(encode_srh(h)) == h


def test_inner_packet_roundtrip_both_families():
    rng = random.Random(1)
    for _ in range(50):
        for maker in (random_v4, random_v6):
            pkt = InnerPacket(
                src=maker(rng),
                dst=maker(rng),
                hop_limit=rng.randrange(256),
                payload=rng.randbytes(rng.randrange(64)),
            )
            assert decode_inner(pkt.encode()) == pkt


INNER_PACKETS = st.one_of(
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)).map(
        lambda pair: tuple(map(IPv4Address, pair))),
    st.tuples(st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1)).map(
        lambda pair: tuple(map(IPv6Address, pair))),
).flatmap(lambda addrs: st.builds(
    InnerPacket, src=st.just(addrs[0]), dst=st.just(addrs[1]),
    hop_limit=st.integers(0, 255), payload=st.binary(max_size=96)))


@settings(max_examples=300, deadline=None)
@given(INNER_PACKETS)
def test_decode_inner_needs_no_second_check(pkt):
    """``decode_inner`` builds its packet without ``InnerPacket``'s
    constructor, as its byte layout decides every field: both addresses come
    from one version's decoder. It inverts ``encode`` for both families and
    any payload, and every truncation or version nibble other than 4 and 6
    raises."""
    raw = pkt.encode()
    decoded = decode_inner(raw)
    assert decoded == pkt == replace(decoded)
    assert decoded.src.version == decoded.dst.version == pkt.src.version
    for cut in range(len(raw)):
        with pytest.raises((TruncationError, MalformedPacketError)):
            decode_inner(raw[:cut])
    for nibble in set(range(16)) - {4, 6}:
        with pytest.raises(MalformedPacketError):
            decode_inner(bytes([nibble << 4 | raw[0] & 0xF]) + raw[1:])


def packed_encoding(pkt: InnerPacket) -> bytes:
    """The oracle of ``InnerPacket.encode``: one ``struct.pack`` per packet
    over the addresses' ``.packed``, with no header cache."""
    src, dst, payload = pkt.src.packed, pkt.dst.packed, pkt.payload
    if pkt.src.version == 4:
        return struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + len(payload), 0, 0, pkt.hop_limit,
                           253, 0, src, dst) + payload
    return struct.pack("!IHBB16s16s", 6 << 28, len(payload), 253, pkt.hop_limit, src, dst) + payload


def truncation_message(data: bytes) -> str:
    with pytest.raises(TruncationError) as exc:
        decode_inner(data)
    return str(exc.value)


@pytest.mark.parametrize("scenario", ["full_bgp", "full_cm"])
def test_header_caches_equal_the_uncached_codec(scenario):
    """For every pod pair of the scenario, in both families, with payloads
    whose length crosses 10 and 100: ``encode`` equals the uncached
    ``struct.pack``, and ``decode_inner`` equals the packet built by the
    dataclass constructor, with its hash, and ``replace`` works on it. Once a
    header is in the decode cache, a packet cut short behind it, one longer
    than its length field says, and one whose length field was altered raise
    the same error as with an empty cache: the cache holds no error and
    skips no check."""
    sim = Simulation(load_scenario(SCENARIOS / f"{scenario}.yaml"))
    for src, dst in permutations(sim.pods.values(), 2):
        for family in ("v4", "v6"):
            for i in (9, 10, 100):
                probe = _probe(src, dst, family, i)
                built = InnerPacket(src=probe.src, dst=probe.dst, payload=f"ping-{i}".encode())
                raw = probe.encode()
                assert raw == built.encode() == packed_encoding(built)
                at = 2 if family == "v4" else 4  # where the length field is
                field = int.from_bytes(raw[at:at + 2], "big") + 1  # one byte too many
                altered = raw[:at] + field.to_bytes(2, "big") + raw[at + 2:]
                bad = (raw[:-1], raw + b"\0", altered)
                net_types._decoded_header.cache_clear()
                uncached = [truncation_message(data) for data in bad]
                decoded = decode_inner(raw)
                assert decoded == built == replace(decoded) and hash(decoded) == hash(built)
                assert decoded.src is probe.src and decoded.dst is probe.dst
                assert decode_inner(altered + b"\0").payload == built.payload + b"\0"
                for _ in range(2):  # every header of ``bad`` is cached now
                    assert [truncation_message(data) for data in bad] == uncached


def test_inner_packet_family_mismatch(scenarios_dir):
    """A ping's inner packets take both addresses from one family key of two
    pods, so ``InnerPacket`` checks no families: a pod address of the other
    family is refused where the scenario is read."""
    text = (scenarios_dir / "basic.yaml").read_text()
    bad = text.replace('v4: "172.16.231.1"', 'v4: "fd90:0:10::3"')
    with pytest.raises(ValidationError, match=r"pods\[0\]\.v4: fd90:0:10::3 is not an IPv4 address"):
        load_scenario(bad)
    sim = Simulation(load_scenario(text))
    for family in ("v4", "v6"):
        inner = _probe(sim.pods["pod-master"], sim.pods["pod-worker2"], family, 0)
        assert family_of(inner.src) == family_of(inner.dst) == family


def test_outer_packet_invariants():
    """The outer destination is the active segment. ``OuterPacket`` checks
    nothing itself: H.Encaps, its producer, sets the hop limit to 64 and the
    policy's SRH, whose next header names the inner's family."""
    first, last = parse_v6("fcff:1::1"), parse_v6("fcff:2::1")
    srh = Srh(next_header=41, segments_left=1, segment_list=(last, first))
    assert OuterPacket(src=parse_v6("fd10::1"), hop_limit=64, srh=srh).dst == first
    dp = NodeDataplane("n")
    dp.set_encap_source(parse_v6("fd10::1"))
    for family, next_header in (("v4", 4), ("v6", 41)):
        policy = SrPolicyEntry(parse_v6(f"cafe::{next_header}"), (first, last), family)
        dp.install_policy(policy)
        outer = dp.h_encaps(policy.bsid)
        assert (outer.src, outer.hop_limit, outer.dst) == (parse_v6("fd10::1"), 64, first)
        assert outer.srh is policy.srh and outer.srh.next_header == next_header
