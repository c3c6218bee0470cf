import random
from dataclasses import replace
from ipaddress import IPv4Address, IPv6Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srv6sim.errors import (
    AddrParseError,
    FamilyMismatchError,
    MalformedPacketError,
    TruncationError,
    UnsupportedTypeError,
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

from conftest import random_v4, random_v6


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
    sid = parse_v6("fcff:1::1")
    with pytest.raises(MalformedPacketError):
        Srh(next_header=41, segments_left=1, segment_list=(sid,))
    with pytest.raises(MalformedPacketError):
        Srh(next_header=41, segments_left=0, segment_list=())
    with pytest.raises(MalformedPacketError):
        Srh(next_header=300, segments_left=0, segment_list=(sid,))


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
    """``decode_inner`` skips ``InnerPacket``'s check, as its byte layout
    guarantees it: it inverts ``encode`` for both families and any payload,
    and every truncation or version nibble other than 4 and 6 still raises."""
    raw = pkt.encode()
    decoded = decode_inner(raw)
    assert decoded == pkt and decoded.family == pkt.family
    assert replace(decoded) == decoded  # the skipped checks pass
    for cut in range(len(raw)):
        with pytest.raises((TruncationError, MalformedPacketError)):
            decode_inner(raw[:cut])
    for nibble in set(range(16)) - {4, 6}:
        with pytest.raises(MalformedPacketError):
            decode_inner(bytes([nibble << 4 | raw[0] & 0xF]) + raw[1:])


def test_inner_packet_family_mismatch():
    with pytest.raises(FamilyMismatchError):
        InnerPacket(src=parse_addr("10.0.0.1"), dst=parse_addr("fc00::1"))


def test_outer_packet_invariants():
    """The outer destination is the active segment; the SRH names the inner's family."""
    first, last = parse_v6("fcff:1::1"), parse_v6("fcff:2::1")
    srh = Srh(next_header=41, segments_left=1, segment_list=(last, first))
    assert OuterPacket(src=parse_v6("fd10::1"), hop_limit=64, srh=srh).dst == first
    with pytest.raises(MalformedPacketError):
        OuterPacket(src=parse_v6("fd10::1"), hop_limit=256, srh=srh)
    with pytest.raises(MalformedPacketError):
        OuterPacket(src=parse_v6("fd10::1"), hop_limit=64,
                    srh=Srh(next_header=43, segments_left=0, segment_list=(first,)))
