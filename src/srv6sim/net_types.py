"""Address, prefix and packet types with bit-exact wire codecs.

Every outer packet carries a segment-routing header (routing type 4): the
segment list is stored in reverse path order and Segments Left indexes the
active SID, which is the outer destination. ``encode_srh``/``decode_srh``
are the header's wire-format oracle.

Every address the package stores is canonical: one live object per value,
the one ``canon`` returns (hash-consing; Filliâtre & Conchon, ML Workshop
2006). Equal addresses are then mostly the same object, but ``is`` is only a
fast path in front of ``==``, never a replacement for it.
"""

from __future__ import annotations

import ipaddress
import struct
import weakref
from dataclasses import dataclass
from functools import lru_cache
from ipaddress import IPv4Address, IPv4Network, IPv6Address, IPv6Network
from typing import Union

from .errors import (
    AddrParseError,
    FamilyMismatchError,
    MalformedPacketError,
    TruncationError,
    UnsupportedTypeError,
)

Addr = Union[IPv4Address, IPv6Address]
Prefix = Union[IPv4Network, IPv6Network]

# Protocol numbers an SRH's next_header names.
PROTO_IPV4_ENCAP = 4
PROTO_IPV6_ENCAP = 41
# Inner packets carry an opaque payload; the inner protocol number is fixed.
PROTO_OPAQUE = 253

SRH_ROUTING_TYPE = 4
# Hdr Ext Len is one byte of 8-octet units, two per SID: an SRH holds at most 127.
MAX_SEGMENTS = 127


_canonical = {cls: weakref.WeakValueDictionary() for cls in (IPv4Address, IPv6Address)}


def canon(addr: Addr) -> Addr:
    """The live canonical object equal to ``addr``, which becomes it if there
    is none. The tables, one per class keyed by ``int(addr)``, hold no strong
    reference. A scoped IPv6 address (``fe80::1%eth0``) is left as it is."""
    table = _canonical.get(addr.__class__)
    if table is None or getattr(addr, "_scope_id", None) is not None:
        return addr
    ref = table.data.get(addr._ip)  # _ip is int(addr); a hit skips two Python-level calls
    return (ref and ref()) or table.setdefault(addr._ip, addr)


def parse_addr(text: str) -> Addr:
    """Parse a textual IPv4 or IPv6 address into its canonical object."""
    try:
        return canon(ipaddress.ip_address(text.strip()))
    except ValueError as exc:
        raise AddrParseError(f"malformed address {text!r}") from exc


@lru_cache(maxsize=4096)  # addresses are immutable; a raise is not cached
def parse_v6(text: str) -> IPv6Address:
    addr = parse_addr(text)
    if not isinstance(addr, IPv6Address):
        raise AddrParseError(f"expected an IPv6 address, got {text!r}")
    return addr


def parse_prefix(text: str) -> Prefix:
    """Parse ``base/len`` notation; a non-canonical base is normalized."""
    try:
        return ipaddress.ip_network(text.strip(), strict=False)
    except ValueError as exc:
        raise AddrParseError(f"malformed prefix {text!r}") from exc


def family_of(addr_or_prefix) -> str:
    return "v4" if addr_or_prefix.version == 4 else "v6"


@dataclass(frozen=True)
class InnerPacket:
    """A pod-level packet as it exists before encapsulation.

    Serialized with a minimal fixed header (20 bytes for IPv4 without
    options, 40 bytes for IPv6); the IPv4 checksum field is carried opaque.
    """

    src: Addr
    dst: Addr
    hop_limit: int = 64
    payload: bytes = b""

    def __post_init__(self):
        if self.src.version != self.dst.version:
            raise FamilyMismatchError(
                f"inner src {self.src} and dst {self.dst} are different families"
            )

    @property
    def family(self) -> str:
        return family_of(self.src)

    def encode(self) -> bytes:
        if self.src.version == 4:
            header = struct.pack(
                "!BBHHHBBH4s4s",
                0x45,  # version 4, IHL 5
                0,
                20 + len(self.payload),
                0,
                0,
                self.hop_limit,
                PROTO_OPAQUE,
                0,  # checksum carried opaque, never recomputed
                self.src.packed,
                self.dst.packed,
            )
        else:
            header = struct.pack(
                "!IHBB16s16s",
                6 << 28,
                len(self.payload),
                PROTO_OPAQUE,
                self.hop_limit,
                self.src.packed,
                self.dst.packed,
            )
        return header + self.payload


# The decoded packets of one flow share their canonical addresses.
_v4_from_bytes = lru_cache(maxsize=4096)(lambda data: canon(IPv4Address(data)))
_v6_from_bytes = lru_cache(maxsize=4096)(lambda data: canon(IPv6Address(data)))


def decode_inner(data: bytes) -> InnerPacket:
    """Inverse of :meth:`InnerPacket.encode`; family read from the version nibble.
    The byte layout guarantees ``InnerPacket``'s check (both addresses come from
    one version's decoder), so it does not run again."""
    if not data:
        raise TruncationError("empty inner packet")
    version = data[0] >> 4
    if version == 4:
        if len(data) < 20:
            raise TruncationError("IPv4 inner packet shorter than 20 bytes")
        total_length = struct.unpack_from("!H", data, 2)[0]
        if total_length != len(data):
            raise TruncationError(
                f"IPv4 total length {total_length} != buffer {len(data)}"
            )
        src, dst = _v4_from_bytes(data[12:16]), _v4_from_bytes(data[16:20])
        hop_limit, payload = data[8], data[20:]
    elif version == 6:
        if len(data) < 40:
            raise TruncationError("IPv6 inner packet shorter than 40 bytes")
        payload_length = struct.unpack_from("!H", data, 4)[0]
        if payload_length != len(data) - 40:
            raise TruncationError(
                f"IPv6 payload length {payload_length} != buffer {len(data) - 40}"
            )
        src, dst = _v6_from_bytes(data[8:24]), _v6_from_bytes(data[24:40])
        hop_limit, payload = data[7], data[40:]
    else:
        raise MalformedPacketError(f"inner version nibble {version} is neither 4 nor 6")
    pkt = object.__new__(InnerPacket)
    pkt.__dict__.update(src=src, dst=dst, hop_limit=hop_limit, payload=payload)
    return pkt


@dataclass(frozen=True)
class Srh:
    """Segment Routing Header.

    ``segment_list`` is stored in reverse path order: entry ``last_entry``
    is the first segment the packet visits and entry 0 is the last.
    """

    next_header: int
    segments_left: int
    segment_list: tuple[IPv6Address, ...]
    flags: int = 0
    tag: int = 0

    def __post_init__(self):
        object.__setattr__(self, "segment_list", tuple(self.segment_list))
        if not self.segment_list:
            raise MalformedPacketError("segment list must not be empty")
        if not 0 <= self.segments_left <= self.last_entry:
            raise MalformedPacketError(
                f"segments_left {self.segments_left} > last_entry {self.last_entry}"
            )
        for name in ("next_header", "flags"):
            if not 0 <= getattr(self, name) <= 0xFF:
                raise MalformedPacketError(f"{name} out of 8-bit range")

    @property
    def last_entry(self) -> int:
        return len(self.segment_list) - 1

    @property
    def hdr_ext_len(self) -> int:
        return 2 * len(self.segment_list)

    @property
    def active_segment(self) -> IPv6Address:
        return self.segment_list[self.segments_left]


def encode_srh(h: Srh) -> bytes:
    """Serialize: fixed 8 bytes then each 16-byte SID in stored order."""
    head = struct.pack(
        "!BBBBBBH",
        h.next_header,
        h.hdr_ext_len,
        SRH_ROUTING_TYPE,
        h.segments_left,
        h.last_entry,
        h.flags,
        h.tag,
    )
    return head + b"".join(sid.packed for sid in h.segment_list)


def decode_srh(data: bytes) -> Srh:
    if len(data) < 8:
        raise TruncationError("SRH shorter than its 8 fixed bytes")
    next_header, hdr_ext_len, routing_type, segments_left, last_entry, flags, tag = (
        struct.unpack_from("!BBBBBBH", data)
    )
    if routing_type != SRH_ROUTING_TYPE:
        raise UnsupportedTypeError(f"unsupported routing type {routing_type}")
    expected = 8 + 8 * hdr_ext_len
    if len(data) != expected:
        raise TruncationError(
            f"SRH claims {expected} bytes (hdr_ext_len={hdr_ext_len}), got {len(data)}"
        )
    if hdr_ext_len != 2 * (last_entry + 1):
        raise MalformedPacketError(
            f"hdr_ext_len {hdr_ext_len} inconsistent with last_entry {last_entry}"
        )
    if segments_left > last_entry:
        raise MalformedPacketError(
            f"segments_left {segments_left} > last_entry {last_entry}"
        )
    sids = tuple(
        IPv6Address(data[8 + 16 * i : 24 + 16 * i]) for i in range(last_entry + 1)
    )
    return Srh(
        next_header=next_header,
        segments_left=segments_left,
        segment_list=sids,
        flags=flags,
        tag=tag,
    )


@dataclass(frozen=True)
class OuterPacket:
    """The outer IPv6 header and its SRH, shared by the packets of one flow,
    whose inner bytes travel beside it. The destination is the SRH's active
    segment (RFC 8754 §4.1), so it is not stored; ``encode_srh`` gives the
    routing header's wire bytes."""

    src: IPv6Address
    hop_limit: int
    srh: Srh

    def __post_init__(self):
        if not 0 <= self.hop_limit <= 255:
            raise MalformedPacketError(f"hop_limit {self.hop_limit} out of range")
        if self.srh.next_header not in (PROTO_IPV4_ENCAP, PROTO_IPV6_ENCAP):
            raise MalformedPacketError(
                f"SRH next_header {self.srh.next_header} does not name an "
                "encapsulated family (4 or 41)"
            )

    @property
    def dst(self) -> IPv6Address:
        return self.srh.active_segment
