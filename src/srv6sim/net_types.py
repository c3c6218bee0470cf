"""Address, prefix and packet types with bit-exact wire codecs.

Every outer packet carries a segment-routing header (routing type 4): the
segment list is stored in reverse path order and Segments Left indexes the
active SID, which is the outer destination. ``encode_srh``/``decode_srh``
are the header's wire-format oracle.

An inner packet's fixed header depends only on its flow and payload length, so
``InnerPacket.encode`` builds and ``decode_inner`` reads each one once, through
caches keyed by its fields and by its bytes; the length checks run per packet.

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
    """The live canonical object equal to ``addr``, an unscoped ``IPv4Address``
    or ``IPv6Address``, which becomes it if there is none. The tables, one per
    class keyed by ``int(addr)``, hold no strong reference."""
    table = _canonical[addr.__class__]
    ref = table.data.get(addr._ip)  # _ip is int(addr); a hit skips two Python-level calls
    return (ref and ref()) or table.setdefault(addr._ip, addr)


def parse_addr(text: str) -> Addr:
    """Parse a textual IPv4 or IPv6 address into its canonical object."""
    if "%" in text:  # an RFC 4007 zone
        raise AddrParseError(f"scoped address {text!r}: no header field carries a zone")
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
    if "%" in text:
        raise AddrParseError(f"scoped prefix {text!r}: a route carries no zone")
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

    @classmethod
    def _of(cls, src: Addr, dst: Addr, hop_limit: int, payload: bytes) -> InnerPacket:
        """The packet in one step: the frozen ``__init__`` sets each field by a call."""
        pkt = object.__new__(cls)
        pkt.__dict__.update(src=src, dst=dst, hop_limit=hop_limit, payload=payload)
        return pkt

    def encode(self) -> bytes:
        src, payload = self.src, self.payload
        return _encoded_header(src._version, src._ip, self.dst._ip, self.hop_limit, len(payload)) + payload


@lru_cache(maxsize=4096)
def _encoded_header(version: int, src: int, dst: int, hop_limit: int, length: int) -> bytes:
    if version == 4:
        # version 4 and IHL 5; the checksum is carried opaque, never computed
        return struct.pack("!BBHHHBBHII", 0x45, 0, 20 + length, 0, 0, hop_limit, PROTO_OPAQUE,
                           0, src, dst)
    return struct.pack("!IHBB16s16s", 6 << 28, length, PROTO_OPAQUE, hop_limit,
                       src.to_bytes(16, "big"), dst.to_bytes(16, "big"))


@lru_cache(maxsize=4096)
def _decoded_header(header: bytes) -> tuple[int, Addr, Addr, int]:
    """The packet length that a fixed header's length field claims, its canonical
    src and dst, and its hop limit: 20 bytes of IPv4 (total length) or 40 of
    IPv6 (payload length). It cannot fail, so a cache hit skips no check."""
    if len(header) == 20:
        return (struct.unpack_from("!H", header, 2)[0], canon(IPv4Address(header[12:16])),
                canon(IPv4Address(header[16:20])), header[8])
    return (40 + struct.unpack_from("!H", header, 4)[0], canon(IPv6Address(header[8:24])),
            canon(IPv6Address(header[24:40])), header[7])


def decode_inner(data: bytes) -> InnerPacket:
    """Inverse of :meth:`InnerPacket.encode`; family read from the version nibble,
    so both addresses come from one version's decoder."""
    if not data:
        raise TruncationError("empty inner packet")
    version = data[0] >> 4
    if version != 4 and version != 6:
        raise MalformedPacketError(f"inner version nibble {version} is neither 4 nor 6")
    size = 20 if version == 4 else 40
    if len(data) < size:
        raise TruncationError(f"IPv{version} inner packet shorter than {size} bytes")
    length, src, dst, hop_limit = _decoded_header(data[:size])
    if length != len(data):
        raise TruncationError(f"IPv{version} length field gives {length} bytes, buffer {len(data)}")
    return InnerPacket._of(src, dst, hop_limit, data[size:])


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
    head = struct.pack("!BBBBBBH", h.next_header, h.hdr_ext_len, SRH_ROUTING_TYPE,
                       h.segments_left, h.last_entry, h.flags, h.tag)
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

    @property
    def dst(self) -> IPv6Address:
        return self.srh.active_segment
