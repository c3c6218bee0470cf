"""Two-step BGP control plane over a simulated session bus.

Step 1 advertises pod-prefix reachability (prefix + infrastructure next
hop). Step 2 distributes SR policies as SAFI-73 updates whose byte layout
is fixed here: NLRI (distinguisher, color, endpoint), next hop, and a
Tunnel Encaps attribute (type 23) carrying binding-SID, preference,
priority and segment-list sub-TLVs. Segments are 16-byte SRv6 SIDs with a
16-bit behavior code (Type B).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from ipaddress import IPv6Address
from typing import Optional

from .dataplane import BEHAVIOR_END_DT4, BEHAVIOR_END_DT6, SrPolicyEntry
from .errors import DecodeError, TruncationError, ValidationError
from .net_types import Prefix, canon
from .schema import address, boolean, entries, integer, load, mapping, section, segment_count

SAFI_SR_POLICY = 73
AFI_IPV6 = 2

ATTR_TUNNEL_ENCAPS = 23
SUBTLV_PREFERENCE = 12
SUBTLV_BINDING_SID = 13
SUBTLV_PRIORITY = 15
SUBTLV_SEGMENT_LIST = 128
SEGLIST_SUBTLV_WEIGHT = 9
SEGMENT_TYPE_B = 13
U32 = 0xFFFFFFFF


@dataclass(frozen=True)
class Step1Update:
    """Pod-prefix reachability: prefix plus the owning node's infra address."""

    prefix: Prefix
    next_hop: IPv6Address


@dataclass(frozen=True)
class Segment:
    sid: IPv6Address
    behavior_code: int


@dataclass(frozen=True)
class SrPolicySafiUpdate:
    """SR Policy SAFI (73) update."""

    distinguisher: int
    color: int
    endpoint: IPv6Address
    bsid: IPv6Address
    segments: tuple[Segment, ...]
    next_hop: IPv6Address
    weight: int = 0
    preference: int = 0
    priority: int = 0
    afi: int = AFI_IPV6
    safi: int = SAFI_SR_POLICY
    withdraw: bool = False

    @property
    def family(self) -> str:
        """Traffic family selected by the final (decap) segment's code (``check_decap``)."""
        return "v4" if self.segments[-1].behavior_code == BEHAVIOR_END_DT4 else "v6"

    @cached_property
    def policy(self) -> SrPolicyEntry:
        """The policy each receiver installs, built once per update: the
        receivers of a broadcast share its decode (``decode_safi73``)."""
        return SrPolicyEntry(self.bsid, tuple(s.sid for s in self.segments), self.family)


def _subtlv(type_code: int, value: bytes) -> bytes:
    return struct.pack("!BH", type_code, len(value)) + value


def encode_safi73(u: SrPolicySafiUpdate) -> bytes:
    seglist = _subtlv(
        SEGLIST_SUBTLV_WEIGHT, struct.pack("!BBI", 0, 0, u.weight)
    ) + b"".join(
        _subtlv(
            SEGMENT_TYPE_B,
            struct.pack("!BB16sH", 0, 0, s.sid.packed, s.behavior_code),
        )
        for s in u.segments
    )
    attr_value = (
        _subtlv(SUBTLV_BINDING_SID, struct.pack("!BB16s", 0, 0, u.bsid.packed))
        + _subtlv(SUBTLV_PREFERENCE, struct.pack("!BBI", 0, 0, u.preference))
        + _subtlv(SUBTLV_PRIORITY, struct.pack("!BB", u.priority, 0))
        + _subtlv(SUBTLV_SEGMENT_LIST, seglist)
    )
    head = struct.pack(
        "!BHB", 1 if u.withdraw else 0, u.afi, u.safi
    ) + struct.pack(
        "!II16s16s", u.distinguisher, u.color, u.endpoint.packed, u.next_hop.packed
    )
    return head + struct.pack("!BH", ATTR_TUNNEL_ENCAPS, len(attr_value)) + attr_value


def _take(data: bytes, offset: int, n: int, what: str) -> tuple[bytes, int]:
    if offset + n > len(data):
        raise TruncationError(f"{what}: need {n} bytes at offset {offset}")
    return data[offset : offset + n], offset + n


def _walk_subtlvs(data: bytes, what: str):
    offset = 0
    while offset < len(data):
        header, offset = _take(data, offset, 3, f"{what} sub-TLV header")
        type_code, length = struct.unpack("!BH", header)
        value, offset = _take(data, offset, length, f"{what} sub-TLV {type_code}")
        yield type_code, value


# Pure, with frozen results: a broadcast's receivers share one decode (errors are not cached).
@lru_cache(maxsize=1024)
def decode_safi73(data: bytes) -> SrPolicySafiUpdate:
    head, offset = _take(data, 0, 4, "update header")
    flags, afi, safi = struct.unpack("!BHB", head)
    if safi != SAFI_SR_POLICY:
        raise DecodeError(f"unexpected SAFI {safi}")
    nlri, offset = _take(data, offset, 40, "NLRI and next hop")
    distinguisher, color, endpoint, next_hop = struct.unpack("!II16s16s", nlri)
    attr_head, offset = _take(data, offset, 3, "attribute header")
    attr_type, attr_len = struct.unpack("!BH", attr_head)
    if attr_type != ATTR_TUNNEL_ENCAPS:
        raise DecodeError(f"unexpected attribute type {attr_type}")
    attr_value, offset = _take(data, offset, attr_len, "tunnel encaps attribute")
    if offset != len(data):
        raise DecodeError(f"{len(data) - offset} trailing bytes after attribute")

    bsid = None
    preference = 0
    priority = 0
    weight = 0
    segments: list[Segment] = []
    saw_seglist = False
    for type_code, value in _walk_subtlvs(attr_value, "tunnel encaps"):
        if type_code == SUBTLV_BINDING_SID:
            if len(value) != 18:
                raise DecodeError(f"binding SID sub-TLV length {len(value)} != 18")
            bsid = canon(IPv6Address(value[2:18]))
        elif type_code == SUBTLV_PREFERENCE:
            if len(value) != 6:
                raise DecodeError(f"preference sub-TLV length {len(value)} != 6")
            preference = struct.unpack("!I", value[2:6])[0]
        elif type_code == SUBTLV_PRIORITY:
            if len(value) != 2:
                raise DecodeError(f"priority sub-TLV length {len(value)} != 2")
            priority = value[0]
        elif type_code == SUBTLV_SEGMENT_LIST:
            saw_seglist = True
            for seg_type, seg_value in _walk_subtlvs(value, "segment list"):
                if seg_type == SEGLIST_SUBTLV_WEIGHT:
                    if len(seg_value) != 6:
                        raise DecodeError(
                            f"weight sub-TLV length {len(seg_value)} != 6"
                        )
                    weight = struct.unpack("!I", seg_value[2:6])[0]
                elif seg_type == SEGMENT_TYPE_B:
                    if len(seg_value) != 20:
                        raise DecodeError(
                            f"type-B segment length {len(seg_value)} != 20"
                        )
                    sid = canon(IPv6Address(seg_value[2:18]))
                    code = struct.unpack("!H", seg_value[18:20])[0]
                    segments.append(Segment(sid=sid, behavior_code=code))
                else:
                    raise DecodeError(f"unknown segment-list sub-TLV type {seg_type}")
        else:
            raise DecodeError(f"unknown tunnel encaps sub-TLV type {type_code}")
    if bsid is None:
        raise DecodeError("update lacks a binding SID sub-TLV")
    if not saw_seglist or not segments:
        raise DecodeError("update lacks a segment list")
    return SrPolicySafiUpdate(
        distinguisher=distinguisher,
        color=color,
        endpoint=canon(IPv6Address(endpoint)),
        bsid=bsid,
        segments=tuple(segments),
        next_hop=canon(IPv6Address(next_hop)),
        weight=weight,
        preference=preference,
        priority=priority,
        afi=afi,
        safi=safi,
        withdraw=bool(flags & 1),
    )


def check_decap(segments: tuple[Segment, ...], path: Optional[str] = None) -> None:
    """A ValidationError at ``path`` unless the final (decap) segment is End.DT4 or End.DT6."""
    code = segments[-1].behavior_code
    if code not in (BEHAVIOR_END_DT4, BEHAVIOR_END_DT6):
        raise ValidationError(f"final segment code {code} is not a DT behavior", path=path)


def parse_policy_file(text: str, path: str = "policy file") -> SrPolicySafiUpdate:
    """Parse an injector policy document in the SAFI-73 field vocabulary
    (nlri/distinguisher/color/endpoint, segmentlist, bsid, nexthop)."""
    doc = mapping(load(text, path), "policy file", path)
    nlri, seglist, family = (section(doc, k, path, dict) for k in ("nlri", "segmentlist", "family"))
    where = f"{path}.segmentlist"
    segments = tuple(
        Segment(sid=address(s, "sid", spath),
                behavior_code=integer(s, "behavior", spath, low=0, high=0xFFFF))
        for spath, s in entries(seglist, "segments", where)
    )
    if not segments:
        raise ValidationError("empty segments", path=f"{where}.segments")
    segment_count(len(segments), f"{where}.segments")
    check_decap(segments, f"{where}.segments[{len(segments) - 1}].behavior")
    return SrPolicySafiUpdate(
        distinguisher=integer(nlri, "distinguisher", f"{path}.nlri", low=0, high=U32),
        color=integer(nlri, "color", f"{path}.nlri", low=0, high=U32),
        endpoint=address(nlri, "endpoint", f"{path}.nlri"),
        bsid=address(doc, "bsid", path),
        segments=segments,
        next_hop=address(doc, "nexthop", path),
        weight=integer(seglist, "weight", where, 0, low=0, high=U32),
        priority=integer(doc, "priority", path, 0, low=0, high=0xFF),
        afi=integer(family, "afi", f"{path}.family", AFI_IPV6, low=0, high=0xFFFF),
        safi=integer(family, "safi", f"{path}.family", SAFI_SR_POLICY,
                     low=SAFI_SR_POLICY, high=SAFI_SR_POLICY),
        withdraw=boolean(doc, "iswithdraw", path, False),
    )


class SessionBus:
    """Per-pair FIFO message queues; no loss. The simulation sends only to
    cluster nodes, from a node or the injector.

    Delivery order across sessions is chosen by the simulation scheduler.
    """

    def __init__(self):
        self.sessions: dict[tuple[str, str], deque] = {}
        self._pending: list[tuple[str, str]] = []  # non-empty sessions, sorted

    def send(self, src: str, dst: str, message) -> None:
        queue = self.sessions.setdefault((src, dst), deque())
        if not queue:
            insort(self._pending, (src, dst))
        queue.append(message)

    def broadcast(self, src: str, targets, message) -> int:
        count = 0
        for dst in targets:
            if dst != src:
                self.send(src, dst, message)
                count += 1
        return count

    def pending_sessions(self) -> list[tuple[str, str]]:
        """Sorted sessions with queued messages; a live view, do not mutate."""
        return self._pending

    def pop(self, session: tuple[str, str]):
        queue = self.sessions[session]
        message = queue.popleft()
        if not queue:
            del self._pending[bisect_left(self._pending, session)]
        return message

    @property
    def quiesced(self) -> bool:
        return not self._pending
