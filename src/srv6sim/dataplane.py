"""Per-node SRv6 dataplane: localSIDs, policies, steering, encap source, FIB.

A :class:`NodeDataplane` is owned by exactly one simulation actor and is
mutated single-threaded. ``dump()`` returns an immutable snapshot used for
state comparison across runs and control-plane modes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from ipaddress import IPv6Address
from typing import Optional, Union

from .errors import DanglingPolicyError, FamilyMismatchError, SimError
from .net_types import (
    PROTO_IPV4_ENCAP,
    PROTO_IPV6_ENCAP,
    Addr,
    InnerPacket,
    OuterPacket,
    Prefix,
    Srh,
    decode_inner,
    family_of,
)

OUTER_HOP_LIMIT = 64

# Numeric endpoint behavior codes as carried on the wire.
BEHAVIOR_END_DT6 = 18
BEHAVIOR_END_DT4 = 19


@dataclass(frozen=True)
class Behavior:
    """Endpoint behavior bound to a localSID."""

    kind: str  # End | EndDT4 | EndDT6

    def render(self) -> str:
        if self.kind == "End":
            return "End"
        return "End.DT4 tbl 0" if self.kind == "EndDT4" else "End.DT6 tbl 0"


@dataclass
class LocalSidEntry:
    sid: IPv6Address
    behavior: Behavior
    rx_counter: int = 0

    def decap(self, inner: bytes) -> Disposition:
        """End.DT4/DT6 with no segments left, on the packet's inner bytes: the
        only part of a localSID's behavior that its header does not decide."""
        decoded = decode_inner(inner)
        if decoded.src.version != (4 if self.behavior.kind == "EndDT4" else 6):
            return Disposition(kind="drop", reason="family mismatch")
        return Disposition._deliver(decoded)


@dataclass(frozen=True)
class SrPolicyEntry:
    """BSID-keyed policy; ``segments`` is in forward path order."""

    bsid: IPv6Address
    segments: tuple[IPv6Address, ...]
    family: str  # v4 | v6

    @cached_property
    def srh(self) -> Srh:
        """The encap header, built on first use and kept with the policy: the
        segments reversed, Segments Left at the first (the outer destination)."""
        return Srh(
            next_header=PROTO_IPV4_ENCAP if self.family == "v4" else PROTO_IPV6_ENCAP,
            segments_left=len(self.segments) - 1,
            segment_list=tuple(reversed(self.segments)),
        )


@dataclass(frozen=True)
class SteeringRule:
    match: Prefix
    bsid: IPv6Address


@dataclass(frozen=True)
class Disposition:
    """Result of endpoint processing for one packet."""

    kind: str  # forward | deliver | drop
    packet: Optional[OuterPacket] = None
    inner: Optional[InnerPacket] = None
    reason: Optional[str] = None

    @classmethod
    def _deliver(cls, inner: InnerPacket) -> Disposition:
        """Delivery of ``inner`` in one step: the frozen ``__init__`` sets each field by a call."""
        disp = object.__new__(cls)
        disp.__dict__.update(kind="deliver", packet=None, inner=inner, reason=None)
        return disp


class LpmIndex:
    """Prefix -> value table with longest-prefix match.

    One hash table per (family, prefix length), keyed by the masked network
    as an int and probed longest first (Waldvogel et al., SIGCOMM 1997). A key
    may be an address, which stands for its host prefix.
    """

    def __init__(self, table: dict):
        by_len: dict[tuple[int, int], dict[int, tuple]] = {}
        for prefix, value in table.items():
            plen = getattr(prefix, "prefixlen", prefix.max_prefixlen)
            entries = by_len.setdefault((prefix.version, plen), {})
            entries[int(getattr(prefix, "network_address", prefix))] = (prefix, value)
        self._probes: dict[int, list] = {4: [], 6: []}  # longest length first
        for (version, plen), entries in sorted(by_len.items(), reverse=True):
            width = 32 if version == 4 else 128
            mask = ((1 << plen) - 1) << (width - plen)
            self._probes[version].append((mask, entries))

    def lookup(self, addr: Addr, among=None):
        """``(prefix, value)`` of the longest prefix containing ``addr``, or None.
        With ``among``, shorter prefixes are tried while the value is not in it."""
        bits = int(addr)
        for mask, entries in self._probes[addr.version]:
            hit = entries.get(bits & mask)
            if hit is not None and (among is None or hit[1] in among):
                return hit
        return None


class NodeDataplane:
    """Mutable SRv6 state of one cluster node (or underlay router)."""

    def __init__(self, name: str, metrics: Optional[Counter] = None):
        self.name = name
        # shared with the owning simulation; "localsid_changes" keys its route cache
        self.metrics = metrics if metrics is not None else Counter()
        # keyed by ``sid._ip`` and ``bsid._ip``, whose order is the addresses' order:
        # hashing an int is not a Python-level call
        self.localsids: dict[int, LocalSidEntry] = {}
        self.policies: dict[int, SrPolicyEntry] = {}
        self.steering: dict[Prefix, IPv6Address] = {}
        # bsid._ip -> prefixes steered to it, built at the first remove_policy (a bring-up
        # has none); lists, as a BSID steers few prefixes and hashing one is slow
        self._steered: Optional[dict[int, list[Prefix]]] = None
        self.encap_source: Optional[IPv6Address] = None
        self.fib: dict[Prefix, str] = {}
        self.version = 0  # bumped on every effective mutation
        self._indexes: dict = {}  # table name -> (version, LpmIndex)

    # -- installation ------------------------------------------------------

    def install_localsid(self, entry: LocalSidEntry) -> None:
        existing = self.localsids.get(entry.sid._ip)
        if existing is not None and existing.behavior == entry.behavior:
            return
        self.localsids[entry.sid._ip] = entry
        self.version += 1
        self.metrics["localsid_changes"] += 1

    def remove_localsid(self, sid: IPv6Address) -> None:
        if self.localsids.pop(sid._ip, None) is not None:
            self.version += 1
            self.metrics["localsid_changes"] += 1

    def install_policy(self, entry: SrPolicyEntry) -> None:
        previous = self.policies.get(entry.bsid._ip)
        if previous == entry:
            return
        if previous is not None and previous.family != entry.family:
            self.remove_policy(entry.bsid)  # its steering rules are of the old family
        self.policies[entry.bsid._ip] = entry
        self.version += 1

    def remove_policy(self, bsid: IPv6Address) -> None:
        """Remove the policy bound to ``bsid`` and the steering rules that use it."""
        if self.policies.pop(bsid._ip, None) is not None:
            if self._steered is None:
                self._steered = {}
                for prefix, steered_to in self.steering.items():
                    self._steered.setdefault(steered_to._ip, []).append(prefix)
            for prefix in self._steered.pop(bsid._ip, ()):
                del self.steering[prefix]
            self.version += 1

    def _reindex(self, prefix: Prefix, old, new) -> None:
        """Move ``prefix`` from BSID ``old``'s index entry, None for none, to ``new``'s."""
        if self._steered is not None:
            if old is not None:
                self._steered[old._ip].remove(prefix)
                if not self._steered[old._ip]:
                    del self._steered[old._ip]
            self._steered.setdefault(new._ip, []).append(prefix)

    def install_steering(self, rule: SteeringRule) -> None:
        """Steer ``rule.match`` to its BSID's policy. Refused, with the dataplane
        unchanged, for an unknown BSID, a policy of another family, or a node
        without an encap source: ``h_encaps`` relies on all three."""
        if self.encap_source is None:
            raise SimError(f"{self.name}: encap source not configured")
        policy = self.policies.get(rule.bsid._ip)
        if policy is None:
            raise DanglingPolicyError(
                f"steering rule {rule.match} references unknown BSID {rule.bsid}"
            )
        if policy.family != family_of(rule.match):
            raise FamilyMismatchError(
                f"steering prefix {rule.match} does not match policy family "
                f"{policy.family}"
            )
        previous = self.steering.get(rule.match)
        if previous is rule.bsid or previous is not None and previous == rule.bsid:
            return
        self.steering[rule.match] = rule.bsid
        self.version += 1
        self._reindex(rule.match, previous, rule.bsid)

    def set_encap_source(self, addr: IPv6Address) -> None:
        if self.encap_source == addr:
            return
        self.encap_source = addr
        self.version += 1

    def add_fib_route(self, prefix: Prefix, next_hop: str) -> None:
        if self.fib.get(prefix) == next_hop:
            return
        self.fib[prefix] = next_hop
        self.version += 1

    # -- forwarding --------------------------------------------------------

    def _lpm(self, name, table: dict, addr: Addr):
        """LPM over one of this node's tables; its index is rebuilt lazily
        after any mutation (every mutation bumps ``version``)."""
        cached = self._indexes.get(name)
        if cached is None or cached[0] != self.version:
            cached = self._indexes[name] = (self.version, LpmIndex(table))
        return cached[1].lookup(addr)

    def steer_lookup(self, dst: Addr) -> Optional[IPv6Address]:
        """Longest-prefix match of ``dst`` over the steering rules of its family."""
        hit = self._lpm("steering", self.steering, dst)
        return hit[1] if hit else None

    def h_encaps(self, bsid: IPv6Address) -> OuterPacket:
        """The outer header H.Encaps puts in front of every packet steered to
        ``bsid`` by ``steer_lookup``, with the SRH its policy keeps: steering
        exists only on a node with an encap source and points only at installed
        policies of its own family. Each packet's inner bytes travel beside it."""
        return OuterPacket(self.encap_source, OUTER_HOP_LIMIT, self.policies[bsid._ip].srh)

    def process_local(self, pkt: OuterPacket) -> Union[Disposition, LocalSidEntry]:
        """Execute the part of the behavior bound to ``pkt.dst``, a localSID of
        this node, that its header decides, and count the packet. End.DT with
        no segments left returns its entry, whose ``decap`` each packet's inner
        bytes then go through."""
        entry = self.localsids[pkt.dst._ip]
        entry.rx_counter += 1
        srh = pkt.srh
        if entry.behavior.kind == "End":
            if srh.segments_left == 0:
                return Disposition(kind="drop", reason="no more segments")
            srh = Srh(srh.next_header, srh.segments_left - 1, srh.segment_list, srh.flags, srh.tag)
            out = OuterPacket(pkt.src, pkt.hop_limit, srh)
            return Disposition(kind="forward", packet=out)
        # End.DT4 / End.DT6
        if srh.segments_left > 0:
            return Disposition(kind="drop", reason="premature decap")
        return entry

    def fib_lookup(self, dst: IPv6Address):
        """``"local"`` on an exact localSID hit, else LPM next hop, else None."""
        if dst._ip in self.localsids:
            return "local"
        hit = self._lpm("fib", self.fib, dst)
        return hit[1] if hit else None

    # -- inspection --------------------------------------------------------

    def show_localsids(self) -> str:
        lines = [f"{self.name} SR localSIDs:"]
        for _, entry in sorted(self.localsids.items()):
            lines.append(
                f"  {entry.sid}  behavior {entry.behavior.render()}  "
                f"counter {entry.rx_counter}"
            )
        return "\n".join(lines)

    def show_policies(self) -> str:
        lines = [f"{self.name} SR policies:"]
        for _, policy in sorted(self.policies.items()):
            segs = ", ".join(str(s) for s in policy.segments)
            lines.append(f"  bsid {policy.bsid}  {policy.family}  segments [{segs}]")
        return "\n".join(lines)

    def show_steering(self) -> str:
        lines = [f"{self.name} SR steering policies:"]
        for prefix in sorted(self.steering, key=str):
            lines.append(f"  {prefix} -> bsid {self.steering[prefix]}")
        return "\n".join(lines)

    def show_encap_source(self) -> str:
        return f"{self.name} SR encap source: {self.encap_source}"

    def counters(self) -> dict[str, int]:
        return {str(e.sid): e.rx_counter for _, e in sorted(self.localsids.items())}

    def dump(self) -> dict:
        """Canonical snapshot of configured state; counters excluded."""
        return {
            "encap_source": str(self.encap_source) if self.encap_source else None,
            "localsids": [
                {"sid": str(e.sid), "behavior": e.behavior.render()}
                for _, e in sorted(self.localsids.items())
            ],
            "policies": [
                {"bsid": str(p.bsid), "family": p.family, "segments": [str(s) for s in p.segments]}
                for _, p in sorted(self.policies.items())
            ],
            "steering": [
                {"prefix": str(p), "bsid": str(self.steering[p])}
                for p in sorted(self.steering, key=str)
            ],
        }
