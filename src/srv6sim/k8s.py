"""Cluster-control analog: versioned key-value store with poll-based watch,
IPAM pools with block carving, and the per-node SR-TE policy document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from ipaddress import IPv6Address
from operator import attrgetter, is_not
from typing import Optional

import yaml

from . import schema
from .errors import ValidationError
from .net_types import MAX_SEGMENTS, Addr, Prefix, canon

# libyaml's emitter where PyYAML has it, for document heads; it folds long
# scalars differently from the pure-Python one, see render_configmap_doc.
_FAST_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
# an IPv6 address's integer (``_ip``) -> its text; an int key, as hashing an address is slow
v6_text = lru_cache(maxsize=4096)(lambda ip: str(IPv6Address(ip)))
_V6, _scope = {IPv6Address}, attrgetter("_scope_id")  # _scope: an IPv6Address's zone, or None


# -- key-value store -------------------------------------------------------


class KvStore:
    """Linearizable store of ConfigMap data maps (data key -> text); versions
    are store-wide monotonic."""

    def __init__(self):
        self.entries: dict[str, tuple[dict[str, str], int]] = {}
        # per entry: data key -> the document its text decodes to, set by each write
        self.decoded: dict[str, dict] = {}
        self._version = 0
        # accounting for the watch cost model
        self.poll_count = 0
        self.scan_units = 0

    def write(self, key: str, data: dict[str, str], decoded: dict) -> int:
        self._version += 1
        self.entries[key] = (data, self._version)
        self.decoded[key] = decoded
        return self._version


@dataclass
class WatchHandle:
    """Poll-based watch over one key."""

    key: str
    last_seen: int = 0


def poll(store: KvStore, watch: WatchHandle) -> list[tuple[str, dict[str, str], int]]:
    """``[(key, data, version)]`` if the watched key's version advanced since
    the last poll, else ``[]``. One poll cost unit per call, one scan cost
    unit per returned entry the watcher must examine.
    """
    store.poll_count += 1
    entry = store.entries.get(watch.key)
    if entry is None or entry[1] <= watch.last_seen:
        return []
    watch.last_seen = entry[1]
    store.scan_units += 1
    return [(watch.key, *entry)]


# -- IPAM ------------------------------------------------------------------


@dataclass(frozen=True)
class IpPool:
    """CIDR-scoped pool; nodes are handed whole blocks of
    2^(family_bits - block_size) addresses, carved sequentially."""

    name: str
    cidr: Prefix
    block_size: int
    node_selector: Optional[str] = None

    @property
    def block_addrs(self) -> int:
        bits = 128 if self.cidr.version == 6 else 32
        return 1 << (bits - self.block_size)

    @property
    def block_count(self) -> int:
        return 1 << (self.block_size - self.cidr.prefixlen)


class IpamAllocator:
    """Deterministic allocator over a set of pools.

    A node's first allocation claims the next free block; subsequent
    allocations are sequential within its blocks. No address is ever handed
    out twice: ``load_scenario`` checks each pool's selector, and that its
    blocks cover every node's start-up draws.
    """

    def __init__(self, pools: list[IpPool]):
        self.pools = {p.name: p for p in pools}
        self._blocks: dict[str, dict[str, list[int]]] = {p.name: {} for p in pools}
        self._next_block: dict[str, int] = {p.name: 0 for p in pools}
        self._counts: dict[str, dict[str, int]] = {p.name: {} for p in pools}

    def allocate(self, pool_name: str, node: str) -> Addr:
        pool = self.pools[pool_name]
        blocks = self._blocks[pool_name].setdefault(node, [])
        count = self._counts[pool_name].get(node, 0)
        block_index = count // pool.block_addrs
        if block_index >= len(blocks):
            blocks.append(self._next_block[pool_name])
            self._next_block[pool_name] += 1
        base = int(pool.cidr.network_address)
        offset = blocks[block_index] * pool.block_addrs + count % pool.block_addrs
        self._counts[pool_name][node] = count + 1
        return canon(pool.cidr.network_address.__class__(base + offset))


# -- ConfigMap documents ---------------------------------------------------

LOCALSID_KINDS = ("DT4", "DT6")
TRAFFIC_KINDS = ("IPv4", "IPv6")


@dataclass(frozen=True)
class PolicyDocEntry:
    egress_node: IPv6Address  # infra address of the tunnel egress
    bsid: IPv6Address
    segment_list: tuple[IPv6Address, ...]
    traffic: str  # IPv4 | IPv6

    @property
    def family(self) -> str:
        return "v4" if self.traffic == "IPv4" else "v6"


@dataclass(frozen=True)
class ConfigMapDoc:
    """Per-node policy document: the node's own localSIDs plus the policy
    list for every egress node it tunnels to."""

    node: str
    localsids: dict[str, IPv6Address]  # DT4/DT6 -> SID
    policies: tuple[PolicyDocEntry, ...]


def read_localsids(data: dict, where: str) -> dict[str, IPv6Address]:
    """The ``localsids`` mapping of a node or document: DT kind -> SID."""
    sids = schema.section(data, "localsids", where, dict)
    where = f"{where}.localsids"
    return {
        schema.one_of(kind, LOCALSID_KINDS, "localsid kind", where):
            schema.address(sids, kind, where)
        for kind in sids
    }


def parse_configmap_doc(data, path: str = "configmap") -> ConfigMapDoc:
    """Check a ConfigMap document where it enters: YAML text, its parsed
    data, or a ``ConfigMapDoc`` built by a caller. A built document is read
    as the data its YAML text would hold, so it passes or fails as that text
    does; one of the reader's own types (``_typed_doc``) skips the reading.

    Both ``egress_node:`` and the shorter ``node:`` spelling are accepted
    for the per-policy egress field.
    """
    if isinstance(data, ConfigMapDoc):
        checked = _typed_doc(data)
        if checked is not None:
            return checked
        data = _plain(data)
    elif isinstance(data, str):
        data = schema.load(data, path)
    schema.mapping(data, "document", path)
    node = schema.string(data, "node", path)
    if not node:
        raise ValidationError("missing node name", path=path)
    localsids = read_localsids(data, path)
    policies = []
    for where, entry in schema.entries(data, "policies", path):
        spelling = "node" if "node" in entry and "egress_node" not in entry else "egress_node"
        egress = schema.address(entry, spelling, where)
        traffic = schema.one_of(entry.get("traffic"), TRAFFIC_KINDS, "traffic", where)
        policies.append(PolicyDocEntry(
            egress_node=egress,
            bsid=schema.address(entry, "bsid", where),
            segment_list=schema.addresses(entry, "segment_list", where),
            traffic=traffic,
        ))
    if len({(p.egress_node, p.traffic) for p in policies}) < len(policies):
        keys = set()  # one set per document above; per policy only to locate the duplicate
        for i, p in enumerate(policies):
            schema.unique((p.egress_node, p.traffic), keys, "policy for", f"{path}.policies[{i}]")
    if len({p.bsid for p in policies}) < len(policies):  # a BSID names one policy
        bsids = set()
        for i, p in enumerate(policies):
            schema.unique(str(p.bsid), bsids, "bsid", f"{path}.policies[{i}].bsid")
    return ConfigMapDoc(node=node, localsids=localsids, policies=tuple(policies))


def _typed_doc(doc: ConfigMapDoc) -> Optional[ConfigMapDoc]:
    """``doc`` with canonical addresses if the reader would return it as it is:
    fields of their declared types, 1 to 127 segments, unique keys and BSIDs,
    exactly unscoped ``IPv6Address``es (checked before ``canon`` interns any). Else None."""
    addrs, entries = [*doc.localsids.values()], []
    for p in doc.policies:
        if (p.traffic not in TRAFFIC_KINDS or not isinstance(p.segment_list, tuple)
                or not 0 < len(p.segment_list) <= MAX_SEGMENTS):
            return None
        fields = (p.egress_node, p.bsid, *p.segment_list)
        entries.append(fields)
        addrs += fields
    if not (isinstance(doc.node, str) and doc.node != "" and isinstance(doc.policies, tuple)
            and all(k in LOCALSID_KINDS for k in doc.localsids)
            and set(map(type, addrs)) <= _V6 and not any(map(_scope, addrs))
            and len({(p.egress_node, p.traffic) for p in doc.policies}) == len(entries)
            and len({p.bsid for p in doc.policies}) == len(entries)):
        return None
    policies = []
    for p, fields in zip(doc.policies, entries):  # an entry of canonical addresses is kept as it is
        same = tuple(map(canon, fields))
        policies.append(PolicyDocEntry(*same[:2], same[2:], p.traffic)
                        if any(map(is_not, same, fields)) else p)
    return ConfigMapDoc(doc.node, {k: canon(a) for k, a in doc.localsids.items()},
                        tuple(policies))


def _plain(doc: ConfigMapDoc) -> dict:
    """The data that ``doc``'s YAML text would hold: each address as its text."""
    policies = [{"bsid": str(p.bsid), "egress_node": str(p.egress_node),
                 "segment_list": [str(s) for s in p.segment_list], "traffic": p.traffic}
                for p in doc.policies]
    localsids = {k: str(v) for k, v in doc.localsids.items()}
    return {"localsids": localsids, "node": doc.node, "policies": policies}


# IPv6Address._ip -> the address as a YAML scalar, one entry per value
_scalars: dict[int, str] = {}
_BASE60 = re.compile(r"[1-9][0-9]*(?::[0-5]?[0-9])+")  # a YAML 1.1 int, e.g. 1:2:3:4:5:6:7:8
_NEXT_SEGMENT = "\n  - "


def _scalar(addr: IPv6Address) -> str:
    """Record and return ``addr`` as PyYAML writes it in a block collection:
    single-quoted where it ends in ``:`` (``::``, ``1::``) or YAML 1.1 reads
    it as a base-60 int."""
    text = str(addr)
    if text.endswith(":") or _BASE60.fullmatch(text):
        text = f"'{text}'"
    _scalars[addr._ip] = text
    return text


def _policies_text(policies: tuple[PolicyDocEntry, ...]) -> str:
    """The ``policies:`` block as one ``yaml.dump`` writes it under either dumper."""
    get, items = _scalars.get, ["policies:\n"]
    for p in policies:
        bsid, egress, *segments = (get(a._ip) or _scalar(a)
                                   for a in (p.bsid, p.egress_node, *p.segment_list))
        items.append(f"- bsid: {bsid}\n  egress_node: {egress}\n  segment_list:\n"
                     f"  - {_NEXT_SEGMENT.join(segments)}\n  traffic: {p.traffic}\n")
    return "".join(items) if policies else "policies: []\n"


def render_configmap_doc(doc: ConfigMapDoc) -> str:
    """Serialize a checked document (``parse_configmap_doc``) in the reference
    deployment's field layout: the same text as one ``yaml.dump`` of the whole
    document. The head is dumped; the policies are written directly."""
    # Addresses and the fixed kinds (DT4/DT6, IPv4/IPv6) never fold; a long or
    # non-ASCII node name may, and libyaml folds it differently.
    node = doc.node
    short = node.isascii() and node.isprintable() and len(node) <= 63
    head = {"localsids": {k: v6_text(v._ip) for k, v in doc.localsids.items()}, "node": node}
    return yaml.dump(head, Dumper=_FAST_DUMPER if short else yaml.SafeDumper, sort_keys=False,
                     default_flow_style=False) + _policies_text(doc.policies)


def configmap_key(node: str) -> str:
    return f"srv6-config-{node}"


SINGLE_MAP_KEY = "srv6-config"


@dataclass(frozen=True)
class PolicyDiff:
    adds: tuple[PolicyDocEntry, ...]
    replaces: tuple[PolicyDocEntry, ...]
    removes: tuple[PolicyDocEntry, ...]

    @property
    def empty(self) -> bool:
        return not (self.adds or self.replaces or self.removes)

    def summary(self, localsid_changes: int = 0) -> str:
        """The diff's counts, then the localSID changes its document made, which it does not see."""
        counts = ((len(self.adds), "added"), (len(self.replaces), "replaced"),
                  (len(self.removes), "removed"),
                  (localsid_changes, "localSID change" + "s" * (localsid_changes > 1)))
        return ", ".join(f"{n} {verb}" for n, verb in counts if n) or "0 changes"


def diff_policies(old: ConfigMapDoc, new: ConfigMapDoc) -> PolicyDiff:
    """Diff keyed by (egress_node, traffic); a policy is replaced iff its
    bsid or segment list changed. Omission means removal."""
    old_map = {(p.egress_node, p.traffic): p for p in old.policies}
    new_map = {(p.egress_node, p.traffic): p for p in new.policies}
    adds, replaces = [], []
    for key, p in new_map.items():
        was = old_map.get(key)
        if was is None:
            adds.append(p)
        elif (was.bsid, was.segment_list) != (p.bsid, p.segment_list):  # tuples try `is` first
            replaces.append(p)
    removes = [p for key, p in old_map.items() if key not in new_map]
    order = lambda p: (v6_text(p.egress_node._ip), p.traffic)
    return PolicyDiff(*(tuple(sorted(ps, key=order)) for ps in (adds, replaces, removes)))
