"""Declarative scenario files: topology, cluster nodes, pools, pods and the
control-plane mode, parsed from YAML."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path
from typing import Optional

from .errors import ValidationError
from .k8s import ConfigMapDoc, IpPool, parse_configmap_doc, read_localsids
from .net_types import Addr, Prefix
from .schema import (
    address, boolean, entries, integer, load, mapping, one_of, prefix, section, string, unique,
)
from .underlay import Link


@dataclass(frozen=True)
class RouterConfig:
    name: str
    end_sid: IPv6Address

    @cached_property  # built once, by the Simulation that advertises it
    def sid_prefix(self) -> IPv6Network:
        return IPv6Network((self.end_sid, 32), strict=False)


@dataclass(frozen=True)
class NodeConfig:
    name: str
    infra: IPv6Address
    router: str
    pod_prefixes: tuple[Prefix, ...]
    localsids: dict[str, IPv6Address] = field(default_factory=dict)
    localsid_pool: Optional[str] = None


@dataclass(frozen=True)
class PodConfig:
    name: str
    node: str
    addrs: dict[str, Addr]  # family -> address


@dataclass
class Scenario:
    name: str
    mode: str
    seed: int
    families: set[str]
    routers: list[RouterConfig]
    links: list[Link]
    nodes: list[NodeConfig]
    pools: list[IpPool]
    pods: list[PodConfig]
    bsid_pool: Optional[str] = None
    auto_step2: bool = True
    # double = egress router End SID + DT SID; single = routable DT SID only
    segment_mode: str = "double"
    configmap_fanout: str = "per-node"  # or single-map
    configmaps: list[ConfigMapDoc] = field(default_factory=list)
    injector: str = "srv6-pi"  # the bus peer that injects policies
    injector_registered: bool = True
    convergence_steps: int = 10000


KEYS = {"name", "mode", "seed", "families", "routers", "links", "nodes", "pools", "pods",
        "bsid_pool", "auto_step2", "segment_mode", "configmap_fanout", "configmaps", "injector",
        "injector_registered", "convergence_steps"}  # load_scenario reads these, and no other
# why a bgp node that draws from a pool needs the key that names it
NEEDED = {"bsid_pool": "for bgp auto_step2",
          "localsid_pool": "in bgp mode without pinned localsids"}


def load_scenario(source, mode: Optional[str] = None, seed: Optional[int] = None) -> Scenario:
    """Load and check a scenario from a path or YAML text. ``mode`` and
    ``seed``, where given, override the file's before anything depends on
    them, so the scenario is checked in the mode it runs in."""
    if isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and source.endswith((".yaml", ".yml"))
    ):
        path = Path(source)
        text = path.read_text()
        where = str(path)
    else:
        text, where = source, "<scenario>"
    data = mapping(load(text, where), "scenario", where)
    for key in data:
        one_of(key, KEYS, "key", f"{where}.{key}")

    read_mode = one_of(data.get("mode", "bgp"), ("bgp", "configmap"), "mode", f"{where}.mode")
    mode = read_mode if mode is None else mode
    read_seed = integer(data, "seed", where, 0)
    segment_mode = one_of(data.get("segment_mode", "double"), ("double", "single"),
                          "segment_mode", f"{where}.segment_mode")
    families = data.get("families", ["v4", "v6"])
    if not isinstance(families, list) or not all(f in ("v4", "v6") for f in families):
        raise ValidationError(f"bad families {families!r}", path=f"{where}.families")
    fanout = one_of(data.get("configmap_fanout", "per-node"), ("per-node", "single-map"),
                    "configmap_fanout", f"{where}.configmap_fanout")
    auto_step2 = boolean(data, "auto_step2", where, True)

    routers, router_names, sid_blocks = [], set(), set()
    for rpath, r in entries(data, "routers", where):
        name = unique(string(r, "name", rpath), router_names, "router name", rpath)
        routers.append(RouterConfig(name, address(r, "end_sid", rpath)))
        block = int(routers[-1].end_sid) >> 96  # the /32; formatted only in the error
        if block in sid_blocks:
            raise ValidationError(f"duplicate SID block {str(routers[-1].sid_prefix)!r}",
                                  path=f"{rpath}.end_sid")
        sid_blocks.add(block)
    links = []
    for lpath, l in entries(data, "links", where):
        a, b = (one_of(string(l, end, lpath), router_names, "router", f"{lpath}.{end}")
                for end in ("a", "b"))
        cost = integer(l, "cost", lpath, 1)
        if cost <= 0:
            raise ValidationError(f"link cost {cost!r} is not a positive integer", path=lpath)
        links.append(Link(a=a, b=b, cost=cost, name=string(l, "name", lpath, f"{a}-{b}")))

    nodes, node_names, infras, node_prefixes, pinned = [], set(), set(), {}, set()
    bsid_pool = data.get("bsid_pool")
    kinds = {"DT4" if family == "v4" else "DT6" for family in families}  # a node's DT localSIDs
    # (pool, where it is named, its key, node, addresses the node draws from it at start-up)
    pool_refs = [(bsid_pool, f"{where}.bsid_pool", "bsid_pool", None, 0)]
    for npath, n in entries(data, "nodes", where):
        name = unique(string(n, "name", npath), node_names, "node name", npath)
        if name in router_names:
            raise ValidationError(f"node name {name!r} is also a router name", path=npath)
        router = one_of(string(n, "router", npath), router_names, "router", f"{npath}.router")
        node_prefixes[name] = {
            family: prefix(n, f"pod_prefix_{family}", npath, family)
            for family in ("v4", "v6") if family in families and n.get(f"pod_prefix_{family}")
        }
        infra = address(n, "infra", npath)
        unique(str(infra), infras, "infra", f"{npath}.infra")
        localsids = read_localsids(n, npath)
        for kind, sid in localsids.items():  # a SID two nodes pin would deliver to one of them
            unique(str(sid), pinned, "localsid", f"{npath}.localsids.{kind}")
        nodes.append(
            NodeConfig(
                name=name,
                infra=infra,
                router=router,
                pod_prefixes=tuple(node_prefixes[name].values()),
                localsids=localsids,
                localsid_pool=string(n, "localsid_pool", npath, None),
            )
        )
        # a bgp agent draws a localSID per kind unless it pins them, and a BSID per kind it has
        own = len(kinds & localsids.keys() if localsids else kinds) if mode == "bgp" else 0
        pool_refs.append((nodes[-1].localsid_pool, f"{npath}.localsid_pool", "localsid_pool",
                          name, 0 if localsids else own))
        if own and auto_step2:
            pool_refs.append((bsid_pool, f"{where}.bsid_pool", "bsid_pool", name, own))

    pools, pool_names = {}, set()
    for ppath, p in entries(data, "pools", where):
        name = unique(string(p, "name", ppath), pool_names, "pool name", ppath)
        cidr = prefix(p, "cidr", ppath)
        block = "blockSize" if "blockSize" in p else "block_size"
        selector = "nodeSelector" if "nodeSelector" in p else "node_selector"
        pools[name] = IpPool(
            name=name,
            cidr=cidr,
            block_size=integer(p, block, ppath, cidr.prefixlen,
                               low=cidr.prefixlen, high=cidr.max_prefixlen),
            node_selector=one_of(string(p, selector, ppath, None), (None, *node_names),
                                 "node", f"{ppath}.{selector}"),
        )
    # pools that overlap share SIDs; CIDRs nest or are apart, so two neighbours in address order do
    spans = sorted((p.cidr.version, int(p.cidr.network_address),
                    p.cidr.max_prefixlen - p.cidr.prefixlen, j, p.name) for j, p in enumerate(pools.values()))
    for (version, first, bits, *one), (other, start, _, *two) in zip(spans, spans[1:]):
        if other == version and start - first >> bits == 0:  # the second starts in the first
            (_, held), (j, name) = sorted((one, two))  # refused at the later one in the file
            raise ValidationError(f"pool {name!r} overlaps pool {held!r}", path=f"{where}.pools[{j}].cidr")
    # in start order (sorted names): a node's first draws from a pool claim its next free blocks
    drawn, claimed = Counter(), Counter()  # (pool, node) -> addresses; pool -> blocks
    for named, ref, key, node, draws in sorted(pool_refs, key=lambda r: r[3] or ""):
        if named is None and draws:
            raise ValidationError(f"missing {key!r}, needed {NEEDED[key]}", path=ref)
        if named is None:
            continue
        pool = pools[one_of(named, tuple(pools), "pool", ref)]  # a tuple: it may not hash
        if pool.cidr.version != 6:
            raise ValidationError(f"pool {named!r} is not an IPv6 pool", path=ref)
        if node is not None and pool.node_selector not in (None, node):
            raise ValidationError(f"pool {named!r} selects node {pool.node_selector!r}, "
                                  f"not {node!r}", path=ref)
        had, size = drawn[named, node], pool.block_addrs
        drawn[named, node] += draws
        claimed[named] += (had + draws + size - 1) // size - (had + size - 1) // size
        if claimed[named] > pool.block_count:
            raise ValidationError(f"pool {named!r} has no block left for node {node!r}",
                                  path=ref)

    pods, pod_names = [], set()
    for ppath, p in entries(data, "pods", where):
        name = unique(string(p, "name", ppath), pod_names, "pod name", ppath)
        node = one_of(string(p, "node", ppath), node_names, "node", f"{ppath}.node")
        addrs = {}
        for family in ("v4", "v6"):
            addr = address(p, family, ppath, family, None) if family in families else None
            if addr is None:
                continue
            if addr not in node_prefixes[node].get(family, ()):
                raise ValidationError(f"{addr} is outside node {node}'s {family} pod prefix",
                                      path=f"{ppath}.{family}")
            addrs[family] = addr
        pods.append(PodConfig(name=name, node=node, addrs=addrs))

    injector = string(data, "injector", where, None) or "srv6-pi"
    if injector in node_names:  # the bus skips a broadcast's sender: that node would get nothing
        raise ValidationError(f"injector {injector!r} is also a node name", path=f"{where}.injector")

    configmaps, documented, named = [], set(), set()
    for i, doc in enumerate(section(data, "configmaps", where)):
        cpath = f"{where}.configmaps[{i}]"
        doc = parse_configmap_doc(doc, path=cpath)
        node = one_of(doc.node, node_names, "node", f"{cpath}.node")
        unique(node, documented, "configmap for node", cpath)
        for kind, sid in doc.localsids.items():
            unique(str(sid), named, "localsid", f"{cpath}.localsids.{kind}")
        configmaps.append(doc)
    undocumented = [n.name for n in nodes if n.name not in documented]  # in file order
    if mode == "configmap" and undocumented:  # configmap agents take their localSIDs from these
        raise ValidationError(f"missing configmap for node {undocumented[0]!r}, "
                              "needed in configmap mode", path=f"{where}.configmaps")

    return Scenario(
        name=string(data, "name", where, "scenario"),
        mode=mode,
        seed=read_seed if seed is None else seed,
        families=set(families),
        routers=routers,
        links=links,
        nodes=nodes,
        pools=list(pools.values()),
        pods=pods,
        bsid_pool=bsid_pool,
        auto_step2=auto_step2,
        segment_mode=segment_mode,
        configmap_fanout=fanout,
        configmaps=configmaps,
        injector=injector,
        injector_registered=boolean(data, "injector_registered", where, True),
        convergence_steps=integer(data, "convergence_steps", where, 10000, low=0),
    )
