"""Declarative scenario files: topology, cluster nodes, pools, pods and the
control-plane mode, parsed from YAML."""

from __future__ import annotations

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
    source: str = "<scenario>"  # the file it was loaded from; locates errors


def load_scenario(source) -> Scenario:
    """Load and validate a scenario from a path or YAML text."""
    if isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and source.endswith((".yaml", ".yml"))
    ):
        path = Path(source)
        text = path.read_text()
        where = str(path)
    else:
        text, where = source, "<scenario>"
    data = mapping(load(text, where), "scenario", where)

    mode = one_of(data.get("mode", "bgp"), ("bgp", "configmap"), "mode", f"{where}.mode")
    segment_mode = one_of(data.get("segment_mode", "double"), ("double", "single"),
                          "segment_mode", f"{where}.segment_mode")
    families = data.get("families", ["v4", "v6"])
    if not isinstance(families, list) or not all(f in ("v4", "v6") for f in families):
        raise ValidationError(f"bad families {families!r}", path=f"{where}.families")
    fanout = one_of(data.get("configmap_fanout", "per-node"), ("per-node", "single-map"),
                    "configmap_fanout", f"{where}.configmap_fanout")

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

    nodes, node_names, infras, node_prefixes = [], set(), set(), {}
    pool_refs = [(data.get("bsid_pool"), f"{where}.bsid_pool", None)]  # (pool, where, node)
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
        nodes.append(
            NodeConfig(
                name=name,
                infra=infra,
                router=router,
                pod_prefixes=tuple(node_prefixes[name].values()),
                localsids=read_localsids(n, npath),
                localsid_pool=string(n, "localsid_pool", npath, None),
            )
        )
        pool_refs.append((nodes[-1].localsid_pool, f"{npath}.localsid_pool", name))

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
    for pool, ref, node in pool_refs:
        if one_of(pool, (None, *pools), "pool", ref) is None:
            continue
        if pools[pool].cidr.version != 6:
            raise ValidationError(f"pool {pool!r} is not an IPv6 pool", path=ref)
        if node is not None and pools[pool].node_selector not in (None, node):
            raise ValidationError(f"pool {pool!r} selects node {pools[pool].node_selector!r}, "
                                  f"not {node!r}", path=ref)

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

    configmaps, documented = [], set()
    for i, doc in enumerate(section(data, "configmaps", where)):
        cpath = f"{where}.configmaps[{i}]"
        doc = parse_configmap_doc(doc, path=cpath)
        node = one_of(doc.node, node_names, "node", f"{cpath}.node")
        unique(node, documented, "configmap for node", cpath)
        configmaps.append(doc)

    return Scenario(
        name=string(data, "name", where, "scenario"),
        mode=mode,
        seed=integer(data, "seed", where, 0),
        families=set(families),
        routers=routers,
        links=links,
        nodes=nodes,
        pools=list(pools.values()),
        pods=pods,
        bsid_pool=data.get("bsid_pool"),
        auto_step2=boolean(data, "auto_step2", where, True),
        segment_mode=segment_mode,
        configmap_fanout=fanout,
        configmaps=configmaps,
        injector=injector,
        injector_registered=boolean(data, "injector_registered", where, True),
        convergence_steps=integer(data, "convergence_steps", where, 10000, low=0),
        source=where,
    )
