"""Declarative scenario files: topology, cluster nodes, pools, pods and the
control-plane mode, parsed from YAML."""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path
from typing import Optional

import yaml

from .errors import AddrParseError, ValidationError
from .k8s import ConfigMapDoc, IpPool, YamlLoader, parse_configmap_doc
from .net_types import Addr, Prefix, parse_addr, parse_prefix, parse_v6
from .underlay import Link


@dataclass(frozen=True)
class RouterConfig:
    name: str
    end_sid: IPv6Address

    @property
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
    injector: Optional[str] = None
    injector_registered: bool = True
    convergence_steps: int = 10000


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ValidationError(f"missing {key!r}", path=where)
    return data[key]


def _parsed(parse, value, where: str):
    """``parse(str(value))``, reporting a malformed value at ``where``."""
    try:
        return parse(str(value))
    except AddrParseError as exc:
        raise ValidationError(str(exc), path=where) from None


def _integer(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{value!r} is not an integer", path=where) from None


def _entries(data: dict, key: str, where: str, mappings: bool = True):
    """``(path, entry)`` per entry of list section ``key`` (absent or null: none)."""
    section = data.get(key)
    if section is not None and not isinstance(section, list):
        raise ValidationError(f"{key!r} must be a list", path=f"{where}.{key}")
    for i, entry in enumerate(section or []):
        if mappings and not isinstance(entry, dict):
            raise ValidationError(f"entry {entry!r} is not a mapping", path=f"{where}.{key}[{i}]")
        yield f"{where}.{key}[{i}]", entry


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
    try:
        data = yaml.load(text, Loader=YamlLoader)
    except yaml.YAMLError as exc:
        raise ValidationError(f"not valid YAML: {exc}", path=where) from None
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a mapping", path=where)

    mode = data.get("mode", "bgp")
    if mode not in ("bgp", "configmap"):
        raise ValidationError(f"unknown mode {mode!r}", path=where)
    if data.get("segment_mode", "double") not in ("double", "single"):
        raise ValidationError(
            f"unknown segment_mode {data['segment_mode']!r}", path=where
        )
    families = data.get("families", ["v4", "v6"])
    if not isinstance(families, list) or not all(f in ("v4", "v6") for f in families):
        raise ValidationError(f"bad families {families!r}", path=f"{where}.families")
    fanout = data.get("configmap_fanout", "per-node")
    if fanout not in ("per-node", "single-map"):
        raise ValidationError(
            f"unknown configmap_fanout {fanout!r}", path=f"{where}.configmap_fanout"
        )

    routers, router_names = [], set()
    for rpath, r in _entries(data, "routers", where):
        name = str(_require(r, "name", rpath))
        if name in router_names:
            raise ValidationError(f"duplicate router name {name!r}", path=rpath)
        router_names.add(name)
        end_sid = _parsed(parse_v6, _require(r, "end_sid", rpath), f"{rpath}.end_sid")
        routers.append(RouterConfig(name, end_sid))
    links = []
    for lpath, l in _entries(data, "links", where):
        a, b = str(_require(l, "a", lpath)), str(_require(l, "b", lpath))
        for end in (a, b):
            if end not in router_names:
                raise ValidationError(f"link endpoint {end} is not a router", path=lpath)
        cost = l.get("cost", 1)
        if not isinstance(cost, int) or cost <= 0:
            raise ValidationError(f"link cost {cost!r} is not a positive integer", path=lpath)
        links.append(Link(a=a, b=b, cost=cost, name=str(l.get("name", f"{a}-{b}"))))

    nodes, node_names = [], set()
    for npath, n in _entries(data, "nodes", where):
        name = str(_require(n, "name", npath))
        if name in node_names:
            raise ValidationError(f"duplicate node name {name!r}", path=npath)
        if name in router_names:
            raise ValidationError(f"node name {name!r} is also a router name", path=npath)
        node_names.add(name)
        router = str(_require(n, "router", npath))
        if router not in router_names:
            raise ValidationError(f"unknown router {router}", path=npath)
        prefixes = []
        for family in ("v4", "v6"):
            key = f"pod_prefix_{family}"
            if family in families and n.get(key):
                prefixes.append(_parsed(parse_prefix, n[key], f"{npath}.{key}"))
        pinned = n.get("localsids") or {}
        if not isinstance(pinned, dict):
            raise ValidationError("'localsids' must be a mapping", path=f"{npath}.localsids")
        localsids = {
            k: _parsed(parse_v6, v, f"{npath}.localsids.{k}") for k, v in pinned.items()
        }
        nodes.append(
            NodeConfig(
                name=name,
                infra=_parsed(parse_v6, _require(n, "infra", npath), f"{npath}.infra"),
                router=router,
                pod_prefixes=tuple(prefixes),
                localsids=localsids,
                localsid_pool=n.get("localsid_pool"),
            )
        )

    pools, pool_names = [], set()
    for ppath, p in _entries(data, "pools", where):
        name = str(_require(p, "name", ppath))
        if name in pool_names:
            raise ValidationError(f"duplicate pool name {name!r}", path=ppath)
        pool_names.add(name)
        cidr = _parsed(parse_prefix, _require(p, "cidr", ppath), f"{ppath}.cidr")
        block = p.get("blockSize", p.get("block_size")) or 0
        pools.append(
            IpPool(
                name=name,
                cidr=cidr,
                block_size=_integer(block, f"{ppath}.blockSize") or cidr.prefixlen,
                node_selector=p.get("nodeSelector", p.get("node_selector")),
            )
        )

    pods, pod_names = [], set()
    for ppath, p in _entries(data, "pods", where):
        name = str(_require(p, "name", ppath))
        if name in pod_names:
            raise ValidationError(f"duplicate pod name {name!r}", path=ppath)
        pod_names.add(name)
        node = str(_require(p, "node", ppath))
        if node not in node_names:
            raise ValidationError(f"unknown node {node}", path=ppath)
        addrs = {}
        for family in ("v4", "v6"):
            if family in families and p.get(family):
                addrs[family] = _parsed(parse_addr, p[family], f"{ppath}.{family}")
        pods.append(PodConfig(name=name, node=node, addrs=addrs))

    configmaps = [
        parse_configmap_doc(doc, path=path)
        for path, doc in _entries(data, "configmaps", where, mappings=False)
    ]
    for doc in configmaps:
        if doc.node not in node_names:
            raise ValidationError(f"configmap for unknown node {doc.node}", path=where)

    return Scenario(
        name=str(data.get("name", "scenario")),
        mode=mode,
        seed=_integer(data.get("seed", 0), f"{where}.seed"),
        families=set(families),
        routers=routers,
        links=links,
        nodes=nodes,
        pools=pools,
        pods=pods,
        bsid_pool=data.get("bsid_pool"),
        auto_step2=bool(data.get("auto_step2", True)),
        segment_mode=data.get("segment_mode", "double"),
        configmap_fanout=fanout,
        configmaps=configmaps,
        injector=data.get("injector"),
        injector_registered=bool(data.get("injector_registered", True)),
        convergence_steps=_integer(
            data.get("convergence_steps", 10000), f"{where}.convergence_steps"
        ),
    )
