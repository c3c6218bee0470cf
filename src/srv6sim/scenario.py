"""Declarative scenario files: topology, cluster nodes, pools, pods and the
control-plane mode, parsed from YAML."""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path
from typing import Optional

import yaml

from .errors import AddrParseError, ValidationError
from .k8s import LOCALSID_KINDS, ConfigMapDoc, IpPool, YamlLoader, one_of, parse_configmap_doc
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


def _unique(value, seen: set, what: str, where: str):
    """``value``, added to ``seen``; a located ValidationError if already there."""
    if value in seen:
        raise ValidationError(f"duplicate {what} {value!r}", path=where)
    seen.add(value)
    return value


def _boolean(data: dict, key: str, default: bool, where: str) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{key} {value!r} is not a boolean", path=f"{where}.{key}")
    return value


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

    mode = one_of(data.get("mode", "bgp"), ("bgp", "configmap"), "mode", where)
    segment_mode = one_of(data.get("segment_mode", "double"), ("double", "single"),
                          "segment_mode", where)
    families = data.get("families", ["v4", "v6"])
    if not isinstance(families, list) or not all(f in ("v4", "v6") for f in families):
        raise ValidationError(f"bad families {families!r}", path=f"{where}.families")
    fanout = one_of(data.get("configmap_fanout", "per-node"), ("per-node", "single-map"),
                    "configmap_fanout", f"{where}.configmap_fanout")

    routers, router_names = [], set()
    for rpath, r in _entries(data, "routers", where):
        name = _unique(str(_require(r, "name", rpath)), router_names, "router name", rpath)
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

    nodes, node_names, infras = [], set(), set()
    pool_refs = [(data.get("bsid_pool"), f"{where}.bsid_pool")]
    for npath, n in _entries(data, "nodes", where):
        name = _unique(str(_require(n, "name", npath)), node_names, "node name", npath)
        if name in router_names:
            raise ValidationError(f"node name {name!r} is also a router name", path=npath)
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
            one_of(k, LOCALSID_KINDS, "localsid kind", f"{npath}.localsids"):
                _parsed(parse_v6, v, f"{npath}.localsids.{k}")
            for k, v in pinned.items()
        }
        infra = _parsed(parse_v6, _require(n, "infra", npath), f"{npath}.infra")
        _unique(str(infra), infras, "infra", f"{npath}.infra")
        nodes.append(
            NodeConfig(
                name=name,
                infra=infra,
                router=router,
                pod_prefixes=tuple(prefixes),
                localsids=localsids,
                localsid_pool=n.get("localsid_pool"),
            )
        )
        pool_refs.append((n.get("localsid_pool"), f"{npath}.localsid_pool"))

    pools, pool_names = [], set()
    for ppath, p in _entries(data, "pools", where):
        name = _unique(str(_require(p, "name", ppath)), pool_names, "pool name", ppath)
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
    for pool, ref in pool_refs:
        one_of(pool, (None, *pool_names), "pool", ref)

    pods, pod_names = [], set()
    for ppath, p in _entries(data, "pods", where):
        name = _unique(str(_require(p, "name", ppath)), pod_names, "pod name", ppath)
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
        auto_step2=_boolean(data, "auto_step2", True, where),
        segment_mode=segment_mode,
        configmap_fanout=fanout,
        configmaps=configmaps,
        injector=data.get("injector"),
        injector_registered=_boolean(data, "injector_registered", True, where),
        convergence_steps=_integer(
            data.get("convergence_steps", 10000), f"{where}.convergence_steps"
        ),
    )
