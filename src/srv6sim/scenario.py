"""Declarative scenario files: topology, cluster nodes, pools, pods and the
control-plane mode, parsed from YAML."""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv6Address, IPv6Network
from pathlib import Path
from typing import Optional

import yaml

from .errors import ValidationError
from .k8s import ConfigMapDoc, IpPool, YamlLoader, parse_configmap_doc
from .net_types import Addr, Prefix, parse_addr, parse_prefix, parse_v6


@dataclass(frozen=True)
class RouterConfig:
    name: str
    end_sid: IPv6Address

    @property
    def sid_prefix(self) -> IPv6Network:
        return IPv6Network((self.end_sid, 32), strict=False)


@dataclass(frozen=True)
class LinkConfig:
    a: str
    b: str
    cost: int
    name: str


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
    links: list[LinkConfig]
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
    families = set(data.get("families", ["v4", "v6"]))
    if not families <= {"v4", "v6"}:
        raise ValidationError(f"bad families {sorted(families)}", path=where)

    routers, router_names = [], set()
    for i, r in enumerate(data.get("routers", [])):
        rpath = f"{where}.routers[{i}]"
        name = str(_require(r, "name", rpath))
        if name in router_names:
            raise ValidationError(f"duplicate router name {name!r}", path=rpath)
        router_names.add(name)
        routers.append(RouterConfig(name, parse_v6(str(_require(r, "end_sid", rpath)))))
    links = []
    for i, l in enumerate(data.get("links", [])):
        lpath = f"{where}.links[{i}]"
        a, b = str(_require(l, "a", lpath)), str(_require(l, "b", lpath))
        for end in (a, b):
            if end not in router_names:
                raise ValidationError(f"link endpoint {end} is not a router", path=lpath)
        cost = l.get("cost", 1)
        if not isinstance(cost, int) or cost <= 0:
            raise ValidationError(f"link cost {cost!r} is not a positive integer", path=lpath)
        links.append(LinkConfig(a=a, b=b, cost=cost, name=str(l.get("name", f"{a}-{b}"))))

    nodes = []
    for i, n in enumerate(data.get("nodes", [])):
        npath = f"{where}.nodes[{i}]"
        router = str(_require(n, "router", npath))
        if router not in router_names:
            raise ValidationError(f"unknown router {router}", path=npath)
        prefixes = []
        if "v4" in families and n.get("pod_prefix_v4"):
            prefixes.append(parse_prefix(str(n["pod_prefix_v4"])))
        if "v6" in families and n.get("pod_prefix_v6"):
            prefixes.append(parse_prefix(str(n["pod_prefix_v6"])))
        localsids = {
            k: parse_v6(str(v)) for k, v in (n.get("localsids") or {}).items()
        }
        nodes.append(
            NodeConfig(
                name=str(_require(n, "name", npath)),
                infra=parse_v6(str(_require(n, "infra", npath))),
                router=router,
                pod_prefixes=tuple(prefixes),
                localsids=localsids,
                localsid_pool=n.get("localsid_pool"),
            )
        )
    node_names = {n.name for n in nodes}

    pools = [
        IpPool(
            name=str(p["name"]),
            cidr=parse_prefix(str(p["cidr"])),
            block_size=int(p.get("blockSize", p.get("block_size", 0)) or 0)
            or parse_prefix(str(p["cidr"])).prefixlen,
            node_selector=p.get("nodeSelector", p.get("node_selector")),
        )
        for p in data.get("pools", [])
    ]

    pods = []
    for i, p in enumerate(data.get("pods", [])):
        ppath = f"{where}.pods[{i}]"
        node = str(_require(p, "node", ppath))
        if node not in node_names:
            raise ValidationError(f"unknown node {node}", path=ppath)
        addrs = {}
        if "v4" in families and p.get("v4"):
            addrs["v4"] = parse_addr(str(p["v4"]))
        if "v6" in families and p.get("v6"):
            addrs["v6"] = parse_addr(str(p["v6"]))
        pods.append(PodConfig(name=str(_require(p, "name", ppath)), node=node, addrs=addrs))

    configmaps = [
        parse_configmap_doc(doc, path=f"{where}.configmaps[{i}]")
        for i, doc in enumerate(data.get("configmaps", []))
    ]
    for doc in configmaps:
        if doc.node not in node_names:
            raise ValidationError(f"configmap for unknown node {doc.node}", path=where)

    return Scenario(
        name=str(data.get("name", "scenario")),
        mode=mode,
        seed=int(data.get("seed", 0)),
        families=families,
        routers=routers,
        links=links,
        nodes=nodes,
        pools=pools,
        pods=pods,
        bsid_pool=data.get("bsid_pool"),
        auto_step2=bool(data.get("auto_step2", True)),
        segment_mode=data.get("segment_mode", "double"),
        configmap_fanout=data.get("configmap_fanout", "per-node"),
        configmaps=configmaps,
        injector=data.get("injector"),
        injector_registered=bool(data.get("injector_registered", True)),
        convergence_steps=int(data.get("convergence_steps", 10000)),
    )
