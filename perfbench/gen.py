"""Synthetic scenario generator for the benchmark.

Builds a k x k router grid with nodes placed round-robin on the routers.
Every node gets its own v4 and v6 pod prefix, one pod, and its own IPAM
pool for local SIDs; binding SIDs come from one shared pool. In configmap
mode every node also gets a full-mesh policy document whose tunnels each
pass one waypoint router chosen from the seed.

The package under test only ever sees the YAML text this module emits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from ipaddress import ip_address

import yaml

FAMILIES = ("v4", "v6")


@dataclass(frozen=True)
class RouterInfo:
    name: str
    row: int
    col: int
    end_sid: str


@dataclass(frozen=True)
class NodeInfo:
    index: int
    name: str
    router: str
    infra: str
    pod: str
    prefix: dict  # family -> pod prefix
    pod_addr: dict  # family -> pod address
    dt_sid: dict  # family -> End.DT4/End.DT6 SID


@dataclass
class Cluster:
    """Everything the benchmark must know about a generated scenario, so it
    can build inputs and check outputs without asking the package."""

    grid: int
    mode: str
    fanout: str
    seed: int
    routers: list[RouterInfo]
    nodes: list[NodeInfo]
    # (ingress node, egress node, family) -> waypoint router; configmap only
    waypoints: dict = field(default_factory=dict)

    def __post_init__(self):
        self._routers = {r.name: r for r in self.routers}

    def router(self, name: str) -> RouterInfo:
        return self._routers[name]

    def distance(self, a: NodeInfo, b: NodeInfo) -> int:
        ra, rb = self.router(a.router), self.router(b.router)
        return abs(ra.row - rb.row) + abs(ra.col - rb.col)

    def policy_bsid(self, ingress: NodeInfo, egress: NodeInfo, family: str) -> str:
        return _canon(f"cafe:1:{ingress.index:x}::{egress.index * 2 + FAMILIES.index(family):x}")

    def policy_entry(self, ingress: NodeInfo, egress: NodeInfo, family: str, waypoint: str) -> dict:
        """One configmap policy: waypoint End, egress router End, egress DT."""
        return {
            "bsid": self.policy_bsid(ingress, egress, family),
            "egress_node": egress.infra,
            "segment_list": [
                self.router(waypoint).end_sid,
                self.router(egress.router).end_sid,
                egress.dt_sid[family],
            ],
            "traffic": "IPv4" if family == "v4" else "IPv6",
        }

    def doc(self, node: NodeInfo) -> dict:
        return {
            "node": node.name,
            "localsids": {"DT4": node.dt_sid["v4"], "DT6": node.dt_sid["v6"]},
            "policies": [
                self.policy_entry(node, egress, family, self.waypoints[(node.name, egress.name, family)])
                for egress in self.nodes
                if egress is not node
                for family in FAMILIES
            ],
        }

    def scenario(self, seed: int | None = None) -> dict:
        data = {
            "name": f"grid{self.grid}-{self.mode}-{len(self.nodes)}",
            "mode": self.mode,
            "seed": self.seed if seed is None else seed,
            "families": list(FAMILIES),
            "auto_step2": True,
            "segment_mode": "double",
            "configmap_fanout": self.fanout,
            "convergence_steps": 1_000_000,
            "routers": [{"name": r.name, "end_sid": r.end_sid} for r in self.routers],
            "links": _grid_links(self.grid),
            "nodes": [
                {
                    "name": n.name,
                    "infra": n.infra,
                    "router": n.router,
                    "pod_prefix_v4": n.prefix["v4"],
                    "pod_prefix_v6": n.prefix["v6"],
                    "localsid_pool": f"sids-{n.name}",
                }
                for n in self.nodes
            ],
            "pools": [
                {"name": "bsids", "cidr": "cafe::/96", "blockSize": 120}
            ] + [
                {
                    "name": f"sids-{n.name}",
                    "cidr": f"fcdd:0:{n.index:x}::/112",
                    "blockSize": 120,
                    "nodeSelector": n.name,
                }
                for n in self.nodes
            ],
            "bsid_pool": "bsids",
            "pods": [
                {"name": n.pod, "node": n.name, "v4": n.pod_addr["v4"], "v6": n.pod_addr["v6"]}
                for n in self.nodes
            ],
        }
        if self.mode == "configmap":
            data["configmaps"] = [self.doc(n) for n in self.nodes]
        return data

    def scenario_yaml(self, seed: int | None = None) -> str:
        return yaml.safe_dump(self.scenario(seed), sort_keys=False, width=200)


def _canon(addr: str) -> str:
    """The address as the package prints it, so outputs compare as text."""
    return str(ip_address(addr))


def _router_name(grid: int, row: int, col: int) -> str:
    return f"R{row * grid + col:02d}"


def _grid_links(grid: int) -> list[dict]:
    links = []
    for row in range(grid):
        for col in range(grid):
            here = _router_name(grid, row, col)
            if col + 1 < grid:
                links.append({"a": here, "b": _router_name(grid, row, col + 1), "name": f"h{row}{col}"})
            if row + 1 < grid:
                links.append({"a": here, "b": _router_name(grid, row + 1, col), "name": f"v{row}{col}"})
    return links


def build_cluster(nodes: int, grid: int, mode: str, fanout: str = "per-node",
                  seed: int = 0) -> Cluster:
    """Describe a generated cluster; ``Cluster.scenario_yaml()`` renders it."""
    if mode not in ("bgp", "configmap"):
        raise ValueError(f"unknown mode {mode!r}")
    if fanout not in ("per-node", "single-map"):
        raise ValueError(f"unknown fan-out {fanout!r}")
    if not 1 <= grid <= 16 or not 2 <= nodes <= 255:
        raise ValueError("need 1 <= grid <= 16 and 2 <= nodes <= 255")
    routers = [
        RouterInfo(_router_name(grid, r, c), r, c, _canon(f"fcff:{r * grid + c + 1:x}::1"))
        for r in range(grid)
        for c in range(grid)
    ]
    infos = []
    for i in range(nodes):
        infos.append(
            NodeInfo(
                index=i,
                name=f"n{i:02d}",
                router=routers[i % len(routers)].name,
                infra=_canon(f"fd00:{i + 1:x}::1000"),
                pod=f"pod{i:02d}",
                prefix={"v4": f"10.{i}.0.0/24", "v6": f"fd90:0:{i:x}::/64"},
                pod_addr={"v4": f"10.{i}.0.10", "v6": f"fd90:0:{i:x}::10"},
                # the agent allocates DT4 then DT6 from the node's own pool
                dt_sid={"v4": _canon(f"fcdd:0:{i:x}::"), "v6": _canon(f"fcdd:0:{i:x}::1")},
            )
        )
    cluster = Cluster(grid=grid, mode=mode, fanout=fanout, seed=seed, routers=routers, nodes=infos)
    if mode == "configmap":
        rng = random.Random(seed)
        for ingress in infos:
            for egress in infos:
                if egress is ingress:
                    continue
                for family in FAMILIES:
                    cluster.waypoints[(ingress.name, egress.name, family)] = pick_waypoint(
                        rng, cluster, egress
                    )
    return cluster


def pick_waypoint(rng: random.Random, cluster: Cluster, egress: NodeInfo,
                  avoid: str | None = None) -> str:
    """A router other than the egress attachment router (and ``avoid``)."""
    choices = [r.name for r in cluster.routers if r.name not in (egress.router, avoid)]
    return rng.choice(choices)


def generate(nodes: int, grid: int, mode: str, fanout: str = "per-node", seed: int = 0) -> str:
    """Scenario YAML text for a generated grid cluster."""
    return build_cluster(nodes, grid, mode, fanout, seed).scenario_yaml()
