"""The benchmark workloads and the closed loop that measures them.

Load model: one process, one thread, closed loop. A single caller issues
the next operation only after the previous one returns, and the workloads
run one per process.

A run is a sequence of rounds. Each round sets up a fresh simulation from
generated scenario text, brings it up, then sends short pings, then long
pings, then issues the workload's control-plane updates. Traffic runs
before the updates so that its paths do not depend on which tunnels the
updates happened to reroute. Rounds
repeat until the time budget is spent, with at least ``min_rounds`` so that
the latency percentiles have enough samples. Round seeds cycle through
``SEED_CYCLE`` values derived from the workload seed, so a later round
repeats an earlier one exactly and its outputs and counts must match.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
from contextlib import nullcontext
from dataclasses import dataclass, field
from ipaddress import IPv6Address, ip_address
from typing import Optional

from gen import FAMILIES, Cluster, build_cluster, pick_waypoint
from hostspeed import timed

# SRv6 endpoint behavior codes carried in SAFI-73 segments
BEHAVIOR_END = 1
BEHAVIOR_END_DT6 = 18
BEHAVIOR_END_DT4 = 19

SEED_CYCLE = 7
# untimed set-ups before the rounds, the first of which warms caches
EXTRA_SETUPS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    nodes: int
    grid: int
    updates: int  # control-plane updates per round
    # Short pings per round. With ``mesh_sources`` set, that many fixed
    # source pods ping every other pod in one family chosen per round;
    # otherwise each round samples ``pings`` (source, destination, family)
    # triples.
    mesh_sources: Optional[int]
    pings: int
    bulk_pings: int  # long pings per round between distant pod pairs
    bulk_packets: int  # packets per long ping
    min_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="configmap-churn",
            why="configmap document rewrites: YAML render/parse, KvStore poll, diff_policies, reconciliation",
            mode="configmap", nodes=24, grid=4, updates=30, mesh_sources=None, pings=30,
            bulk_pings=1, bulk_packets=256, min_rounds=8,
        ),
        Workload(
            name="pod-traffic",
            why="bgp bring-ups, pings and SAFI-73 injects: bus scheduler, SAFI-73 codec, agent install, "
                "route computation per ping, per-packet LPM and hop forwarding",
            mode="bgp", nodes=32, grid=4, updates=25, mesh_sources=2, pings=0,
            bulk_pings=2, bulk_packets=768, min_rounds=8,
        ),
    )
}


def digest(data) -> str:
    if not isinstance(data, str):
        data = json.dumps(data, sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def round_seed(seed: int, k: int) -> int:
    return random.Random(f"srv6sim-bench:{seed}:{k % SEED_CYCLE}").getrandbits(32)


@dataclass
class RoundResult:
    seed: int
    # (kind, wall-clock seconds, seconds at the reference host speed) of
    # every timed operation; kind is setup, converge, update, ping or bulk
    timed: list = field(default_factory=list)
    bulk_delivered: int = 0  # packets the long pings delivered
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # correctness guard failures
    state_digest: Optional[str] = None
    report_digest: Optional[str] = None
    counts: dict = field(default_factory=dict)

    @property
    def work_s(self) -> float:
        """Wall-clock seconds of every timed operation."""
        return sum(seconds for _, seconds, _ in self.timed)

    def count(self, kind: str) -> int:
        return sum(1 for k, _, _ in self.timed if k == kind)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.errors.append(what)


class Runner:
    """Runs rounds of one workload against the package in ``src/``."""

    def __init__(self, package, workload: Workload, seed: int):
        self.pkg = package
        self.wl = workload
        self.seed = seed
        self.cluster: Cluster = build_cluster(workload.nodes, workload.grid, workload.mode, seed=seed)
        self.sources = _symmetric_sources(self.cluster, workload.mesh_sources or 0, random.Random(seed))
        self._texts: dict[int, str] = {}
        span = max(self.cluster.distance(a, b) for a in self.cluster.nodes for b in self.cluster.nodes)
        self.distant = [
            (a, b) for a in self.cluster.nodes for b in self.cluster.nodes
            if self.cluster.distance(a, b) == span
        ]

    def scenario_text(self, rseed: int) -> str:
        if rseed not in self._texts:
            self._texts[rseed] = self.cluster.scenario_yaml(seed=rseed)
        return self._texts[rseed]

    def setup(self, text: str, context=None):
        """Returns the simulation, its wall-clock and its scaled seconds."""
        return timed(lambda: self.pkg.Simulation(self.pkg.scenario.load_scenario(text)), context)

    # -- one round ---------------------------------------------------------

    def run_round(self, k: int, tracer=None) -> RoundResult:
        rseed = round_seed(self.seed, k)
        text = self.scenario_text(rseed)
        r = RoundResult(seed=rseed)
        rng = random.Random(rseed)
        op = tracer.op if tracer is not None else (lambda kind: nullcontext())
        untimed = tracer.paused if tracer is not None else nullcontext

        sim, *times = self.setup(text, op("setup"))
        r.timed.append(("setup", *times))
        base_mutations = _mutations(sim)

        r.attempted += 1
        try:
            _, *times = timed(sim.start, op("start"))
        except self.pkg.errors.ConvergenceError as exc:
            r.fail(f"bring-up did not converge: {exc}")
            return r
        r.timed.append(("converge", *times))
        with untimed():
            r.state_digest = digest(sim.state_dump())

        for src, dst, family in self._mesh(rng):
            self._ping(sim, r, op, src, dst, family, 4, "ping")
        for i in range(self.wl.bulk_pings):
            src, dst = rng.choice(self.distant)
            self._ping(sim, r, op, src, dst, FAMILIES[i % 2], self.wl.bulk_packets, "bulk")

        updates = self._inject_updates if self.wl.mode == "bgp" else self._configmap_updates
        for apply, check in updates(rng, sim):
            r.attempted += 1
            try:
                outcome, *times = timed(apply, op("update"))
            except self.pkg.errors.SimError as exc:
                r.fail(f"update raised {exc!r}")
                continue
            r.timed.append(("update", *times))
            with untimed():
                problem = check(outcome)
            if problem:
                r.fail(problem)

        with untimed():
            report = sim.report_json()
            r.report_digest = digest(report)
            r.counts = {
                "events": len(sim.events),
                "mutations": _mutations(sim) - base_mutations,
                "control": json.loads(report)["control"],
                "install_ratio": _install_ratio(sim.events),
            }
        return r

    def _ping(self, sim, r: RoundResult, op, src, dst, family: str, count: int, kind: str) -> None:
        """A short ping (kind "ping") or a long one ("bulk")."""
        r.attempted += count
        try:
            report, *times = timed(lambda: sim.ping(src.pod, dst.pod, count=count, family=family), op("ping"))
        except self.pkg.errors.SimError as exc:
            r.fail(f"ping {src.pod}->{dst.pod} {family} raised {exc!r}", count)
            return
        r.timed.append((kind, *times))
        want = ip_address(dst.pod_addr[family])
        good = sum(
            1 for t in report.traces
            if t.delivered and t.deliver_node == dst.name and t.disposition.inner.dst == want
        )
        if good != count or report.delivered != count:
            r.fail(f"ping {src.pod}->{dst.pod} {family}: {good}/{count} delivered "
                   f"({report.drop_reasons[:3]})", count - good)
        if kind == "bulk":
            r.bulk_delivered += good

    def _mesh(self, rng: random.Random):
        nodes = self.cluster.nodes
        if self.sources:
            family = rng.choice(FAMILIES)
            return [(s, d, family) for s in self.sources for d in nodes if d is not s]
        return [(s, d, rng.choice(FAMILIES)) for s, d in (rng.sample(nodes, 2) for _ in range(self.wl.pings))]

    def _waypoint_check(self, sim, src, dst, family: str, expected: list):
        trace = sim.trace(src.pod, dst.pod, family)
        got = self.pkg.underlay.waypoints(trace)
        if got != expected or trace.deliver_node != dst.name:
            return f"trace {src.pod}->{dst.pod} {family}: waypoints {got}, expected {expected}"
        return None

    # -- bgp: injector SAFI-73 updates -------------------------------------

    def _inject_updates(self, rng: random.Random, sim):
        bgp = self.pkg.bgp
        nodes = self.cluster.nodes
        for k in range(self.wl.updates):
            egress = rng.choice(nodes)
            family = FAMILIES[k % 2]
            waypoint = pick_waypoint(rng, self.cluster, egress)
            src = rng.choice([n for n in nodes if n is not egress])
            dt_code = BEHAVIOR_END_DT4 if family == "v4" else BEHAVIOR_END_DT6
            update = bgp.SrPolicySafiUpdate(
                distinguisher=1000 + k,
                color=100,
                endpoint=IPv6Address(egress.infra),
                bsid=IPv6Address(f"cafe:2:0:{k:x}::{egress.index * 2 + FAMILIES.index(family):x}"),
                segments=(
                    bgp.Segment(IPv6Address(self.cluster.router(waypoint).end_sid), BEHAVIOR_END),
                    bgp.Segment(IPv6Address(self.cluster.router(egress.router).end_sid), BEHAVIOR_END),
                    bgp.Segment(IPv6Address(egress.dt_sid[family]), dt_code),
                ),
                next_hop=IPv6Address(egress.infra),
            )
            expected = [waypoint, egress.router]
            yield (
                lambda u=update: sim.inject(u),
                lambda _out, s=src, e=egress, f=family, x=expected: self._waypoint_check(sim, s, e, f, x),
            )

    # -- configmap: reroute one tunnel, remove one policy, add it back -----

    def _configmap_updates(self, rng: random.Random, sim):
        cluster = self.cluster
        current = dict(cluster.waypoints)  # (ingress, egress, family) -> waypoint
        for k in range(self.wl.updates):
            step = k % 3
            if step == 0:
                node = rng.choice(cluster.nodes)
                egress = rng.choice([n for n in cluster.nodes if n is not node])
                family = rng.choice(FAMILIES)
                key = (node.name, egress.name, family)
                waypoint = pick_waypoint(rng, cluster, egress, avoid=current[key])
                current[key] = waypoint
            if step == 1:
                removed = current.pop(key)
            if step == 2:
                current[key] = removed
            doc = self._doc(node, current)
            verb = ("replaced", "removed", "added")[step]
            yield (
                lambda d=doc: sim.apply_configmaps([d]),
                lambda out, n=node, e=egress, f=family, v=verb, w=waypoint, s=step:
                    self._configmap_check(sim, out, n, e, f, v, None if s == 1 else [w, e.router]),
            )

    def _doc(self, node, current: dict):
        k8s = self.pkg.k8s
        policies = []
        for egress in self.cluster.nodes:
            for family in FAMILIES:
                waypoint = current.get((node.name, egress.name, family))
                if waypoint is None:
                    continue
                entry = self.cluster.policy_entry(node, egress, family, waypoint)
                policies.append(
                    k8s.PolicyDocEntry(
                        egress_node=IPv6Address(entry["egress_node"]),
                        bsid=IPv6Address(entry["bsid"]),
                        segment_list=tuple(IPv6Address(s) for s in entry["segment_list"]),
                        traffic=entry["traffic"],
                    )
                )
        return k8s.ConfigMapDoc(
            node=node.name,
            localsids={"DT4": IPv6Address(node.dt_sid["v4"]), "DT6": IPv6Address(node.dt_sid["v6"])},
            policies=tuple(policies),
        )

    def _configmap_check(self, sim, summaries, node, egress, family, verb, expected):
        if summaries != [f"{node.name}: 1 {verb}"]:
            return f"apply-configmap on {node.name}: {summaries}, expected 1 {verb}"
        if expected is not None:
            return self._waypoint_check(sim, node, egress, family, expected)
        report = sim.ping(node.pod, egress.pod, count=1, family=family)
        if report.delivered or report.drop_reasons != ["no steering match"]:
            return f"removed tunnel {node.name}->{egress.name} {family} still carries traffic"
        return None


def _symmetric_sources(cluster: Cluster, count: int, rng: random.Random) -> list:
    """``count`` source nodes at fixed grid positions (a corner, then inner
    routers along the diagonal) under a seed-chosen symmetry of the grid, so
    every seed sees the same distribution of path lengths."""
    last = cluster.grid - 1
    flip, turns = rng.random() < 0.5, rng.randrange(4)
    sources = []
    for i in range(count):
        row, col = (0, 0) if i == 0 else (i, i)
        for _ in range(turns):
            row, col = col, last - row
        if flip:
            row, col = col, row
        router = next(r.name for r in cluster.routers if (r.row, r.col) == (row, col))
        sources.append(rng.choice([n for n in cluster.nodes if n.router == router]))
    return sources


def _mutations(sim) -> int:
    return sum(dp.version for dp in sim.dataplanes.values())


def _install_ratio(events) -> float:
    installed = sum(1 for e in events if e[2] == "policy-installed")
    pending = sum(1 for e in events if e[2] == "policy-pending")
    return installed / (installed + pending) if installed + pending else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
