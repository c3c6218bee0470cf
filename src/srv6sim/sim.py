"""Simulation driver: wires the underlay, per-node dataplanes, agents and
the chosen control plane together under one deterministic scheduler.

All nondeterminism (cross-session message interleaving) is drawn from a
single seeded RNG, so identical scenario + seed reproduces identical
traces and reports.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from ipaddress import IPv6Network
from typing import Optional

import yaml

from .agent import Agent
from .bgp import SessionBus, SrPolicySafiUpdate, encode_safi73
from .dataplane import Behavior, Disposition, LocalSidEntry, NodeDataplane
from .errors import (
    ConvergenceError,
    ModeMismatchError,
    SimError,
    UnknownNodeError,
    ValidationError,
)
from .graph import VECTOR_MAX, run_vector
from .k8s import (
    SINGLE_MAP_KEY,
    ConfigMapDoc,
    IpamAllocator,
    KvStore,
    WatchHandle,
    configmap_key,
    decodes_to_itself,
    parse_configmap_doc,
    poll,
    render_configmap_doc,
)
from .net_types import InnerPacket, parse_prefix
from .scenario import Scenario
from .schema import get, load, present, section
from .underlay import Hop, RouteTable, Topology, TraceRecord, compute_routes, forward


def load_configmap_docs(text: str, path: str = "configmap file") -> list[ConfigMapDoc]:
    """Read policy documents from YAML: either plain documents or Kubernetes
    ConfigMap manifests whose ``data.srv6`` value holds the document."""
    docs = []
    for i, raw in enumerate(load(text, path, every=True)):
        if isinstance(raw, dict) and raw.get("kind") == "ConfigMap":
            where = f"{path}.manifest[{i}]"
            srv6 = get(section(raw, "data", where, dict), "srv6", f"{where}.data")
            docs.append(parse_configmap_doc(srv6, path=where))
        elif isinstance(raw, list):
            docs.extend(parse_configmap_doc(d, path=f"{path}.doc[{i}][{j}]")
                        for j, d in enumerate(raw))
        elif raw is not None:
            docs.append(parse_configmap_doc(raw, path=f"{path}.doc[{i}]"))
    return docs


@dataclass
class PingReport:
    src_pod: str
    dst_pod: str
    family: str
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    traces: list[TraceRecord] = field(default_factory=list)
    drop_reasons: list[str] = field(default_factory=list)


class Simulation:
    def __init__(self, scenario: Scenario):
        if scenario.mode == "bgp" and scenario.families:  # bgp agents allocate from these pools
            if scenario.auto_step2:
                present(scenario.bsid_pool, "bsid_pool", scenario.source, "for bgp auto_step2")
            for i, node in enumerate(scenario.nodes):
                if not node.localsids:
                    present(node.localsid_pool, "localsid_pool", f"{scenario.source}.nodes[{i}]",
                            "in bgp mode without pinned localsids")
        if scenario.mode == "configmap":  # configmap agents take their localSIDs from these
            documented = {doc.node for doc in scenario.configmaps}
            for node in scenario.nodes:
                if node.name not in documented:
                    raise ValidationError(f"missing configmap for node {node.name!r}, "
                                          "needed in configmap mode",
                                          path=f"{scenario.source}.configmaps")
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.metrics: Counter = Counter()
        self.events: list = []
        self.tunnel_counts: Counter = Counter()
        self.traces_forwarded = 0

        self.topology = Topology(
            routers={r.name for r in scenario.routers}, links=list(scenario.links)
        )
        self.router_sids: dict[str, IPv6Network] = {}
        self.dataplanes: dict[str, NodeDataplane] = {}
        for router in scenario.routers:
            dp = NodeDataplane(router.name, self.metrics)
            dp.install_localsid(
                LocalSidEntry(sid=router.end_sid, behavior=Behavior("End"))
            )
            self.dataplanes[router.name] = dp
            self.router_sids[router.name] = router.sid_prefix
        for node in scenario.nodes:
            self.topology.attach(node.name, node.router)
            dp = NodeDataplane(node.name, self.metrics)
            dp.add_fib_route(parse_prefix("::/0"), node.router)
            self.dataplanes[node.name] = dp

        self.bus = SessionBus()
        for node in scenario.nodes:
            self.bus.register(node.name)
        self.injector = scenario.injector or "srv6-pi"
        self.bus.register(self.injector)

        self.ipam = IpamAllocator(scenario.pools)
        self.store = KvStore()
        self.watches: dict[str, WatchHandle] = {}

        router_by_name = {r.name: r for r in scenario.routers}
        cluster = [n.name for n in scenario.nodes]
        external = {self.injector} if scenario.injector_registered else set()
        self.agents: dict[str, Agent] = {}
        for node in scenario.nodes:
            self.agents[node.name] = Agent(
                name=node.name,
                infra=node.infra,
                dataplane=self.dataplanes[node.name],
                bus=self.bus,
                mode=scenario.mode,
                cluster_nodes=cluster,
                pod_prefixes=list(node.pod_prefixes),
                families=set(scenario.families),
                router_end_sid=router_by_name[node.router].end_sid,
                ipam=self.ipam,
                bsid_pool=scenario.bsid_pool,
                localsid_pool=node.localsid_pool,
                pinned_localsids=node.localsids,
                external_peers=external,
                events=self.events,
                metrics=self.metrics,
                segment_mode=scenario.segment_mode,
            )
        self.pods = {p.name: p for p in scenario.pods}
        self.started = False
        self._routes: tuple[Optional[int], RouteTable] = (None, {})  # (key, routes)
        self._map_items: dict[str, tuple[str, str]] = {}  # node -> (text, its single-map entry)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Simulation":
        """Start all agents (sorted node order) and quiesce the control plane."""
        scenario = self.scenario
        if scenario.mode == "configmap":
            self._write_docs(scenario.configmaps)
        for name in sorted(self.agents):
            agent = self.agents[name]
            doc = None
            if scenario.mode == "configmap":
                doc = self._read_doc(name)
                self.watches[name] = self._make_watch(name)
            agent.startup(configmap_doc=doc, auto_step2=scenario.auto_step2)
        self.run_to_quiescence()
        self.started = True
        return self

    def _make_watch(self, node: str) -> WatchHandle:
        single = self.scenario.configmap_fanout == "single-map"
        keys = (SINGLE_MAP_KEY if single else configmap_key(node),)
        last_seen = {k: self.store.entries.get(k, ("", 0))[1] for k in keys}
        return WatchHandle(keys=keys, last_seen=last_seen)

    def _write_docs(self, docs: list[ConfigMapDoc]) -> None:
        """Write rendered documents, the single map as one write, recording
        each document that its text decodes back to, with canonical addresses."""
        if self.scenario.configmap_fanout == "per-node":
            for doc in docs:
                same = decodes_to_itself(doc)
                self.store.write(configmap_key(doc.node), render_configmap_doc(same or doc), same)
        elif docs:
            texts, decoded = (dict(part) for part in self._single_map())
            for doc in docs:
                decoded[doc.node] = same = decodes_to_itself(doc)
                texts[doc.node] = render_configmap_doc(same or doc)
            self.store.write(SINGLE_MAP_KEY, self._map_text(texts), (texts, decoded))

    def _map_text(self, texts: dict) -> str:
        """``yaml.safe_dump(texts, sort_keys=True)`` of a non-empty map, joined
        from one dump per entry, each kept while its node's text stays."""
        items = self._map_items
        for node, text in texts.items():
            if items.get(node, (None,))[0] != text:
                items[node] = (text, yaml.safe_dump({node: text}, sort_keys=True))
        return "".join(items[node][1] for node in sorted(texts))

    def _single_map(self) -> tuple[dict, dict]:
        """``({node: text}, {node: document or None})`` of the stored map version."""
        if self.store.decoded.get(SINGLE_MAP_KEY) is None:
            text = self.store.entries.get(SINGLE_MAP_KEY, ("",))[0]
            self.store.decoded[SINGLE_MAP_KEY] = (load(text, SINGLE_MAP_KEY) or {}, {})
        return self.store.decoded[SINGLE_MAP_KEY]

    def _read_doc(self, node: str) -> Optional[ConfigMapDoc]:
        """``node``'s stored document, decoded at most once per stored version."""
        if self.scenario.configmap_fanout == "single-map":
            texts, decoded = self._single_map()
            if node not in texts:
                return None
            if decoded.get(node) is None:
                decoded[node] = parse_configmap_doc(texts[node], path=f"single-map.{node}")
            return decoded[node]
        key = configmap_key(node)
        if key not in self.store.entries:
            return None
        if self.store.decoded.get(key) is None:
            self.store.decoded[key] = parse_configmap_doc(self.store.entries[key][0], path=key)
        return self.store.decoded[key]

    def run_to_quiescence(self) -> int:
        """Drain the session bus, one message per step, seeded interleaving."""
        steps = 0
        while not self.bus.quiesced:
            sessions = self.bus.pending_sessions()
            src, dst = self.rng.choice(sessions)
            message = self.bus.pop((src, dst))
            agent = self.agents.get(dst)
            if agent is not None:
                agent.handle_message(src, message)
            steps += 1
            if steps > self.scenario.convergence_steps:
                raise ConvergenceError(
                    f"control plane still busy after {steps} steps"
                )
        return steps

    # -- control-plane inputs ---------------------------------------------

    def inject(self, update: SrPolicySafiUpdate) -> None:
        """Deliver a policy update from the injector peer to every node."""
        if self.scenario.mode != "bgp":
            raise ModeMismatchError("inject requires bgp mode; use apply-configmap")
        payload = ("safi73", encode_safi73(update))
        self.bus.broadcast(self.injector, [n.name for n in self.scenario.nodes], payload)
        self.metrics["injects"] += 1
        self.run_to_quiescence()

    def apply_configmaps(self, docs: list[ConfigMapDoc]) -> list[str]:
        """Write documents to the store, then let every watcher poll."""
        if self.scenario.mode != "configmap":
            raise ModeMismatchError("apply-configmap requires configmap mode")
        for doc in docs:
            if doc.node not in self.agents:
                raise UnknownNodeError(doc.node)
        self._write_docs(docs)
        return self.poll_all()

    def poll_all(self) -> list[str]:
        """One poll round for every agent, in sorted node order."""
        summaries = []
        for name in sorted(self.agents):
            agent = self.agents[name]
            watch = self.watches.get(name)
            if watch is None:
                continue
            for _key, _value, _version in poll(self.store, watch):
                doc = self._read_doc(name)
                if doc is None:
                    continue
                try:
                    diff = agent.on_configmap_change(doc)
                except ValidationError as exc:
                    self.events.append(
                        (len(self.events), name, "configmap-rejected", str(exc))
                    )
                    continue
                summaries.append(f"{name}: {diff.summary()}")
        self.run_to_quiescence()
        return summaries

    # -- forwarding --------------------------------------------------------

    def current_routes(self) -> RouteTable:
        """Routes to every router's SID block and every node's infra address and
        localSIDs; recomputed only when a localSID changes (topology is fixed)."""
        key = self.metrics["localsid_changes"]
        if key != self._routes[0]:
            advertised = {prefix: router for router, prefix in self.router_sids.items()}
            for node in self.scenario.nodes:
                advertised[IPv6Network((node.infra, 128))] = node.name
                for sid in self.dataplanes[node.name].localsids:
                    advertised[IPv6Network((sid, 128))] = node.name
            self._routes = (key, compute_routes(self.topology, advertised))
        return self._routes[1]

    def ping(self, src_pod: str, dst_pod: str, count: int = 4,
             family: str = "v6") -> PingReport:
        """Synthesize ``count`` inner packets and push them through the full
        steer/encap/underlay/decap pipeline."""
        if count < 1:
            raise SimError(f"ping count {count} is not positive")
        if src_pod not in self.pods or dst_pod not in self.pods:
            raise UnknownNodeError(f"unknown pod {src_pod!r} or {dst_pod!r}")
        src, dst = self.pods[src_pod], self.pods[dst_pod]
        if family not in src.addrs or family not in dst.addrs:
            raise SimError(f"pods lack {family} addresses")
        report = PingReport(src_pod=src_pod, dst_pod=dst_pod, family=family)
        report.sent = count
        if src.node == dst.node:
            # local FIB path: no encapsulation involved
            report.delivered = count
            return report
        dp = self.dataplanes[src.node]
        routes = self.current_routes()
        memo: dict = {}  # forward's flow memo; nothing changes routes or dataplanes in a call
        want = dst.addrs[family]
        remaining = count
        while remaining > 0:
            batch = min(remaining, VECTOR_MAX)
            vector = [_probe(src, dst, family, i) for i in range(batch)]
            # Free the packets, and each disposition once it is forwarded,
            # so that only the traces outlive their packet.
            dispositions = run_vector(dp, vector)[::-1]
            del vector
            while dispositions:
                disp = dispositions.pop()
                if disp.kind == "drop":
                    report.dropped += 1
                    report.drop_reasons.append(disp.reason)
                    continue
                trace = forward(
                    self.topology, routes, src.node, disp.packet, self.dataplanes, memo
                )
                report.traces.append(trace)
                self.traces_forwarded += 1
                if (
                    trace.delivered
                    and trace.deliver_node == dst.node
                    and (trace.disposition.inner.dst is want or trace.disposition.inner.dst == want)
                ):
                    report.delivered += 1
                else:
                    report.dropped += 1
                    report.drop_reasons.append(trace.drop_reason or "misdelivered")
            remaining -= batch
        if report.delivered:
            self.tunnel_counts[f"{src.node}->{dst.node}/{family}"] += report.delivered
        return report

    def trace(self, src_pod: str, dst_pod: str, family: str = "v6") -> TraceRecord:
        """The trace of a one-packet ping. Between two pods of one node the
        local FIB delivers the packet, so its trace is one deliver hop there."""
        report = self.ping(src_pod, dst_pod, count=1, family=family)
        src, dst = self.pods[src_pod], self.pods[dst_pod]
        if src.node == dst.node:
            inner = _probe(src, dst, family, 0)
            return TraceRecord(
                hops=[Hop(src.node, inner.dst, "deliver")],
                disposition=Disposition(kind="deliver", inner=inner),
                deliver_node=src.node,
            )
        if not report.traces:
            raise SimError(f"no trace: {report.drop_reasons}")
        return report.traces[0]

    # -- inspection --------------------------------------------------------

    def show(self, node: str, what: str) -> str:
        if node not in self.dataplanes:
            raise UnknownNodeError(node)
        dp = self.dataplanes[node]
        renderers = {
            "localsids": dp.show_localsids,
            "policies": dp.show_policies,
            "steering": dp.show_steering,
            "encap-source": dp.show_encap_source,
        }
        if what not in renderers:
            raise SimError(f"unknown show target {what!r}")
        return renderers[what]()

    def state_dump(self) -> dict:
        """Per-cluster-node configured state (no counters), for equality checks."""
        return {
            n.name: self.dataplanes[n.name].dump() for n in self.scenario.nodes
        }

    def report(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "mode": self.scenario.mode,
            "seed": self.scenario.seed,
            "localsid_counters": {
                n.name: self.dataplanes[n.name].counters()
                for n in self.scenario.nodes
            },
            "router_counters": {
                r.name: self.dataplanes[r.name].counters()
                for r in self.scenario.routers
            },
            "tunnel_packets": dict(sorted(self.tunnel_counts.items())),
            "control": {
                "step1_sent": self.metrics.get("step1_sent", 0),
                "step2_sent": self.metrics.get("step2_sent", 0),
                "step2_received": self.metrics.get("step2_received", 0),
                "injects": self.metrics.get("injects", 0),
                "polls": self.store.poll_count,
                "scan_units": self.store.scan_units,
            },
            "traces": self.traces_forwarded,
        }

    def report_json(self) -> str:
        return json.dumps(self.report(), indent=2, sort_keys=True)


def _probe(src, dst, family: str, i: int) -> InnerPacket:
    """The ``i``-th inner packet of a ping from pod ``src`` to pod ``dst``."""
    return InnerPacket(src=src.addrs[family], dst=dst.addrs[family], payload=f"ping-{i}".encode())

