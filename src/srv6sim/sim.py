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
from typing import Optional

from .agent import Agent
from .bgp import SessionBus, SrPolicySafiUpdate, check_decap, encode_safi73
from .dataplane import Behavior, Disposition, LocalSidEntry, LpmIndex, NodeDataplane
from .errors import ConvergenceError, ModeMismatchError, SimError, UnknownNodeError, ValidationError
from .graph import VECTOR_MAX, run_vector
from .k8s import (
    SINGLE_MAP_KEY,
    ConfigMapDoc,
    IpamAllocator,
    KvStore,
    WatchHandle,
    configmap_key,
    parse_configmap_doc,
    poll,
    render_configmap_doc,
)
from .net_types import InnerPacket, parse_prefix
from .scenario import Scenario
from .schema import get, load, section
from .underlay import Hop, Routes, Topology, TraceRecord, compute_routes, forward


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
    """A cluster built from a scenario that ``load_scenario`` checked in its final mode."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.metrics: Counter = Counter()
        self.events: list = []
        self.tunnel_counts: Counter = Counter()
        self.traces_forwarded = 0

        self.topology = Topology(
            routers={r.name for r in scenario.routers}, links=list(scenario.links)
        )
        self.dataplanes: dict[str, NodeDataplane] = {}
        for router in scenario.routers:
            dp = NodeDataplane(router.name, self.metrics)
            dp.install_localsid(
                LocalSidEntry(sid=router.end_sid, behavior=Behavior("End"))
            )
            self.dataplanes[router.name] = dp
        for node in scenario.nodes:
            self.topology.attach(node.name, node.router)
            dp = NodeDataplane(node.name, self.metrics)
            dp.add_fib_route(parse_prefix("::/0"), node.router)
            self.dataplanes[node.name] = dp

        self.bus = SessionBus()
        self.ipam = IpamAllocator(scenario.pools)
        self.store = KvStore()
        self.watches: dict[str, WatchHandle] = {}

        self.agents = {
            node.name: Agent(node, scenario, self.dataplanes[node.name], self.bus, self.ipam,
                             self.events, self.metrics)
            for node in scenario.nodes
        }
        self.pods = {p.name: p for p in scenario.pods}
        self.started = False
        self._routes: tuple[Optional[int], Optional[Routes]] = (None, None)  # (key, routes)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Simulation":
        """Start all agents (sorted node order) and quiesce the control plane."""
        configmap = self.scenario.mode == "configmap"
        if configmap:
            self._write_docs(self.scenario.configmaps)
        for name in sorted(self.agents):
            doc = None
            if configmap:
                doc = self._read_doc(name)
                key = self._map_key(name)
                self.watches[name] = WatchHandle(key, self.store.entries[key][1])
            self.agents[name].startup(configmap_doc=doc)
        self.run_to_quiescence()
        self.started = True
        return self

    def _map_key(self, node: str) -> str:
        """The store key of the ConfigMap whose data holds ``node``'s document."""
        single = self.scenario.configmap_fanout == "single-map"
        return SINGLE_MAP_KEY if single else configmap_key(node)

    def _write_docs(self, docs: list[ConfigMapDoc]) -> None:
        """Write checked documents (``parse_configmap_doc``), one write per ConfigMap."""
        maps: dict[str, tuple[dict, dict]] = {}  # key -> (data, decoded) to write
        for doc in docs:
            key = self._map_key(doc.node)
            if key not in maps:
                maps[key] = (dict(self.store.entries.get(key, ({},))[0]),
                             dict(self.store.decoded.get(key, {})))
            data, decoded = maps[key]
            data[doc.node] = render_configmap_doc(doc)
            decoded[doc.node] = doc
        for key, (data, decoded) in maps.items():
            self.store.write(key, data, decoded)

    def _read_doc(self, node: str) -> ConfigMapDoc:
        """``node``'s stored document, as decoded when it was written."""
        return self.store.decoded[self._map_key(node)][node]

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
        check_decap(update.segments)  # before anything is sent: an agent reads the family
        payload = ("safi73", encode_safi73(update))
        self.bus.broadcast(self.scenario.injector, [n.name for n in self.scenario.nodes], payload)
        self.metrics["injects"] += 1
        self.run_to_quiescence()

    def apply_configmaps(self, docs: list[ConfigMapDoc]) -> list[str]:
        """Check every document, then write them to the store and let every
        watcher poll. A refused document refuses the apply: nothing is written."""
        if self.scenario.mode != "configmap":
            raise ModeMismatchError("apply-configmap requires configmap mode")
        for doc in docs:
            if doc.node not in self.agents:
                raise UnknownNodeError(doc.node)
        single = self.scenario.configmap_fanout == "single-map"
        paths = [f"single-map.{doc.node}" if single else configmap_key(doc.node) for doc in docs]
        docs = [parse_configmap_doc(doc, path) for doc, path in zip(docs, paths)]
        # one owner per host route: a localSID new to its node must be no node's infra
        # address or localSID, nor one an earlier document of this apply took
        owners: dict = {}  # address int -> (node, what it is there); built on first need
        for doc, path in zip(docs, paths):
            own = self.dataplanes[doc.node].localsids
            for kind, sid in doc.localsids.items():
                if sid._ip in own:
                    continue
                if not owners:
                    owners = {n.infra._ip: (n.name, "the infra address") for n in self.scenario.nodes}
                    owners.update((k, (n, "a localSID")) for n in self.agents
                                  for k in self.dataplanes[n].localsids)
                node, what = owners.setdefault(sid._ip, (doc.node, "a localSID"))
                if (node, what) != (doc.node, "a localSID"):
                    raise ValidationError(f"localsid '{sid}' is {what} of node {node!r}",
                                          path=f"{path}.localsids.{kind}")
        self._write_docs(docs)
        return self.poll_all()

    def poll_all(self) -> list[str]:
        """One poll round for every agent, in sorted node order."""
        summaries = []
        for name in sorted(self.agents):
            watch = self.watches.get(name)
            if watch is None or not poll(self.store, watch):
                continue
            changes = self.metrics["localsid_changes"]
            diff = self.agents[name].on_configmap_change(self._read_doc(name))
            summaries.append(f"{name}: {diff.summary(self.metrics['localsid_changes'] - changes)}")
        self.run_to_quiescence()
        return summaries

    # -- forwarding --------------------------------------------------------

    def current_routes(self) -> Routes:
        """Routes to every router's SID block and every node's infra address and
        localSIDs. The prefix index is rebuilt only when a localSID changes; the
        first hops are computed once, as the topology is fixed."""
        key = self.metrics["localsid_changes"]
        if key != self._routes[0]:
            advertised: dict = {r.sid_prefix: r.name for r in self.scenario.routers}
            for node in self.scenario.nodes:  # an address key stands for its /128
                advertised[node.infra] = node.name
                for entry in self.dataplanes[node.name].localsids.values():
                    advertised[entry.sid] = node.name
            routes = self._routes[1]
            first_hop = routes.first_hop if routes is not None else compute_routes(self.topology)
            self._routes = (key, Routes(LpmIndex(advertised), first_hop))
        return self._routes[1]

    def ping(self, src_pod: str, dst_pod: str, count: int = 4,
             family: str = "v6") -> PingReport:
        """Synthesize ``count`` inner packets and push them through the full
        steer/encap/underlay/decap pipeline, in frames: the underlay walks each
        flow's header once, and End.DT's ``decap`` runs on each packet."""
        if src_pod not in self.pods or dst_pod not in self.pods:
            raise UnknownNodeError(f"unknown pod {src_pod!r} or {dst_pod!r}")
        src, dst = self.pods[src_pod], self.pods[dst_pod]
        if family not in src.addrs or family not in dst.addrs:
            raise SimError(f"pods lack {family} addresses")
        report = PingReport(src_pod=src_pod, dst_pod=dst_pod, family=family, sent=count)
        if src.node == dst.node:
            # local FIB path: no encapsulation involved
            report.delivered = count
            return report
        dp = self.dataplanes[src.node]
        routes = self.current_routes()
        walks: dict = {}  # outer header -> its walk; nothing changes routes or dataplanes in a call
        want = dst.addrs[family]
        traces, reasons = report.traces, report.drop_reasons
        for start in range(0, count, VECTOR_MAX):
            vector = [_probe(src, dst, family, i) for i in range(min(count - start, VECTOR_MAX))]
            flows = run_vector(dp, vector)
            del vector  # only the inner bytes and the traces outlive it
            for flow in flows:
                n = len(flow.packets)
                if flow.header is None:
                    report.dropped += n
                    reasons += [flow.reason] * n
                    continue
                walk = walks.get(flow.header)
                if walk is None:  # its process_local calls counted the first packet
                    walk = walks[flow.header] = forward(
                        self.topology, routes, src.node, flow.header, self.dataplanes)
                    n -= 1
                for entry in walk.consumed:
                    entry.rx_counter += n
                self.traces_forwarded += len(flow.packets)
                end, record, home = walk.end, walk.record, walk.at == dst.node
                decap = end.decap if isinstance(end, LocalSidEntry) else None
                delivered = 0
                for inner in flow.packets:
                    disp = decap(inner) if decap is not None else end
                    traces.append(record(disp))
                    if disp.kind == "deliver" and home and (disp.inner.dst is want or disp.inner.dst == want):
                        delivered += 1
                    else:
                        reasons.append(disp.reason or "misdelivered")
                report.delivered += delivered
                report.dropped += len(flow.packets) - delivered
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
        return renderers[what]()  # the CLI's choices

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
    return InnerPacket._of(src.addrs[family], dst.addrs[family], 64, f"ping-{i}".encode())

