"""The per-node connectivity agent: startup allocation and advertisement,
reception of step-1/step-2 or ConfigMap inputs, and idempotent
reconciliation into the node dataplane. An agent reads its node's record
(``NodeConfig``) and the scenario's (``Scenario``) where it uses them.

An agent runs in exactly one of two modes for its lifetime: ``bgp`` (both
control steps over the session bus) or ``configmap`` (step 1 over the bus,
policies from the node's ConfigMap document).
"""

from __future__ import annotations

from collections import Counter
from ipaddress import IPv6Address
from typing import Optional

from .bgp import (
    SessionBus,
    Segment,
    SrPolicySafiUpdate,
    Step1Update,
    decode_safi73,
    encode_safi73,
)
from .dataplane import (
    BEHAVIOR_END_DT4,
    BEHAVIOR_END_DT6,
    Behavior,
    LocalSidEntry,
    NodeDataplane,
    SrPolicyEntry,
    SteeringRule,
)
from .k8s import ConfigMapDoc, IpamAllocator, PolicyDiff, diff_policies, v6_text
from .net_types import Prefix, family_of
from .scenario import NodeConfig, Scenario


class Agent:
    def __init__(self, node: NodeConfig, scenario: Scenario, dataplane: NodeDataplane,
                 bus: SessionBus, ipam: IpamAllocator, events: list, metrics: Counter):
        self.node = node
        self.scenario = scenario
        self.name = node.name
        self.infra = node.infra
        self.mode = scenario.mode
        self.cluster_nodes = [n.name for n in scenario.nodes]
        self.router_end_sid = next(r.end_sid for r in scenario.routers if r.name == node.router)
        # the senders whose policies count: the cluster's nodes and a registered injector
        self.peers = set(self.cluster_nodes) | ({scenario.injector} if scenario.injector_registered
                                                else set())
        self.dp = dataplane
        self.bus = bus
        self.ipam = ipam
        self.events = events
        self.metrics = metrics
        # control-plane state, per tunnel: (endpoint._ip, family) -> its pod prefix
        # (a node has one per family), and the tunnel's policy, queued or configured;
        # keyed by the endpoint's integer, as hashing an int is not a Python-level call
        self.prefix_map: dict[tuple[int, str], Prefix] = {}
        self.pending: dict[tuple[int, str], SrPolicyEntry] = {}
        self.installed: dict[tuple[int, str], SrPolicyEntry] = {}
        self.last_doc: Optional[ConfigMapDoc] = None
        self._distinguisher = 0

    def _event(self, event: str, detail: str = "") -> None:
        # first field is a logical timestamp: the global event sequence number
        self.events.append((len(self.events), self.name, event, detail))

    def _is_self(self, addr) -> bool:
        """``addr == self.infra``, integers first: ``IPv6Address.__eq__`` is slow."""
        return addr is self.infra or addr._ip == self.infra._ip and addr == self.infra

    # -- startup -----------------------------------------------------------

    def startup(self, configmap_doc: Optional[ConfigMapDoc] = None) -> None:
        """Seed the local dataplane and emit the startup advertisements.

        The node infrastructure address becomes the encap source. DT
        localSIDs come from the ConfigMap document (configmap mode, through
        ``on_configmap_change``), from a pinned scenario assignment, or from
        IPAM, in that order.
        """
        self.dp.set_encap_source(self.infra)
        localsids = {} if self.mode == "configmap" else self._obtain_localsids()
        for kind, sid in sorted(localsids.items()):
            behavior = Behavior("EndDT4" if kind == "DT4" else "EndDT6")
            self.dp.install_localsid(LocalSidEntry(sid=sid, behavior=behavior))
        # step 1: pod-prefix reachability toward every other cluster node
        for prefix in self.node.pod_prefixes:
            update = Step1Update(prefix=prefix, next_hop=self.infra)
            sent = self.bus.broadcast(self.name, self.cluster_nodes, update)
            self.metrics["step1_sent"] += 1 if sent else 0
        # step 2 only in bgp mode
        if self.mode == "bgp" and self.scenario.auto_step2:
            for kind, sid in sorted(localsids.items()):
                self.advertise_policy(self._double_segment_update(kind, sid))
        if self.mode == "configmap":
            self.on_configmap_change(configmap_doc)
        self._event("startup", f"mode={self.mode}")

    def _obtain_localsids(self) -> dict[str, IPv6Address]:
        """The node's DT localSIDs, one per scenario family: pinned, or from IPAM."""
        families = self.scenario.families
        kinds = [k for k, family in (("DT4", "v4"), ("DT6", "v6")) if family in families]
        if self.node.localsids:
            return {k: self.node.localsids[k] for k in kinds if k in self.node.localsids}
        return {k: self.ipam.allocate(self.node.localsid_pool, self.name) for k in kinds}

    def _double_segment_update(self, kind: str, sid: IPv6Address) -> SrPolicySafiUpdate:
        """Egress-originated policy: attachment router End SID, then DT SID.

        In single-segment mode the DT SID alone is advertised; it must then
        be routable in the underlay.
        """
        bsid = self.ipam.allocate(self.scenario.bsid_pool, self.name)
        code = BEHAVIOR_END_DT4 if kind == "DT4" else BEHAVIOR_END_DT6
        self._distinguisher += 1
        if self.scenario.segment_mode == "single":
            segments = (Segment(sid=sid, behavior_code=code),)
        else:
            segments = (
                Segment(sid=self.router_end_sid, behavior_code=code),
                Segment(sid=sid, behavior_code=code),
            )
        return SrPolicySafiUpdate(
            distinguisher=self._distinguisher,
            color=0,
            endpoint=self.infra,
            bsid=bsid,
            segments=segments,
            next_hop=self.infra,
        )

    def advertise_policy(self, update: SrPolicySafiUpdate) -> None:
        payload = ("safi73", encode_safi73(update))
        self.bus.broadcast(self.name, self.cluster_nodes, payload)
        self.metrics["step2_sent"] += 1

    # -- message handling --------------------------------------------------

    def handle_message(self, sender: str, message) -> None:
        """The bus carries step-1 updates and ``("safi73", bytes)`` only."""
        if isinstance(message, Step1Update):
            self.on_step1(message)
        else:
            self.on_policy(sender, decode_safi73(message[1]))

    def on_step1(self, update: Step1Update) -> None:
        """Record a node's pod prefix under its tunnel key. Each key arrives
        once: node infra addresses are unique, and a node advertises at most
        one pod prefix per family."""
        key = (update.next_hop._ip, family_of(update.prefix))
        self.prefix_map[key] = update.prefix
        if key in self.pending:
            self._try_install(update.next_hop, self.pending.pop(key))

    def on_policy(self, sender: str, update: SrPolicySafiUpdate) -> None:
        if sender not in self.peers:
            self._event("audit-unregistered-peer", sender)
            return
        if self._is_self(update.endpoint):
            return  # no tunnel to self
        self.metrics["step2_received"] += 1
        if update.withdraw:
            if self._uninstall((update.endpoint._ip, update.family)) is not None:
                self._event("policy-withdrawn", str(update.endpoint))
            return
        self._try_install(update.endpoint, update.policy)

    def _try_install(self, endpoint: IPv6Address, policy: SrPolicyEntry) -> None:
        """Install the tunnel to ``endpoint`` if its prefix is known, else queue.

        Replacing an existing (endpoint, family) tunnel atomically swaps the
        policy; the binding SID may change, in which case the old policy is
        removed after the new one is installed, unless another tunnel took
        its BSID meanwhile (a ConfigMap document may swap two BSIDs). In bgp
        mode a BSID names one tunnel: a policy whose BSID another tunnel
        holds is refused, and the dataplane stays as it was.
        """
        key = (endpoint._ip, policy.family)
        matching = self.prefix_map.get(key)
        if matching is None:
            self.pending[key] = policy
            self._event("policy-pending", f"{v6_text(endpoint._ip)} {policy.family}")
            return
        previous = self.installed.get(key)
        if self.mode == "bgp" and self.dp.policies.get(policy.bsid._ip, previous) != previous:
            self._event("policy-bsid-conflict",
                        f"{v6_text(endpoint._ip)} {policy.family} {v6_text(policy.bsid._ip)}")
            return
        self.dp.install_policy(policy)
        self.dp.install_steering(SteeringRule(match=matching, bsid=policy.bsid))
        if previous is not None and previous.bsid != policy.bsid:
            self._remove_own(previous)
        self.installed[key] = policy
        self.pending.pop(key, None)
        self._event("policy-installed", f"{v6_text(endpoint._ip)} {policy.family}")

    def _uninstall(self, key: tuple[int, str]) -> Optional[SrPolicyEntry]:
        """Retire the tunnel ``key``; its policy, if it was installed."""
        self.pending.pop(key, None)
        policy = self.installed.pop(key, None)
        if policy is not None:
            self._remove_own(policy)
        return policy

    def _remove_own(self, policy: SrPolicyEntry) -> None:
        """Remove a tunnel's policy unless another tunnel has since taken its BSID."""
        if self.dp.policies.get(policy.bsid._ip) == policy:
            self.dp.remove_policy(policy.bsid)

    # -- configmap mode ----------------------------------------------------

    def on_configmap_change(self, doc: ConfigMapDoc) -> "PolicyDiff":
        """Reconcile a (re)read of this node's policy document.

        Validation failures leave the previous state untouched; an identical
        document causes zero dataplane mutations.
        """
        old = self.last_doc or ConfigMapDoc(node=self.name, localsids={}, policies=())
        diff = diff_policies(old, doc)
        if doc.localsids != old.localsids:
            for kind, sid in old.localsids.items():
                if doc.localsids.get(kind) != sid:
                    self.dp.remove_localsid(sid)
            for kind, sid in doc.localsids.items():
                behavior = Behavior("EndDT4" if kind == "DT4" else "EndDT6")
                self.dp.install_localsid(LocalSidEntry(sid=sid, behavior=behavior))
            self._event("localsids-updated", str(sorted(doc.localsids)))
        for entry in diff.removes:
            if not self._is_self(entry.egress_node):
                self._uninstall((entry.egress_node._ip, entry.family))
        for entry in diff.adds + diff.replaces:
            if not self._is_self(entry.egress_node):
                policy = SrPolicyEntry(entry.bsid, entry.segment_list, entry.family)
                self._try_install(entry.egress_node, policy)
        self.last_doc = doc
        if not diff.empty:
            self._event("configmap-applied", diff.summary())
        return diff
