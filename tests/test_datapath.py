"""A total data path: no state that the dataplane API can reach makes the
data path raise.

``h_encaps`` reads the policy of the BSID that ``steer_lookup`` returned and
checks neither that it exists nor that it is of the inner's family. That is
sound only while every steering rule points at an installed policy of its
own family (RFC 9256 §2: a BSID is bound to one policy, whose SID list fixes
the encapsulation). ``install_steering`` refuses a rule that would break
this, and ``install_policy`` drops the rules of a BSID whose family changes.
``install_steering`` also refuses any rule on a node without an encap source,
so ``h_encaps`` never meets one.

The machine here drives the public ``NodeDataplane`` mutators of a started
``full_cm`` simulation in any order and interleaves them with pings and with
vectors of mixed destinations. ``BsidMachine`` in ``test_bsid.py`` drives the
agents above this API.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from srv6sim.dataplane import Behavior, LocalSidEntry, SrPolicyEntry
from srv6sim.errors import DanglingPolicyError, FamilyMismatchError, SimError
from srv6sim.graph import run_vector
from srv6sim.net_types import InnerPacket, family_of, parse_addr, parse_prefix, parse_v6
from srv6sim.scenario import load_scenario
from srv6sim.sim import Simulation

from conftest import SCENARIOS, forward_packet, tx_flows
from test_bsid import assert_index_is_inverse, assert_steering_points_at_its_family

DROP_REASONS = {"no steering match", "no route", "ttl", "no more segments",
                "premature decap", "family mismatch", "misdelivered"}
FAMILIES = st.sampled_from(("v4", "v6"))


def _started() -> Simulation:
    return Simulation(load_scenario(SCENARIOS / "full_cm.yaml")).start()


# The pools the rules draw from, read off the started scenario.
_BASE = _started()
NODES = tuple(sorted(n.name for n in _BASE.scenario.nodes))
ROUTERS = tuple(sorted(r.name for r in _BASE.scenario.routers))
PODS = tuple(sorted(_BASE.pods))
POD_OF = {pod.node: pod for pod in _BASE.pods.values()}
# The routers' End SIDs, the nodes' DT SIDs, one more SID in R3's block and
# one outside every advertised prefix.
SIDS = tuple(sorted(
    {r.end_sid for r in _BASE.scenario.routers}
    | {e.sid for n in NODES for e in _BASE.dataplanes[n].localsids.values()}
    | {parse_v6("fcff:3::99"), parse_v6("fcdd::99")}
))
BSIDS = tuple(sorted({p.bsid for n in NODES for p in _BASE.dataplanes[n].policies.values()})) + (
    parse_v6("cafe::99"),)
PREFIXES = tuple(p for n in _BASE.scenario.nodes for p in n.pod_prefixes) + tuple(
    map(parse_prefix, ("fd90::/32", "172.16.0.0/16", "::/0", "0.0.0.0/0")))
DESTINATIONS = tuple(a for pod in _BASE.pods.values() for a in pod.addrs.values()) + (
    parse_addr("fd99::1"), parse_addr("10.9.9.9"))
ENCAP_SOURCES = tuple(n.infra for n in _BASE.scenario.nodes) + (parse_v6("fd10::99"),)
FIB_PREFIXES = tuple(map(parse_prefix, ("::/0", "fcff:3::/32", "fcdd::/16", "10.0.0.0/8")))


def _state(dp) -> tuple:
    steered = dp._steered and {bsid: list(p) for bsid, p in dp._steered.items()}
    return dp.dump(), dp.version, dict(dp.fib), steered


class DatapathMachine(RuleBasedStateMachine):
    """LocalSIDs change on any vertex; policies, steering, encap sources and
    FIB routes on the cluster nodes, where the data path starts and whose
    agents set the encap source at startup."""

    def __init__(self):
        super().__init__()
        self.sim = _started()

    def _mutate(self, vertex: str, method: str, *args) -> None:
        """Call a mutator. Only ``install_steering`` may refuse, with its
        documented errors, and a refusal leaves the dataplane as it was."""
        dp = self.sim.dataplanes[vertex]
        before = _state(dp)
        try:
            getattr(dp, method)(*args)
        except SimError as exc:
            assert method == "install_steering", (vertex, method, args)
            assert isinstance(exc, (DanglingPolicyError, FamilyMismatchError)) or (
                str(exc) == f"{vertex}: encap source not configured"), exc
            assert _state(dp) == before, (vertex, method, args)

    # -- mutators ----------------------------------------------------------

    @rule(vertex=st.sampled_from(NODES + ROUTERS), sid=st.sampled_from(SIDS),
          kind=st.sampled_from(("End", "EndDT4", "EndDT6")))
    def install_localsid(self, vertex, sid, kind):
        self._mutate(vertex, "install_localsid", LocalSidEntry(sid, Behavior(kind)))

    @rule(vertex=st.sampled_from(NODES + ROUTERS), sid=st.sampled_from(SIDS))
    def remove_localsid(self, vertex, sid):
        self._mutate(vertex, "remove_localsid", sid)

    @rule(node=st.sampled_from(NODES), bsid=st.sampled_from(BSIDS), family=FAMILIES,
          segments=st.lists(st.sampled_from(SIDS), min_size=1, max_size=3))
    def install_policy(self, node, bsid, family, segments):
        self._mutate(node, "install_policy", SrPolicyEntry(bsid, tuple(segments), family))

    @rule(node=st.sampled_from(NODES), bsid=st.sampled_from(BSIDS))
    def remove_policy(self, node, bsid):
        self._mutate(node, "remove_policy", bsid)

    @rule(node=st.sampled_from(NODES), prefix=st.sampled_from(PREFIXES),
          bsid=st.sampled_from(BSIDS))
    def install_steering(self, node, prefix, bsid):
        self._mutate(node, "install_steering", prefix, bsid)

    @rule(node=st.sampled_from(NODES), addr=st.sampled_from(ENCAP_SOURCES))
    def set_encap_source(self, node, addr):
        self._mutate(node, "set_encap_source", addr)

    @rule(node=st.sampled_from(NODES), prefix=st.sampled_from(FIB_PREFIXES),
          next_hop=st.sampled_from(ROUTERS))
    def add_fib_route(self, node, prefix, next_hop):
        self._mutate(node, "add_fib_route", prefix, next_hop)

    # -- the data path -----------------------------------------------------

    @rule(src=st.sampled_from(PODS), family=FAMILIES, count=st.sampled_from((1, 3, 257)))
    def ping(self, src, family, count):
        """Pings from ``src`` to every other pod: ``run_vector``, then one
        walk per flow; 257 packets take two vectors."""
        for dst in PODS:
            if dst != src:
                report = self.sim.ping(src, dst, count=count, family=family)
                assert report.delivered + report.dropped == count
                assert len(report.drop_reasons) == report.dropped
                assert set(report.drop_reasons) <= DROP_REASONS, report.drop_reasons

    @rule(node=st.sampled_from(NODES),
          dsts=st.lists(st.sampled_from(DESTINATIONS), min_size=2, max_size=8))
    def vector(self, node, dsts):
        """One vector of mixed destinations from ``node``'s pod; a delivered
        packet arrives as it was sent."""
        pod = POD_OF[node]
        vector = [InnerPacket(pod.addrs[family_of(dst)], dst, payload=b"%d" % i)
                  for i, dst in enumerate(dsts)]
        routes = self.sim.current_routes()
        dp = self.sim.dataplanes[node]
        flows = run_vector(dp, vector)
        assert flows == tx_flows(dp, vector)
        for header, reason, packets in flows:
            for inner in packets:
                if header is None:
                    assert reason in DROP_REASONS, reason
                    continue
                disp = forward_packet(self.sim.topology, routes, node, header, inner,
                                      self.sim.dataplanes).disposition
                if disp.kind == "deliver":
                    assert disp.inner.encode() == inner
                else:
                    assert disp.kind == "drop" and disp.reason in DROP_REASONS, disp

    # -- invariants --------------------------------------------------------

    @invariant()
    def steering_points_at_installed_policies_of_its_family(self):
        for dp in self.sim.dataplanes.values():
            assert_steering_points_at_its_family(dp)

    @invariant()
    def bsid_index_is_the_inverse_of_steering(self):
        for dp in self.sim.dataplanes.values():
            assert_index_is_inverse(dp)


TestDatapathMachine = DatapathMachine.TestCase
TestDatapathMachine.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
