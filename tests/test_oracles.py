"""Optimised structures checked against their simple oracles.

- ``LpmIndex`` (per-length hash tables) against a linear longest-prefix scan.
- ``SessionBus.pending_sessions()`` (kept sorted incrementally) against a
  sort of every non-empty session.
- ``Simulation.current_routes()`` (cached) against a fresh
  ``compute_routes()`` over the advertised prefixes.
- libyaml's loader and emitter against PyYAML's pure-Python safe loader
  and dumper.
- ``underlay.forward`` with a flow memo (what ``Simulation.ping`` uses)
  against the plain walk, ``memo=None``.
- The decoded ConfigMap documents the store keeps per version against a
  fresh ``parse_configmap_doc`` of the stored text.
- ``render_configmap_doc`` (policies written without PyYAML) and the single
  map (cached entries) against one ``yaml.dump`` of the whole document or map.
- The SRH each installed policy keeps, and the per-destination lookups of
  ``run_vector``, against ``scalar_tx``, which builds its SRH per packet.
"""

from collections import Counter
from dataclasses import replace
from ipaddress import IPv4Address, IPv6Address, IPv6Network, ip_network

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srv6sim.sim
from srv6sim.errors import ValidationError
from srv6sim.bgp import SessionBus, parse_policy_file
from srv6sim.dataplane import (
    Behavior,
    LocalSidEntry,
    LpmIndex,
    NodeDataplane,
    SrPolicyEntry,
    SteeringRule,
)
from srv6sim.k8s import (
    SINGLE_MAP_KEY,
    ConfigMapDoc,
    PolicyDocEntry,
    configmap_key,
    parse_configmap_doc,
    render_configmap_doc,
)
from srv6sim.graph import run_vector
from srv6sim.net_types import InnerPacket, OuterPacket, Srh, parse_addr, parse_v6
from srv6sim.scenario import load_scenario
from srv6sim.schema import YamlLoader
from srv6sim.sim import Simulation
from srv6sim.underlay import compute_routes, forward, waypoints

from conftest import SCENARIOS, scalar_tx


def linear_lpm(table: dict, addr):
    """The oracle: scan every prefix of the address's family, keep the longest."""
    best = None
    for prefix, value in table.items():
        if prefix.version == addr.version and addr in prefix:
            if best is None or prefix.prefixlen > best[0].prefixlen:
                best = (prefix, value)
    return best


WIDTH = {4: 32, 6: 128}
ADDR = {4: IPv4Address, 6: IPv6Address}


@st.composite
def near_anchors(draw, anchors):
    """An address close to one of ``anchors``: some low bits flipped, so
    lookups land inside nested and overlapping prefixes."""
    version, bits = draw(st.sampled_from(anchors))
    flip_bits = draw(st.integers(0, WIDTH[version]))
    flip = draw(st.integers(0, (1 << flip_bits) - 1))
    return ADDR[version](bits ^ flip)


@st.composite
def table_and_ops(draw):
    anchors = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just(4), st.integers(0, 2**32 - 1)),
                st.tuples(st.just(6), st.integers(0, 2**128 - 1)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    addr = near_anchors(anchors)

    def prefix_of(a, plen_frac):
        plen = round(plen_frac * WIDTH[a.version])
        return ip_network((a, plen), strict=False)

    prefixes = st.builds(
        prefix_of, addr, st.sampled_from([0.0, 1.0, 0.25, 0.5]) | st.floats(0, 1)
    )
    table = draw(st.dictionaries(prefixes, st.integers(0, 9), max_size=12))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), prefixes, st.integers(0, 9)),
            max_size=8,
        )
    )
    probes = draw(st.lists(addr, min_size=1, max_size=12))
    return table, ops, probes


@settings(max_examples=200, deadline=None)
@given(table_and_ops())
def test_lpm_index_matches_linear_scan(case):
    table, ops, probes = case
    for op, prefix, value in [("noop", None, None)] + ops:
        if op == "add":
            table[prefix] = value
        elif op == "remove":
            table.pop(prefix, None)
        index = LpmIndex(table)
        assert dict(index) == table and len(index) == len(table)
        for _op, other, _value in ops:
            assert (other in index) == (other in table), other
        for addr in probes + [p.network_address for p in table]:
            assert index.lookup(addr) == linear_lpm(table, addr), addr


S1 = IPv6Address("fcff:1::1")


@settings(max_examples=100, deadline=None)
@given(table_and_ops())
def test_dataplane_lookups_follow_mutations(case):
    """The lazily rebuilt per-table indexes never serve a stale answer."""
    table, ops, probes = case
    dp = NodeDataplane("n")
    dp.set_encap_source(IPv6Address("fd10::1"))
    policies = {}
    for family in ("v4", "v6"):
        bsid = IPv6Address(f"cafe::{family[1]}")
        dp.install_policy(SrPolicyEntry(bsid=bsid, segments=(S1,), family=family))
        policies[4 if family == "v4" else 6] = bsid
    for prefix, value in table.items():
        dp.add_fib_route(prefix, str(value))
    for op, prefix, value in [("noop", None, None)] + ops:
        if op == "add":
            dp.install_steering(SteeringRule(prefix, policies[prefix.version]))
            dp.add_fib_route(prefix, str(value))
        elif op == "remove":
            dp.remove_steering(prefix)
        for addr in probes:
            expect = linear_lpm(dp.steering, addr)
            assert dp.steer_lookup(addr) == (expect[1] if expect else None)
            if addr.version == 6:
                expect = linear_lpm(dp.fib, addr)
                assert dp.fib_lookup(addr) == (expect[1] if expect else None)


PEERS = ("a", "b", "c", "d")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("send"), st.sampled_from(PEERS), st.sampled_from(PEERS)),
            st.tuples(st.just("pop"), st.integers(0, 15), st.none()),
        ),
        max_size=60,
    )
)
def test_pending_sessions_match_sorted_scan(ops):
    bus = SessionBus()
    for peer in PEERS:
        bus.register(peer)
    for i, (op, x, y) in enumerate(ops):
        pending = bus.pending_sessions()
        if op == "send":
            bus.send(x, y, i)
        elif pending:
            bus.pop(pending[x % len(pending)])
        expect = sorted(k for k, q in bus.sessions.items() if q)
        assert bus.pending_sessions() == expect
        assert bus.quiesced == (not expect)


def advertised_oracle(sim: Simulation) -> dict:
    """The advertised map exactly as ``current_routes`` documents it."""
    advertised = {prefix: router for router, prefix in sim.router_sids.items()}
    for node in sim.scenario.nodes:
        advertised[IPv6Network((node.infra, 128))] = node.name
        for sid in sim.dataplanes[node.name].localsids:
            advertised[IPv6Network((sid, 128))] = node.name
    return advertised


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["install", "remove"]),
            st.sampled_from(["master", "worker1", "worker2"]),
            st.integers(1, 6),
        ),
        max_size=8,
    )
)
def test_cached_routes_match_fresh_computation(ops):
    sim = Simulation(load_scenario(SCENARIOS / "full_cm.yaml")).start()
    assert sim.current_routes() == compute_routes(sim.topology, advertised_oracle(sim))
    for op, node, k in ops:
        dp = sim.dataplanes[node]
        sid = IPv6Address(f"fcee::{k}")
        if op == "install":
            dp.install_localsid(LocalSidEntry(sid=sid, behavior=Behavior("End")))
        else:
            dp.remove_localsid(sid)
        fresh = compute_routes(sim.topology, advertised_oracle(sim))
        assert sim.current_routes() == fresh


V6 = st.integers(0, 2**128 - 1).map(IPv6Address)
WORDS = st.one_of(
    st.text(min_size=1, max_size=120),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=63),
)


@st.composite
def configmap_docs(draw):
    policies = draw(
        st.lists(
            st.builds(
                PolicyDocEntry,
                egress_node=V6,
                bsid=V6,
                segment_list=st.lists(V6, min_size=1, max_size=4).map(tuple),
                traffic=st.one_of(st.sampled_from(["IPv4", "IPv6"]), WORDS),
            ),
            max_size=4,
            unique_by=lambda p: (p.egress_node, p.traffic),
        )
    )
    return ConfigMapDoc(
        node=draw(WORDS),
        localsids=draw(st.dictionaries(st.one_of(st.sampled_from(["DT4", "DT6"]), WORDS), V6)),
        policies=tuple(policies),
    )


@settings(max_examples=300, deadline=None)
@given(configmap_docs())
def test_libyaml_matches_pure_python_yaml(doc):
    text = render_configmap_doc(doc)
    data = yaml.load(text, Loader=yaml.SafeLoader)
    assert text == yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
    assert yaml.load(text, Loader=YamlLoader) == data
    single_map = yaml.safe_dump({doc.node: text, "other": text}, sort_keys=True)
    assert yaml.load(single_map, Loader=YamlLoader) == yaml.load(single_map, Loader=yaml.SafeLoader)


@pytest.mark.parametrize(
    "path", sorted(SCENARIOS.glob("*.yaml")) + sorted(SCENARIOS.glob("policies/*.yaml")),
    ids=lambda p: p.name,
)
def test_libyaml_reads_shipped_files_like_pure_python(path):
    text = path.read_text()
    assert list(yaml.load_all(text, Loader=YamlLoader)) == list(yaml.load_all(text, Loader=yaml.SafeLoader))


# -- flow memo in underlay.forward -----------------------------------------

MEMO_CASES = ("basic", "full_cm", "full_bgp", "full_bgp+inject")


def _started(case: str) -> Simulation:
    sim = Simulation(load_scenario(SCENARIOS / f"{case.split('+')[0]}.yaml")).start()
    if case.endswith("+inject"):
        for path in sorted((SCENARIOS / "policies").glob("*.yaml")):
            sim.inject(parse_policy_file(path.read_text()))
    return sim


def _fates(traces) -> list:
    return [(t.hops, t.disposition, t.deliver_node) for t in traces]


@pytest.mark.parametrize("case", MEMO_CASES)
def test_flow_memo_matches_plain_walk(case, monkeypatch):
    """Twin simulations ping every pod pair in both families, one through
    the memoised ``forward`` of ``ping`` and one with the memo dropped."""
    memoised, plain = _started(case), _started(case)
    memos = []

    def spy(*args):
        memos.append(args[5])
        return forward(*args)

    forwarded = 0
    for src in sorted(memoised.pods):
        for dst in sorted(memoised.pods):
            for family in ("v4", "v6"):
                if src == dst or any(family not in memoised.pods[p].addrs for p in (src, dst)):
                    continue
                memos.clear()
                with monkeypatch.context() as m:
                    m.setattr(srv6sim.sim, "forward", spy)
                    got = memoised.ping(src, dst, count=5, family=family)
                with monkeypatch.context() as m:
                    m.setattr(srv6sim.sim, "forward", lambda *args: forward(*args[:5]))
                    want = plain.ping(src, dst, count=5, family=family)
                assert _fates(got.traces) == _fates(want.traces)
                assert (got.delivered, got.drop_reasons) == (want.delivered, want.drop_reasons)
                if memos:  # one memo per ping, one entry per outer header
                    assert len(memos) == 5 and all(memo is memos[0] for memo in memos)
                    assert len(memos[0]) == 1
                    forwarded += 1
    assert memoised.report_json() == plain.report_json()
    assert forwarded or case == "full_bgp"  # full_bgp steers nothing before injects


def _walk_twins(outers: list, source: str = "master"):
    """Forward ``outers`` through one memo on one full_cm simulation and
    through the plain walk on its twin; the fates and counters must agree."""
    memoised, plain = _started("full_cm"), _started("full_cm")
    memo: dict = {}
    got = [
        forward(memoised.topology, memoised.current_routes(), source, pkt,
                memoised.dataplanes, memo)
        for pkt in outers
    ]
    want = [
        forward(plain.topology, plain.current_routes(), source, pkt, plain.dataplanes)
        for pkt in outers
    ]
    assert _fates(got) == _fates(want)
    assert memoised.report_json() == plain.report_json()
    return got, memo


def _tunnel_outer(family: str) -> OuterPacket:
    """The outer header master puts on a packet to pod-worker2 in full_cm."""
    sim = _started("full_cm")
    inner = InnerPacket(src=sim.pods["pod-master"].addrs[family],
                        dst=sim.pods["pod-worker2"].addrs[family])
    return run_vector(sim.dataplanes["master"], [inner])[0].packet


def _inners(family: str, n: int) -> list[bytes]:
    src, dst = ("172.16.231.1", "172.16.135.1") if family == "v4" else ("fd90:0:10::2", "fd90:0:12::2")
    return [
        InnerPacket(src=parse_addr(src), dst=parse_addr(dst), payload=b"p%d" % i).encode()
        for i in range(n)
    ]


def test_flow_memo_replays_header_level_drops():
    """Three outer headers to R6's End SID share one memo: the tunnel's,
    the same with hop limit 4 (it runs out at R7, after R6 consumed a
    segment), and one whose next SID nobody advertises (no route at R6)."""
    tunnel = _tunnel_outer("v6")
    short = replace(tunnel, hop_limit=4)
    srh = Srh(next_header=41, segments_left=1,
              segment_list=(parse_v6("fcff:99::1"), parse_v6("fcff:6::1")))
    lost = replace(tunnel, srh=srh)
    inners = _inners("v6", 9)
    outers = [replace(head, inner=inner)
              for head, inner in zip([tunnel, short, lost] * 3, inners)]
    got, memo = _walk_twins(outers)
    assert len(memo) == 3
    assert [t.drop_reason for t in got] == [None, "ttl", "no route"] * 3
    assert [h.action for h in got[-2].hops][-3:] == ["end", "transit", "drop:ttl"]
    assert got[-1].hops[-1].at == "R6" and got[-1].hops is not got[2].hops


def test_flow_memo_replays_localsid_header_drops():
    """Three outer headers share one memo: the tunnel's, one whose walk ends
    at R6's End SID with no segments left, and one that reaches worker2's
    End.DT6 SID with a segment left. Their header decides both drops, and
    each replay still counts the localSID that dropped it."""
    tunnel = _tunnel_outer("v6")
    end_sid, dt_sid = parse_v6("fcff:6::1"), tunnel.srh.segment_list[0]
    assert tunnel.srh.active_segment is end_sid
    exhausted = replace(tunnel, srh=Srh(next_header=41, segments_left=0, segment_list=(end_sid,)))
    premature = replace(tunnel, srh=Srh(next_header=41, segments_left=1,
                                        segment_list=(end_sid, dt_sid)))
    inners = _inners("v6", 9)
    outers = [replace(head, inner=inner)
              for head, inner in zip([tunnel, exhausted, premature] * 3, inners)]
    got, memo = _walk_twins(outers)
    assert len(memo) == 3
    assert [t.drop_reason for t in got] == [None, "no more segments", "premature decap"] * 3
    assert [t.hops[-1].at for t in got[-3:]] == ["worker2", "R6", "worker2"]
    assert got[-2].disposition is got[1].disposition
    assert got[-1].disposition is got[2].disposition


def test_flow_memo_runs_decap_per_packet():
    """v4 inners behind a v6 tunnel's outer header reach its End.DT6 SID:
    only they drop, although the first packet of the header delivered."""
    outer = _tunnel_outer("v6")
    v6, v4 = _inners("v6", 3), _inners("v4", 3)
    inners = [v6[0], v4[0], v6[1], v4[1], v4[2], v6[2]]
    got, memo = _walk_twins([replace(outer, inner=inner) for inner in inners])
    assert len(memo) == 1
    assert [t.drop_reason for t in got] == [None, "family mismatch", None,
                                            "family mismatch", "family mismatch", None]
    assert [t.deliver_node for t in got] == ["worker2", None, "worker2", None, None, "worker2"]
    assert [t.disposition.inner.payload for t in got if t.delivered] == [b"p0", b"p1", b"p2"]


# -- decoded ConfigMap documents in the store ------------------------------

CM_NODES = ("master", "worker1", "worker2")  # the nodes of full_cm.yaml
# Texts PyYAML quotes (one ending in ":", or a YAML 1.1 base-60 int), texts it
# leaves plain, and a scoped address with the integer of fe80::1.
EDGE_ADDRS = tuple(IPv6Address(a) for a in (
    "::", "1::", "0:1::", "1:2:3:4:5:6:7:8", "1:0:2:0:3:0:4:0", "1:2:3:4:5:6:7:60", "fe80::1%eth0",
))
# Mostly IPv6 addresses that repeat; an IPv4 one makes a document that
# renders but does not decode.
CM_ADDRS = st.one_of(
    st.sampled_from([IPv6Address(f"fcdd::{i}") for i in range(4)]), V6, V6,
    st.sampled_from(EDGE_ADDRS),
    st.integers(0, 2**32 - 1).map(IPv4Address),
)


CM_SEGMENTS = st.lists(CM_ADDRS, min_size=1, max_size=3)
CM_POLICIES = st.builds(
    PolicyDocEntry,
    egress_node=CM_ADDRS,
    bsid=CM_ADDRS,
    segment_list=st.one_of(CM_SEGMENTS.map(tuple), CM_SEGMENTS),
    traffic=st.one_of(st.sampled_from(["IPv4", "IPv6"]), WORDS),
)
CM_LOCALSIDS = st.dictionaries(st.one_of(st.sampled_from(["DT4", "DT6"]), WORDS),
                               CM_ADDRS, max_size=2)


@st.composite
def cache_docs(draw, nodes):
    """Documents that decode to themselves and documents that do not: words
    for traffic, localSID kinds and node names, IPv4 addresses, and segment
    lists given as lists, which decode to tuples."""
    policies = draw(
        st.lists(CM_POLICIES, max_size=3, unique_by=lambda p: (p.egress_node, p.traffic))
    )
    return ConfigMapDoc(node=draw(nodes), localsids=draw(CM_LOCALSIDS), policies=tuple(policies))


# Node names the single map quotes, or writes as an explicit ``? key``
# entry: 128 characters or more, or several lines.
MAP_NODES = st.one_of(
    st.sampled_from(["yes", "null", "1", "- x", "a: b", "#c", "'q'", "x" * 127, "x" * 128, "y\nz"]),
    st.text(min_size=128, max_size=160),
)
ANY_NODE = st.one_of(st.sampled_from(CM_NODES), WORDS, MAP_NODES)
CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.lists(cache_docs(ANY_NODE), min_size=1, max_size=3)),
        st.tuples(st.just("apply"),
                  st.lists(cache_docs(st.sampled_from(CM_NODES)), min_size=1, max_size=3)),
        st.tuples(st.just("raw"), st.lists(cache_docs(ANY_NODE), min_size=1, max_size=2)),
        st.tuples(st.just("poll"), st.just([])),
    ),
    max_size=8,
)


def _outcome(read):
    try:
        return read()
    except ValidationError as exc:
        return ("ValidationError", str(exc))


def _map_text(latest: dict) -> str:
    """The single map as written before the store kept decoded values."""
    return yaml.safe_dump({n: render_configmap_doc(d) for n, d in latest.items()}, sort_keys=True)


@pytest.mark.parametrize("fanout", ["per-node", "single-map"])
@settings(max_examples=60, deadline=None)
@given(ops=CACHE_OPS)
def test_decoded_documents_match_fresh_parse(fanout, ops):
    """Random writes, applies, writes without a decoded value, and polls.
    After each, every read equals a fresh parse of the stored text (or
    raises the same error), and the stored text is the full rendering."""
    scenario = load_scenario(SCENARIOS / "full_cm.yaml")
    scenario.configmap_fanout = fanout
    sim = Simulation(scenario).start()
    latest = {doc.node: doc for doc in scenario.configmaps}
    for op, docs in ops:
        if op == "write":
            sim._write_docs(docs)
        elif op == "apply":
            _outcome(lambda: sim.apply_configmaps(docs))
        elif op == "poll":
            _outcome(sim.poll_all)
        latest.update((doc.node, doc) for doc in docs)
        if fanout == "single-map":
            expected = _map_text(latest)
            if op == "raw":
                sim.store.write(SINGLE_MAP_KEY, expected)
            assert sim.store.entries[SINGLE_MAP_KEY][0] == expected
            stored = {n: (text, f"single-map.{n}")
                      for n, text in yaml.load(expected, Loader=YamlLoader).items()}
        else:
            for doc in docs if op == "raw" else ():
                sim.store.write(configmap_key(doc.node), render_configmap_doc(doc))
            stored = {n: (sim.store.entries[configmap_key(n)][0], configmap_key(n)) for n in latest}
            assert {k: e[0] for k, e in sim.store.entries.items()} == {
                configmap_key(n): render_configmap_doc(d) for n, d in latest.items()
            }
        for node, (text, path) in stored.items():
            fresh = _outcome(lambda: parse_configmap_doc(text, path=path))
            assert _outcome(lambda: sim._read_doc(node)) == fresh
            assert _outcome(lambda: sim._read_doc(node)) == fresh


def test_per_node_documents_are_not_parsed_back(monkeypatch):
    """Converging and re-applying full_cm.yaml's documents reads every
    document from the store without parsing its text."""
    parsed = []
    real = srv6sim.sim.parse_configmap_doc

    def counting(data, path="configmap"):
        if isinstance(data, str):
            parsed.append(path)
        return real(data, path=path)

    monkeypatch.setattr(srv6sim.sim, "parse_configmap_doc", counting)
    sim = Simulation(load_scenario(SCENARIOS / "full_cm.yaml")).start()
    sim.apply_configmaps(load_scenario(SCENARIOS / "full_cm.yaml").configmaps)
    assert parsed == []
    # A version written as text alone is parsed, once.
    key = configmap_key("master")
    sim.store.write(key, sim.store.entries[key][0])
    sim.poll_all()
    sim.poll_all()
    assert parsed == [key]


def test_single_map_is_loaded_at_most_once_per_version(monkeypatch):
    scenario = load_scenario(SCENARIOS / "full_cm.yaml")
    scenario.configmap_fanout = "single-map"
    sim = Simulation(scenario)
    loads = Counter()
    real = yaml.load

    def counting(stream, Loader):
        text, version = sim.store.entries.get(SINGLE_MAP_KEY, (None, 0))
        if stream == text:
            loads[version] += 1
        return real(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", counting)
    sim.start()
    sim.apply_configmaps(load_scenario(SCENARIOS / "full_cm.yaml").configmaps)
    # A version written as text alone is loaded once for all three readers.
    raw = sim.store.write(SINGLE_MAP_KEY, sim.store.entries[SINGLE_MAP_KEY][0])
    assert len(sim.poll_all()) == 3
    sim.apply_configmaps(scenario.configmaps[:1])
    assert loads == {raw: 1}


# -- policies written directly by render_configmap_doc ---------------------


def full_dump(doc: ConfigMapDoc) -> str:
    """The whole document in one ``yaml.dump``, with the dumper that
    ``render_configmap_doc`` picks: libyaml unless some word may fold."""
    data = {
        "localsids": {k: str(v) for k, v in doc.localsids.items()},
        "node": doc.node,
        "policies": [
            {"bsid": str(p.bsid), "egress_node": str(p.egress_node),
             "segment_list": [str(s) for s in p.segment_list], "traffic": p.traffic}
            for p in doc.policies
        ],
    }
    words = [doc.node, *doc.localsids, *(p.traffic for p in doc.policies)]
    short = all(w.isascii() and w.isprintable() and len(w) <= 63 for w in words)
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper) if short else yaml.SafeDumper
    return yaml.dump(data, Dumper=dumper, sort_keys=False, default_flow_style=False)


def edge_docs(node: str) -> list[ConfigMapDoc]:
    """One document per ``EDGE_ADDRS`` address, which fills every field."""
    return [ConfigMapDoc(node, {"DT6": a}, (PolicyDocEntry(a, a, (a, a), "IPv6"),))
            for a in EDGE_ADDRS]


@st.composite
def doc_series(draw):
    """Documents drawn from one pool of entries, so that later renders meet
    addresses of earlier ones, under either dumper. Some segment lists are
    lists; some documents have no policies."""
    pool = draw(st.lists(CM_POLICIES, min_size=1, max_size=6))
    policies = st.lists(st.sampled_from(pool), max_size=6).map(tuple)
    docs = st.builds(ConfigMapDoc, node=ANY_NODE, localsids=CM_LOCALSIDS, policies=policies)
    return draw(st.lists(docs, min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(doc_series())
@example(edge_docs("master"))  # libyaml's emitter where PyYAML has it
@example(edge_docs("x" * 64))  # a word that may fold: the pure-Python emitter
def test_rendered_documents_match_full_dump(docs):
    for doc in docs + docs:
        assert render_configmap_doc(doc) == full_dump(doc)


@pytest.mark.parametrize("texts", [
    ("fe80::1", "fe80::1%eth0"), ("fe80::1%eth0", "fe80::1"),
    ("fe80::2%eth0", "fe80::2"),  # a value that no earlier render has met
])
def test_scoped_address_keeps_its_scope(texts):
    """A scoped address and the unscoped one with its integer, rendered one
    after the other in either order, each keep their own text."""
    for text in texts:
        a = IPv6Address(text)
        doc = ConfigMapDoc("master", {"DT6": a}, (PolicyDocEntry(a, a, (a,), "IPv6"),))
        assert render_configmap_doc(doc) == full_dump(doc)


@pytest.mark.parametrize("fanout", ["per-node", "single-map"])
def test_changed_policy_is_rendered_alone(fanout, monkeypatch):
    """Re-applying a document, or changing one policy in it, passes no policy
    to PyYAML: the policies are written directly. The single map dumps no
    entry when nothing changed, and one when one policy did."""
    scenario = load_scenario(SCENARIOS / "full_cm.yaml")
    scenario.configmap_fanout = fanout
    sim = Simulation(scenario).start()
    policies, entries = [], []
    dump, safe_dump = yaml.dump, yaml.safe_dump

    def counting_dump(data, *args, **kwargs):
        policies.extend(data.get("policies", ()) if isinstance(data, dict) else data)
        return dump(data, *args, **kwargs)

    def counting_safe_dump(data, *args, **kwargs):
        entries.extend(data)
        return safe_dump(data, *args, **kwargs)

    monkeypatch.setattr(yaml, "dump", counting_dump)
    monkeypatch.setattr(yaml, "safe_dump", counting_safe_dump)
    doc = scenario.configmaps[0]
    sim.apply_configmaps([doc])
    assert (policies, entries) == ([], [])
    first = replace(doc.policies[0], bsid=IPv6Address("cafe::77"))
    changed = replace(doc, policies=(first, *doc.policies[1:]))
    assert f"{doc.node}: 1 replaced" in sim.apply_configmaps([changed])
    assert policies == []
    assert entries == ([doc.node] if fanout == "single-map" else [])
    stored = sim.store.entries[configmap_key(doc.node) if fanout == "per-node" else SINGLE_MAP_KEY][0]
    text = stored if fanout == "per-node" else yaml.safe_load(stored)[doc.node]
    assert parse_configmap_doc(text) == changed


# -- the encap header each policy keeps ------------------------------------

# master's four BSIDs in full_cm.yaml, and the waypoints a replacement
# segment list may take
HDR_BSIDS = tuple(parse_v6(f"cafe::{b}") for b in ("4", "5", "1c2", "1c3"))
HDR_ROUTERS = st.lists(st.integers(1, 8).map(lambda r: parse_v6(f"fcff:{r}::1")), max_size=2)
HDR_SOURCES = (parse_v6("fd10::1000"), parse_v6("fd10::2000"))
# inner destinations: worker2's and worker1's pods (steered), master's own
# pod and a foreign address (not steered), in both families
HDR_DSTS = (
    "fd90:0:12::2", "fd90:0:11::2", "fd90:0:10::2", "fd99::1",
    "172.16.135.1", "172.16.166.128", "172.16.231.1", "10.9.0.1",
)
HDR_STEP = st.one_of(
    # (destination index, a fresh equal address object instead of the shared one)
    st.tuples(st.just("vector"), st.lists(
        st.tuples(st.integers(0, len(HDR_DSTS) - 1), st.booleans()), min_size=1, max_size=12),
        st.none()),
    # (BSID, waypoints, final segment: its own, the other family's DT SID, unrouted)
    st.tuples(st.just("install"), st.sampled_from(HDR_BSIDS),
              st.tuples(HDR_ROUTERS, st.sampled_from(["own", "other", "lost"]))),
    st.tuples(st.just("remove"), st.sampled_from(HDR_BSIDS), st.none()),
    st.tuples(st.just("source"), st.sampled_from(HDR_SOURCES), st.none()),
)


def _hdr_vector(picks) -> list[InnerPacket]:
    shared = [parse_addr(text) for text in HDR_DSTS]
    vector = []
    for i, (k, fresh) in enumerate(picks):
        dst = type(shared[k])(int(shared[k])) if fresh else shared[k]
        src = parse_addr("fd90:0:10::2" if dst.version == 6 else "172.16.231.1")
        vector.append(InnerPacket(src=src, dst=dst, payload=b"h%d" % i))
    return vector


def _hdr_step(sim: Simulation, step, original: dict, steering: dict) -> None:
    """Apply one dataplane mutation to master of ``sim``."""
    op, arg, extra = step
    dp = sim.dataplanes["master"]
    if op == "source":
        dp.set_encap_source(arg)
    elif op == "remove":
        dp.remove_policy(arg)
    elif op == "install":
        waypoints, final = extra
        own = original[arg].segments[-1]  # the egress node's End.DT SID
        last = {"own": own, "other": IPv6Address(int(own) ^ 1), "lost": parse_v6("fcee::1")}[final]
        dp.install_policy(replace(original[arg], segments=tuple(waypoints) + (last,)))
        for match, bsid in steering.items():
            if bsid == arg:
                dp.install_steering(SteeringRule(match, bsid))


def _tx_signature(disp) -> tuple:
    return disp.kind, disp.reason, disp.packet


@settings(max_examples=150, deadline=None)
@given(st.lists(HDR_STEP, min_size=1, max_size=8))
def test_stored_encap_header_follows_policy_changes(steps):
    """Policy replacement, removal and reinstall and a new encap source,
    interleaved with vectors of mixed destinations and families: after every
    step ``run_vector`` equals the per-packet ``scalar_tx`` (which builds its
    own SRH), and ``ping`` equals the plain walk of a twin simulation."""
    memoised, plain = _started("full_cm"), _started("full_cm")
    dp = memoised.dataplanes["master"]
    original, steering = dict(dp.policies), dict(dp.steering)
    probe = _hdr_vector([(k, False) for k in range(len(HDR_DSTS))])
    for step in steps:
        _hdr_step(memoised, step, original, steering)
        _hdr_step(plain, step, original, steering)
        vectors = [probe] + ([_hdr_vector(step[1])] if step[0] == "vector" else [])
        for vector in vectors:
            assert list(map(_tx_signature, run_vector(dp, vector))) == [
                _tx_signature(scalar_tx(dp, p)) for p in vector
            ]
        for dst, family in (("pod-worker1", "v4"), ("pod-worker2", "v6"), ("pod-worker2", "v4")):
            got = memoised.ping("pod-master", dst, count=3, family=family)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(srv6sim.sim, "forward", lambda *args: forward(*args[:5]))
                want = plain.ping("pod-master", dst, count=3, family=family)
            assert _fates(got.traces) == _fates(want.traces)
            assert (got.delivered, got.drop_reasons) == (want.delivered, want.drop_reasons)
    assert memoised.report_json() == plain.report_json()
    assert memoised.state_dump() == plain.state_dump()


def test_srh_built_once_per_policy_and_per_end_hop(monkeypatch):
    """A policy's SRH is built once, on first use, and kept with the policy.
    After that, a 768-packet ping builds an SRH only at the End hops of its
    flow's first walk: none at the headend and none in the replays.
    Re-installing the policy as it is keeps its SRH; replacing its segments
    builds exactly one new SRH."""
    sim = _started("full_cm")
    built = []
    post_init = Srh.__post_init__
    monkeypatch.setattr(Srh, "__post_init__", lambda srh: (built.append(srh), post_init(srh)))

    def ping(count):
        return sim.ping("pod-master", "pod-worker2", count=count, family="v6")

    dp = sim.dataplanes["master"]
    policy = dp.policies[parse_v6("cafe::5")]
    assert ping(1).delivered == 1 and built[0] is policy.srh
    built.clear()
    report = ping(768)
    assert report.delivered == 768
    assert len(built) == len(waypoints(report.traces[0])) == 2  # End at R6 and R8
    vector = [InnerPacket(src=parse_addr("fd90:0:10::2"), dst=parse_addr("fd90:0:12::2"),
                          payload=b"%d" % i) for i in range(5)]
    built.clear()
    dp.install_policy(replace(policy))
    run_vector(dp, vector)
    assert built == [] and dp.policies[policy.bsid].srh is policy.srh
    dp.install_policy(replace(policy, segments=policy.segments[1:]))
    outers = [d.packet for d in run_vector(dp, vector)]
    assert len(built) == 1 and all(outer.srh is built[0] for outer in outers)
    assert built[0].segment_list == policy.segments[:0:-1]


def test_localsid_lookup_runs_only_in_the_first_walk(monkeypatch):
    """A 768-packet ping looks its localSIDs up in the first packet's walk
    only: one ``process_local`` call per localSID hit (End at R6 and R8,
    End.DT6 at worker2). The replays run End.DT on their inner bytes."""
    sim = _started("full_cm")
    forwarded, looked_up = [], []
    process_local = NodeDataplane.process_local

    def spy_forward(*args):
        forwarded.append(args[3])
        return forward(*args)

    def spy_process_local(dp, pkt):
        looked_up.append(len(forwarded))
        return process_local(dp, pkt)

    monkeypatch.setattr(srv6sim.sim, "forward", spy_forward)
    monkeypatch.setattr(NodeDataplane, "process_local", spy_process_local)
    report = sim.ping("pod-master", "pod-worker2", count=768, family="v6")
    assert report.delivered == len(forwarded) == 768
    assert looked_up == [1, 1, 1]  # all inside the first forward call
    assert len(waypoints(report.traces[0])) + 1 == 3
    assert sim.dataplanes["worker2"].counters()[str(forwarded[0].srh.segment_list[0])] == 768
