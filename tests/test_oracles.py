"""Optimised structures checked against their simple oracles.

- ``LpmIndex`` (per-length hash tables) against a linear longest-prefix scan.
- ``SessionBus.pending_sessions()`` (kept sorted incrementally) against a
  sort of every non-empty session.
- ``Simulation.current_routes()`` (cached) against routes built afresh
  from ``compute_routes()`` and the advertised prefixes.
- libyaml's loader and emitter against PyYAML's pure-Python safe loader
  and dumper.
- ``schema.load``, which builds plain YAML from the parser's events, against
  ``yaml.load`` / ``yaml.load_all``: the same data, or the same error.
- ``Simulation.ping``, which walks each flow once, against ``twin_ping``,
  which sends every packet through ``scalar_tx``, its own walk and ``decap``.
- The decoded ConfigMap documents the store keeps per version against a
  fresh ``parse_configmap_doc`` of the stored text.
- ``parse_configmap_doc`` of a ``ConfigMapDoc`` a caller built against the
  same reader on the YAML text of its plain data: the same document, or the
  same located error.
- ``render_configmap_doc`` (policies written without PyYAML) against one
  ``yaml.dump`` of the whole document.
- The SRH each installed policy keeps, and the per-destination lookups of
  ``run_vector``, against ``scalar_tx``, which builds its SRH per packet.
"""

import re
from dataclasses import replace
from ipaddress import IPv4Address, IPv6Address, IPv6Network, ip_network

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srv6sim.sim
from srv6sim import dataplane, schema
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
from srv6sim.underlay import Routes, compute_routes, forward, waypoints

from conftest import SCENARIOS, forward_packet, twin_ping, tx_flows


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
        among = {value for _op, _prefix, value in ops}  # a drawn subset of the values
        for addr in probes + [p.network_address for p in table]:
            assert index.lookup(addr) == linear_lpm(table, addr), addr
            want = linear_lpm({p: v for p, v in table.items() if v in among}, addr)
            assert index.lookup(addr, among) == want, addr


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
        elif op == "remove":  # a policy's removal takes its steering rules with it
            policy = dp.policies[policies[prefix.version]._ip]
            dp.remove_policy(policy.bsid)
            dp.install_policy(policy)
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
    advertised = {router.sid_prefix: router.name for router in sim.scenario.routers}
    for node in sim.scenario.nodes:
        advertised[IPv6Network((node.infra, 128))] = node.name
        for entry in sim.dataplanes[node.name].localsids.values():
            advertised[IPv6Network((entry.sid, 128))] = node.name
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
    sids = [IPv6Address(f"fcee::{k}") for k in range(1, 7)]  # the SIDs ops add and remove

    def assert_fresh():
        advertised = advertised_oracle(sim)
        fresh = Routes(LpmIndex(advertised), compute_routes(sim.topology))
        cached = sim.current_routes()
        for vertex in fresh.first_hop:
            for addr in [p.network_address for p in advertised] + sids:
                assert cached.next_hop(vertex, addr) == fresh.next_hop(vertex, addr), (vertex, addr)

    assert_fresh()
    for op, node, k in ops:
        dp = sim.dataplanes[node]
        if op == "install":
            dp.install_localsid(LocalSidEntry(sid=sids[k - 1], behavior=Behavior("End")))
        else:
            dp.remove_localsid(sids[k - 1])
        assert_fresh()


def test_first_hops_computed_once_per_simulation(monkeypatch):
    """Neither ``Simulation()`` nor ``start()`` computes first hops; the
    first ``current_routes()`` does, and a localSID change rebuilds only the
    prefix index."""
    calls = []
    monkeypatch.setattr(srv6sim.sim, "compute_routes",
                        lambda topology: calls.append(topology) or compute_routes(topology))
    sim = Simulation(load_scenario(SCENARIOS / "full_cm.yaml")).start()
    assert calls == []
    before = sim.current_routes()
    sim.dataplanes["worker1"].install_localsid(
        LocalSidEntry(sid=IPv6Address("fcee::1"), behavior=Behavior("End")))
    after = sim.current_routes()
    assert after.prefixes is not before.prefixes
    assert after.first_hop is before.first_hop and len(calls) == 1
    assert sim.ping("pod-master", "pod-worker2").delivered == 4
    assert len(calls) == 1


V6 = st.integers(0, 2**128 - 1).map(IPv6Address)
WORDS = st.one_of(
    st.text(min_size=1, max_size=120),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=63),
)


# The entries of a checked document: a policy per (egress, traffic) key and per BSID.
UNIQUE_POLICY = (lambda p: (p.egress_node, p.traffic), lambda p: p.bsid)


def checked_docs(nodes, addrs=V6, policies=None):
    """Documents that ``parse_configmap_doc`` accepts, as it returns them:
    the only documents ``render_configmap_doc`` is given."""
    if policies is None:
        policies = st.lists(st.builds(
            PolicyDocEntry, egress_node=addrs, bsid=addrs,
            segment_list=st.lists(addrs, min_size=1, max_size=4).map(tuple),
            traffic=st.sampled_from(["IPv4", "IPv6"]),
        ), max_size=4, unique_by=UNIQUE_POLICY).map(tuple)
    localsids = st.dictionaries(st.sampled_from(["DT4", "DT6"]), addrs)
    return st.builds(ConfigMapDoc, node=nodes, localsids=localsids,
                     policies=policies).map(parse_configmap_doc)


@settings(max_examples=300, deadline=None)
@given(checked_docs(WORDS))
def test_libyaml_matches_pure_python_yaml(doc):
    text = render_configmap_doc(doc)
    data = yaml.load(text, Loader=yaml.SafeLoader)
    assert text == yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
    assert yaml.load(text, Loader=YamlLoader) == data


@pytest.mark.parametrize(
    "path", sorted(SCENARIOS.glob("*.yaml")) + sorted(SCENARIOS.glob("policies/*.yaml")),
    ids=lambda p: p.name,
)
def test_libyaml_reads_shipped_files_like_pure_python(path):
    text = path.read_text()
    assert schema.load(text, str(path), every=True) == list(yaml.load_all(text, Loader=yaml.SafeLoader))


# -- schema.load: documents from parser events -----------------------------

# Plain scalars of every implicit type, quoted strings, and keys that may repeat.
PLAIN_SCALARS = (
    "a", "b c", "fcff::1", "10.0.0.0/24", "x-y", "0x1f", "0o17", "017", "1_000", "1:30",
    "-7", "+3", "0b101", "1.5", "1e3", "1.5e+3", "3.", ".inf", "-.Inf", ".NaN", "1:30.5",
    "yes", "No", "on", "OFF", "true", "y", "~", "null", "NULL", "",
    '"1"', "'yes'", '"a\\tb"', "''", "'it''s'", '"~"',
)
# Each of these sends the text to PyYAML's composer and constructor.
FALLBACK_SCALARS = (
    "2001-12-14", "2002-12-14 21:59:43.10 -5", "<<", "=", "&a x", "*a", "!!str 5",
    "!foo x", "! x", "0b_", "._", "[k]", "{k: v}",
)
KEYS = ("a", "b", "1", "yes", "~", "'a'", "1.0")


def _flow(node) -> str:
    kind, flow, body = node
    if kind == "scalar":
        return body
    if kind == "seq":
        return "[" + ", ".join(_flow(item) for item in body) + "]"
    return "{" + ", ".join(f"{key}: {_flow(value)}" for key, value in body) + "}"


def _block(node, indent: int) -> str:
    """``node`` as YAML text at ``indent``: a line per entry of a non-empty
    block collection, else its scalar or flow text on the current line."""
    kind, flow, body = node
    if kind == "scalar" or flow or not body:
        return f"{_flow(node)}\n"
    pad = " " * indent
    heads = [(f"{key}:", value) for key, value in body] if kind == "map" else [("-", v) for v in body]
    return "".join(
        f"{pad}{head}" + (" " if item[0] == "scalar" or item[1] or not item[2] else "\n")
        + _block(item, indent + 2)
        for head, item in heads
    )


@st.composite
def yaml_nodes(draw, depth: int = 3, fallback: bool = False):
    """A tree of ``(kind, flow, body)``: a scalar token, or a block or flow
    sequence or mapping. With ``fallback``, tokens may need PyYAML."""
    tokens = PLAIN_SCALARS + (FALLBACK_SCALARS if fallback else ())
    kind = draw(st.sampled_from(("scalar", "seq", "map") if depth else ("scalar",)))
    if kind == "scalar":
        return ("scalar", False, draw(st.sampled_from(tokens)))
    child = yaml_nodes(depth - 1, fallback)
    if kind == "seq":
        body = draw(st.lists(child, max_size=3))
    else:
        keys = KEYS + (FALLBACK_SCALARS if fallback else ())
        body = draw(st.lists(st.tuples(st.sampled_from(keys), child), max_size=3))
    return (kind, draw(st.booleans()), body)


@st.composite
def yaml_texts(draw):
    """``(text, plain)``: one to three documents, or none; ``plain`` when no
    token needs PyYAML."""
    plain = draw(st.booleans())
    docs = draw(st.lists(yaml_nodes(fallback=not plain), max_size=3))
    text = "".join(("---\n" if i or draw(st.booleans()) else "") + _block(doc, 0)
                   for i, doc in enumerate(docs))
    if draw(st.booleans()):  # malformed: a random cut, or a stray closer
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(("", "]", "}", ": :", "\n  - x\n- ")))
    return text, plain


def _yaml_outcome(read, where: str):
    """``("data", repr)`` of what ``read()`` returns, or ``("error", message)``
    as ``schema.load`` words a YAML error or a constructor's ValueError (such
    as ``0b_``'s). repr tells ``1`` from ``1.0`` and ``True`` and shows NaN,
    which equals nothing."""
    try:
        return "data", repr(read())
    except ValidationError as exc:
        return "error", str(exc)
    except (yaml.YAMLError, ValueError) as exc:
        return "error", str(ValidationError(f"not valid YAML: {exc}", path=where))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(yaml_texts(), st.booleans())
def test_schema_load_matches_pyyaml_on_drawn_texts(drawn, every):
    text, plain = drawn
    where = "drawn.yaml"
    pyyaml = (lambda: list(yaml.load_all(text, Loader=YamlLoader))) if every else (
        lambda: yaml.load(text, Loader=YamlLoader))
    expected = _yaml_outcome(pyyaml, where)
    assert _yaml_outcome(lambda: schema.load(text, where, every), where) == expected
    pure = _yaml_outcome((lambda: list(yaml.load_all(text, Loader=yaml.SafeLoader))) if every else (
        lambda: yaml.load(text, Loader=yaml.SafeLoader)), where)
    # The two parsers differ on an empty scalar tagged "!": libyaml reads "", pure Python None.
    if pure[0] == "data" and expected[0] == "data" and "!" not in text:
        assert pure == expected
    if plain and expected[0] == "data":  # the fast path built it, unless the stream is empty
        assert schema._plain_documents(text, every) is not None or expected[1] == "None"


@pytest.mark.parametrize("text", [
    "a: 2001-12-14\n", "base: &b {x: 1}\nuse:\n  <<: *b\n", "a: !!str 5\n", "? [a, b]\n: c\n",
    "{[a]: b}\n", "a: 1\n---\nb: 2\n", "", "# only a comment\n", "a: 0b_\n", "a: =\n",
])
def test_schema_load_falls_back_for_whatever_plain_yaml_lacks(text):
    assert schema._plain_documents(text, every=False) is None
    assert _yaml_outcome(lambda: schema.load(text, "t"), "t") == _yaml_outcome(
        lambda: yaml.load(text, Loader=YamlLoader), "t")


def test_schema_load_keeps_the_last_of_duplicate_keys_in_the_first_place():
    text = "a: 1\nb: 2\na: 3\nyes: 4\ntrue: 5\n"
    assert schema._plain_documents(text, every=False) == [{"a": 3, "b": 2, True: 5}]
    assert list(schema.load(text, "t").items()) == list(yaml.load(text, Loader=YamlLoader).items())


def test_shipped_files_load_without_pyyaml_constructor(monkeypatch):
    """Every shipped scenario and policy file is plain YAML: none of them
    reaches the fallback."""
    def refused(*args, **kwargs):
        raise AssertionError("schema.load fell back to yaml.load")

    monkeypatch.setattr(yaml, "load", refused)
    monkeypatch.setattr(yaml, "load_all", refused)
    for path in sorted(SCENARIOS.glob("*.yaml")):
        if path.name.startswith("configmap_"):
            assert srv6sim.sim.load_configmap_docs(path.read_text(), str(path))
        else:
            assert load_scenario(path).nodes
    for path in sorted((SCENARIOS / "policies").glob("*.yaml")):
        assert parse_policy_file(path.read_text(), path=str(path))


def test_schema_load_reads_deeply_nested_flow_sequences():
    depth = 20_000
    data = schema.load("[" * depth + "]" * depth, "deep.yaml")
    for _ in range(depth - 1):
        (data,) = data
    assert data == []


# -- frames: one walk per flow in Simulation.ping --------------------------

FRAME_CASES = ("basic", "full_cm", "full_bgp", "full_bgp+inject")


def _started(case: str) -> Simulation:
    sim = Simulation(load_scenario(SCENARIOS / f"{case.split('+')[0]}.yaml")).start()
    if case.endswith("+inject"):
        for path in sorted((SCENARIOS / "policies").glob("*.yaml")):
            sim.inject(parse_policy_file(path.read_text()))
    return sim


def _fates(traces) -> list:
    return [(t.hops, t.disposition, t.deliver_node) for t in traces]


def _same_reports(got, want) -> None:
    assert _fates(got.traces) == _fates(want.traces)
    assert (got.delivered, got.dropped, got.drop_reasons) == (
        want.delivered, want.dropped, want.drop_reasons)


def _pairs(sim: Simulation):
    for src in sorted(sim.pods):
        for dst in sorted(sim.pods):
            for family in ("v4", "v6"):
                if src != dst and all(family in sim.pods[p].addrs for p in (src, dst)):
                    yield src, dst, family


@pytest.mark.parametrize("case", FRAME_CASES)
def test_frames_match_per_packet_twin(case):
    """Twin simulations ping every pod pair in both families, 5 packets and
    300 (two vectors): ``ping`` walks each flow once, its twin sends every
    packet through ``scalar_tx``, its own walk and ``decap``."""
    frames, twin = _started(case), _started(case)
    forwarded = 0
    for src, dst, family in _pairs(frames):
        for count in (5, 300):
            got = frames.ping(src, dst, count=count, family=family)
            _same_reports(got, twin_ping(twin, src, dst, count=count, family=family))
            forwarded += len(got.traces)
    assert frames.report_json() == twin.report_json()
    assert forwarded or case == "full_bgp"  # full_bgp steers nothing before injects


@pytest.mark.parametrize("case", FRAME_CASES)
def test_frame_size_does_not_change_the_result(case):
    """A ping of N packets and N one-packet pings leave the same report,
    counters and drop reasons: the frame size does not change the result."""
    frames, singles = _started(case), _started(case)
    for src, dst, family in _pairs(frames):
        got = frames.ping(src, dst, count=7, family=family)
        ones = [singles.ping(src, dst, count=1, family=family) for _ in range(7)]
        assert got.delivered == sum(r.delivered for r in ones)
        assert got.drop_reasons == [reason for r in ones for reason in r.drop_reasons]
    assert frames.report_json() == singles.report_json()


def _crafted_twins(segments, monkeypatch=None, hop_limit=None):
    """Two full_cm simulations whose master steers pod-worker2's v6 traffic
    through ``segments`` (forward order), optionally with another outer hop
    limit; a 300-packet ping on one and its per-packet twin on the other
    must agree. Returns the frame ping's report."""
    if hop_limit is not None:
        monkeypatch.setattr(dataplane, "OUTER_HOP_LIMIT", hop_limit)
    frames, twin = _started("full_cm"), _started("full_cm")
    for sim in (frames, twin):
        dp = sim.dataplanes["master"]
        policy = dp.policies[parse_v6("cafe::5")._ip]
        dp.install_policy(replace(policy, segments=segments(policy.segments)))
    got = frames.ping("pod-master", "pod-worker2", count=300, family="v6")
    _same_reports(got, twin_ping(twin, "pod-master", "pod-worker2", count=300, family="v6"))
    assert frames.report_json() == twin.report_json()
    assert len({id(t.hops) for t in got.traces}) == 1  # one hop list per flow and fate
    return got


END_R6 = parse_v6("fcff:6::1")


def test_frame_shares_header_level_drops(monkeypatch):
    """Drops that the header decides drop every packet of the flow alike:
    the hop limit running out at R7 after R6 consumed a segment, and a next
    SID that nobody advertises (no route at R6)."""
    got = _crafted_twins(lambda segs: segs, monkeypatch, hop_limit=4)
    assert set(got.drop_reasons) == {"ttl"} and got.dropped == 300
    assert [h.action for h in got.traces[0].hops][-3:] == ["end", "transit", "drop:ttl"]
    got = _crafted_twins(lambda segs: (END_R6, parse_v6("fcff:99::1")))
    assert set(got.drop_reasons) == {"no route"} and got.traces[-1].hops[-1].at == "R6"


def test_frame_shares_localsid_header_drops():
    """A walk that ends at R6's End SID with no segments left, and one that
    reaches worker2's End.DT6 SID with a segment left: each localSID counts
    every packet it dropped."""
    got = _crafted_twins(lambda segs: (END_R6,))
    assert set(got.drop_reasons) == {"no more segments"} and got.traces[0].hops[-1].at == "R6"
    assert got.traces[0].disposition is got.traces[-1].disposition
    got = _crafted_twins(lambda segs: (segs[-1], END_R6))
    assert set(got.drop_reasons) == {"premature decap"} and got.traces[0].hops[-1].at == "worker2"


def _inners(family: str, n: int) -> list[bytes]:
    src, dst = ("172.16.231.1", "172.16.135.1") if family == "v4" else ("fd90:0:10::2", "fd90:0:12::2")
    return [
        InnerPacket(src=parse_addr(src), dst=parse_addr(dst), payload=b"p%d" % i).encode()
        for i in range(n)
    ]


def test_frame_runs_decap_per_packet():
    """v4 inners behind a v6 tunnel's header reach its End.DT6 SID: only
    they drop, although the flow's walk ended at End.DT. The records of a
    fate share one hop list, and each matches the packet's own walk."""
    frames, twin = _started("full_cm"), _started("full_cm")
    flow, = run_vector(frames.dataplanes["master"], [
        InnerPacket(src=parse_addr("fd90:0:10::2"), dst=parse_addr("fd90:0:12::2"))])
    walk = forward(frames.topology, frames.current_routes(), "master", flow.header,
                   frames.dataplanes)
    v6, v4 = _inners("v6", 3), _inners("v4", 3)
    inners = [v6[0], v4[0], v6[1], v4[1], v4[2], v6[2]]
    got = [walk.record(walk.end.decap(inner)) for inner in inners]
    want = [forward_packet(twin.topology, twin.current_routes(), "master",
                           flow.header, inner, twin.dataplanes)
            for inner in inners]
    assert _fates(got) == _fates(want)
    assert [t.disposition.reason for t in got] == [None, "family mismatch", None,
                                                   "family mismatch", "family mismatch", None]
    assert [t.deliver_node for t in got] == ["worker2", None, "worker2", None, None, "worker2"]
    assert [t.disposition.inner.payload for t in got if t.delivered] == [b"p0", b"p1", b"p2"]
    assert got[0].hops is got[2].hops and got[1].hops is got[3].hops


# -- decoded ConfigMap documents in the store ------------------------------

CM_NODES = ("master", "worker1", "worker2")  # the nodes of full_cm.yaml
# Texts PyYAML quotes (one ending in ":", or a YAML 1.1 base-60 int) and texts it leaves plain.
EDGE_ADDRS = tuple(IPv6Address(a) for a in (
    "::", "1::", "0:1::", "1:2:3:4:5:6:7:8", "1:0:2:0:3:0:4:0", "1:2:3:4:5:6:7:60",
))
# Mostly IPv6 addresses that repeat; an IPv4 one, or one with a zone, makes
# a document that the reader refuses.
CHECKED_ADDRS = st.one_of(
    st.sampled_from([IPv6Address(f"fcdd::{i}") for i in range(4)]), V6, V6,
    st.sampled_from(EDGE_ADDRS),
)
CM_ADDRS = st.one_of(
    CHECKED_ADDRS,
    st.integers(0, 2**32 - 1).map(IPv4Address),
    st.sampled_from([IPv6Address("fe80::1%eth0"), IPv6Address("fcdd::1%1")]),
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
    """Documents that the reader accepts as they are and documents that it
    does not: words for traffic, localSID kinds and node names, IPv4 and
    scoped addresses, and segment lists given as lists, which it reads as
    tuples."""
    policies = draw(
        st.lists(CM_POLICIES, max_size=3, unique_by=lambda p: (p.egress_node, p.traffic))
    )
    return ConfigMapDoc(node=draw(nodes), localsids=draw(CM_LOCALSIDS), policies=tuple(policies))


# Node names that YAML would quote, or write as an explicit ``? key``
# entry (128 characters or more, or several lines); a data map keeps them as keys.
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
        st.tuples(st.just("poll"), st.just([])),
    ),
    max_size=8,
)


def _outcome(read):
    try:
        return read()
    except ValidationError as exc:
        return ("ValidationError", str(exc))


@pytest.mark.parametrize("fanout", ["per-node", "single-map"])
@settings(max_examples=60, deadline=None)
@given(ops=CACHE_OPS)
def test_decoded_documents_match_fresh_parse(fanout, ops):
    """Random writes, applies and polls. A write stores checked documents
    for any node; an apply checks its own. Either is refused whole if a
    document is refused. After each op, every read equals a fresh parse of
    the stored text, and the stored data is the full rendering of the
    checked documents written."""
    scenario = load_scenario(SCENARIOS / "full_cm.yaml")
    scenario.configmap_fanout = fanout
    sim = Simulation(scenario).start()
    latest = {doc.node: doc for doc in scenario.configmaps}
    for op, docs in ops:
        if op == "write":
            outcome = _outcome(lambda: sim._write_docs([parse_configmap_doc(d) for d in docs]))
        elif op == "apply":
            outcome = _outcome(lambda: sim.apply_configmaps(docs))
        else:
            outcome = sim.poll_all()
        if not (isinstance(outcome, tuple) and outcome[0] == "ValidationError"):
            latest.update((doc.node, parse_configmap_doc(doc)) for doc in docs)
        rendered = {n: render_configmap_doc(d) for n, d in latest.items()}
        if fanout == "single-map":
            expected = {SINGLE_MAP_KEY: rendered}
            paths = {n: f"single-map.{n}" for n in latest}
        else:
            expected = {configmap_key(n): {n: text} for n, text in rendered.items()}
            paths = {n: configmap_key(n) for n in latest}
        assert {k: e[0] for k, e in sim.store.entries.items()} == expected
        for node, path in paths.items():
            fresh = parse_configmap_doc(rendered[node], path=path)
            assert sim._read_doc(node) == fresh
            assert sim._read_doc(node) == fresh


@pytest.mark.parametrize("fanout", ["per-node", "single-map"])
def test_stored_documents_are_not_parsed_back(fanout, monkeypatch):
    """Converging full_cm.yaml checks no document: ``load_scenario`` has.
    Re-applying its documents checks each once, as a document, and reads
    every document from the store without parsing its text."""
    checked = []
    real = srv6sim.sim.parse_configmap_doc

    def counting(data, path="configmap"):
        checked.append((type(data), path))
        return real(data, path=path)

    monkeypatch.setattr(srv6sim.sim, "parse_configmap_doc", counting)
    scenario = load_scenario(SCENARIOS / "full_cm.yaml")
    scenario.configmap_fanout = fanout
    sim = Simulation(scenario).start()
    assert checked == []
    sim.apply_configmaps(load_scenario(SCENARIOS / "full_cm.yaml").configmaps)
    where = "srv6-config-{}" if fanout == "per-node" else "single-map.{}"
    assert checked == [(ConfigMapDoc, where.format(node)) for node in CM_NODES]


@pytest.mark.parametrize("fanout", ["per-node", "single-map"])
def test_apply_with_an_unparseable_document_is_refused_whole(fanout):
    """An API-built document that the reader refuses (an IPv4 or scoped
    segment, or more segments than an SRH holds) is refused with the located
    error its YAML text would give, before anything of its apply is
    written: the store's versions, ``state_dump()`` and the events stay as
    they were, the good document of the same apply included. Applied alone,
    that document then goes through."""
    scenario = load_scenario(SCENARIOS / "full_cm.yaml")
    scenario.configmap_fanout = fanout
    sim = Simulation(scenario).start()
    docs = {doc.node: doc for doc in scenario.configmaps}
    master, worker1 = docs["master"], docs["worker1"]
    first = master.policies[0]
    fewer = replace(worker1, policies=worker1.policies[1:])
    where = "srv6-config-master" if fanout == "per-node" else "single-map.master"
    for segments, message in (
            ((IPv4Address("10.0.0.1"),), "segment_list[0]: expected an IPv6 address, got '10.0.0.1'"),
            ((IPv6Address("fcff:7::1%eth0"),),
             "segment_list[0]: scoped address 'fcff:7::1%eth0': no header field carries a zone"),
            (first.segment_list[:1] * 127 + first.segment_list[-1:],
             "segment_list: 128 segments, more than the 127 an SRH holds")):
        bad = replace(master, policies=(replace(first, segment_list=segments), *master.policies[1:]))
        for apply in ([bad, fewer], [fewer, bad]):
            before = (dict(sim.store.entries), sim.store._version, sim.state_dump(), list(sim.events))
            with pytest.raises(ValidationError,
                               match=f"^{re.escape(f'{where}.policies[0].{message}')}$"):
                sim.apply_configmaps(apply)
            assert (sim.store.entries, sim.store._version, sim.state_dump(), sim.events) == before
    assert sim.poll_all() == [] and len(sim.dataplanes["worker1"].policies) == 4
    summaries = ["worker1: 1 removed"]
    if fanout == "single-map":  # the map's new version reaches every node
        summaries = ["master: 0 changes", *summaries, "worker2: 0 changes"]
    assert sim.apply_configmaps([fewer]) == summaries
    assert len(sim.dataplanes["worker1"].policies) == 3


# -- a caller's document is read as its YAML text -------------------------

# What a caller may put in an address field: addresses (IPv4 and scoped ones
# included) and their texts, malformed texts and other values.
ANY_ADDRS = st.one_of(CM_ADDRS, CM_ADDRS.map(str),
                      st.sampled_from(["zz", " fcdd::2 ", "", "fcff:7::1%eth0", "10.0.0.1", 5, None]))
ANY_SEGMENTS = st.one_of(
    st.lists(ANY_ADDRS, max_size=3),
    st.integers(126, 129).map(lambda n: [IPv6Address("fcff:3::1")] * n),  # the SRH's bound
)
ANY_POLICIES = st.builds(
    PolicyDocEntry, egress_node=ANY_ADDRS, bsid=ANY_ADDRS,
    segment_list=st.one_of(ANY_SEGMENTS.map(tuple), ANY_SEGMENTS),
    traffic=st.one_of(st.sampled_from(["IPv4", "IPv6"]), WORDS, st.integers()),
)
BUILT_DOCS = st.builds(
    ConfigMapDoc,
    node=st.one_of(st.sampled_from(CM_NODES), WORDS, st.sampled_from(["", 5, None])),
    localsids=st.dictionaries(st.one_of(st.sampled_from(["DT4", "DT6"]), WORDS), ANY_ADDRS,
                              max_size=2),
    policies=st.one_of(*(st.lists(ANY_POLICIES, max_size=3).map(kind) for kind in (tuple, list))),
)


def yaml_data(doc: ConfigMapDoc) -> dict:
    """The plain data of ``doc``'s YAML text: each address as its text."""
    return {
        "localsids": {k: str(v) for k, v in doc.localsids.items()},
        "node": doc.node,
        "policies": [{"bsid": str(p.bsid), "egress_node": str(p.egress_node),
                      "segment_list": [str(s) for s in p.segment_list], "traffic": p.traffic}
                     for p in doc.policies],
    }


@settings(max_examples=300, deadline=None)
@given(doc=BUILT_DOCS, path=st.sampled_from(["configmap", "srv6-config-master", "single-map.x"]))
def test_built_documents_read_as_their_yaml_text(doc, path):
    """A caller's document, valid or not, reads as the YAML text of its
    plain data does: the same document, of canonical addresses, or the same
    located error."""
    text = yaml.safe_dump(yaml_data(doc), sort_keys=False)
    got = _outcome(lambda: parse_configmap_doc(doc, path))
    assert got == _outcome(lambda: parse_configmap_doc(text, path))
    if isinstance(got, ConfigMapDoc):
        assert all(a is parse_v6(str(a)) for a in [
            *got.localsids.values(),
            *(a for p in got.policies for a in (p.egress_node, p.bsid, *p.segment_list))])


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
    """Checked documents drawn from one pool of entries, so that later
    renders meet addresses of earlier ones, under either dumper. Some
    documents have no policies."""
    pool = draw(st.lists(st.builds(
        PolicyDocEntry, egress_node=CHECKED_ADDRS, bsid=CHECKED_ADDRS,
        segment_list=st.lists(CHECKED_ADDRS, min_size=1, max_size=3).map(tuple),
        traffic=st.sampled_from(["IPv4", "IPv6"])), min_size=1, max_size=6))
    policies = st.lists(st.sampled_from(pool), max_size=6, unique_by=UNIQUE_POLICY).map(tuple)
    return draw(st.lists(checked_docs(ANY_NODE, CHECKED_ADDRS, policies), min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(doc_series())
@example(edge_docs("master"))  # libyaml's emitter where PyYAML has it
@example(edge_docs("x" * 64))  # a word that may fold: the pure-Python emitter
def test_rendered_documents_match_full_dump(docs):
    for doc in docs + docs:
        assert render_configmap_doc(doc) == full_dump(doc)


@pytest.mark.parametrize("texts", [
    ("fe80::1", "fe80::1%eth0"), ("fe80::1%eth0", "fe80::1"),
    ("fe80::3%eth0", "fe80::3"),  # a value that no earlier check or render has met
])
def test_scoped_address_is_refused(texts):
    """A scoped BSID and the unscoped one with its integer, applied one after
    the other in either order: the scoped one is refused at its field before
    anything is written, and the unscoped one is stored and rendered as the
    canonical object of its value."""
    sim = _started("full_cm")
    doc = next(d for d in sim.scenario.configmaps if d.node == "master")
    for text in texts:
        bsid = IPv6Address(text)
        new = replace(doc, policies=(replace(doc.policies[0], bsid=bsid), *doc.policies[1:]))
        if "%" in text:
            before = (dict(sim.store.entries), sim.state_dump())
            with pytest.raises(ValidationError, match=re.escape(
                    f"srv6-config-master.policies[0].bsid: scoped address {text!r}")):
                sim.apply_configmaps([new])
            assert (sim.store.entries, sim.state_dump()) == before
        else:
            assert sim.apply_configmaps([new]) == ["master: 1 replaced"]
    stored = sim._read_doc("master").policies[0].bsid
    assert stored == IPv6Address(texts[0].split("%")[0]) and stored._scope_id is None
    assert stored is parse_v6(str(stored))
    assert f"- bsid: {stored}\n" in sim.store.entries["srv6-config-master"][0]["master"]


@pytest.mark.parametrize("fanout", ["per-node", "single-map"])
def test_changed_policy_is_rendered_alone(fanout, monkeypatch):
    """Bringing up, re-applying a document, or changing one policy in it,
    passes no policy to PyYAML: the policies are written directly. No
    fan-out dumps a map: the store keeps each ConfigMap as its data map."""
    scenario = load_scenario(SCENARIOS / "full_cm.yaml")
    scenario.configmap_fanout = fanout
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
    sim = Simulation(scenario).start()
    assert (policies, entries) == ([], [])
    doc = scenario.configmaps[0]
    sim.apply_configmaps([doc])
    assert (policies, entries) == ([], [])
    first = replace(doc.policies[0], bsid=IPv6Address("cafe::77"))
    changed = replace(doc, policies=(first, *doc.policies[1:]))
    assert f"{doc.node}: 1 replaced" in sim.apply_configmaps([changed])
    assert (policies, entries) == ([], [])
    assert parse_configmap_doc(sim.store.entries[sim._map_key(doc.node)][0][doc.node]) == changed
    # refused documents, and one that is read as its plain data, dump no policy either
    scoped = replace(first, segment_list=(IPv6Address("fcff:7::1%eth0"),))
    for bad in (replace(doc, policies=(scoped, *doc.policies[1:])),
                replace(doc, policies=(replace(first, traffic="IPv5"), *doc.policies[1:]))):
        with pytest.raises(ValidationError):
            sim.apply_configmaps([bad])
    listed = replace(doc, policies=tuple(replace(p, segment_list=list(p.segment_list))
                                         for p in doc.policies))
    assert f"{doc.node}: 1 replaced" in sim.apply_configmaps([listed])
    assert (policies, entries) == ([], [])


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


@settings(max_examples=150, deadline=None)
@given(st.lists(HDR_STEP, min_size=1, max_size=8))
def test_stored_encap_header_follows_policy_changes(steps):
    """Policy replacement, removal and reinstall and a new encap source,
    interleaved with vectors of mixed destinations and families: after every
    step ``run_vector`` equals the per-packet ``scalar_tx`` (which builds its
    own SRH), and ``ping`` equals the per-packet ``twin_ping`` of a twin."""
    frames, twin = _started("full_cm"), _started("full_cm")
    dp = frames.dataplanes["master"]
    original, steering = {p.bsid: p for p in dp.policies.values()}, dict(dp.steering)
    probe = _hdr_vector([(k, False) for k in range(len(HDR_DSTS))])
    for step in steps:
        _hdr_step(frames, step, original, steering)
        _hdr_step(twin, step, original, steering)
        vectors = [probe] + ([_hdr_vector(step[1])] if step[0] == "vector" else [])
        for vector in vectors:
            assert run_vector(dp, vector) == tx_flows(dp, vector)
        for dst, family in (("pod-worker1", "v4"), ("pod-worker2", "v6"), ("pod-worker2", "v4")):
            got = frames.ping("pod-master", dst, count=3, family=family)
            _same_reports(got, twin_ping(twin, "pod-master", dst, count=3, family=family))
    assert frames.report_json() == twin.report_json()
    assert frames.state_dump() == twin.state_dump()


def _constructed(monkeypatch, cls) -> list:
    """Every ``cls`` built from now on, in order, counted by wrapping the
    dataclass's ``__init__``."""
    built, init = [], cls.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_srh_built_once_per_policy_and_per_end_hop(monkeypatch):
    """A policy's SRH is built once, on first use, and kept with the policy.
    After that, a 768-packet ping builds an SRH only at the End hops of its
    flow's one walk: none at the headend and none per packet.
    Re-installing the policy as it is keeps its SRH; replacing its segments
    builds exactly one new SRH."""
    sim = _started("full_cm")
    built = _constructed(monkeypatch, Srh)

    def ping(count):
        return sim.ping("pod-master", "pod-worker2", count=count, family="v6")

    dp = sim.dataplanes["master"]
    policy = dp.policies[parse_v6("cafe::5")._ip]
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
    assert built == [] and dp.policies[policy.bsid._ip].srh is policy.srh
    dp.install_policy(replace(policy, segments=policy.segments[1:]))
    flow, = run_vector(dp, vector)
    assert len(built) == 1 and flow.header.srh is built[0] and len(flow.packets) == 5
    assert built[0].segment_list == policy.segments[:0:-1]


def test_localsid_lookup_runs_only_in_the_first_walk(monkeypatch):
    """A 768-packet ping (three vectors) is one flow: one ``forward`` call,
    which looks each localSID up once (End at R6 and R8, End.DT6 at
    worker2). The headend builds one header per vector and no outer packet
    per packet; the 768 records share one hop list, and worker2's End.DT
    counter still reads 768."""
    sim = _started("full_cm")
    forwarded, looked_up, walked = [], [], []
    process_local = NodeDataplane.process_local

    def spy_forward(*args):
        forwarded.append(args[3])
        before = len(outers)
        walk = forward(*args)
        walked.append(len(outers) - before)
        return walk

    def spy_process_local(dp, pkt):
        looked_up.append(len(forwarded))
        return process_local(dp, pkt)

    monkeypatch.setattr(srv6sim.sim, "forward", spy_forward)
    monkeypatch.setattr(NodeDataplane, "process_local", spy_process_local)
    outers = _constructed(monkeypatch, OuterPacket)
    report = sim.ping("pod-master", "pod-worker2", count=768, family="v6")
    assert report.delivered == 768 and len(forwarded) == 1
    assert looked_up == [1, 1, 1]  # all inside the one forward call
    assert len(waypoints(report.traces[0])) + 1 == 3
    assert len(outers) - sum(walked) == 3  # the headend's: one header per vector
    assert len({id(t.hops) for t in report.traces}) == 1
    assert sim.dataplanes["worker2"].counters()[str(forwarded[0].srh.segment_list[0])] == 768
