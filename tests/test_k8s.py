import re
from dataclasses import replace

import pytest
import yaml

from srv6sim.errors import ValidationError
from srv6sim.k8s import (
    ConfigMapDoc,
    IpPool,
    IpamAllocator,
    KvStore,
    WatchHandle,
    configmap_key,
    diff_policies,
    parse_configmap_doc,
    poll,
    render_configmap_doc,
)
from srv6sim.net_types import parse_prefix, parse_v6
from srv6sim.scenario import load_scenario


# -- kv store / watch ------------------------------------------------------


def test_versions_are_store_wide_monotonic():
    store = KvStore()
    v1 = store.write("a", {"a": "1"}, {})
    v2 = store.write("b", {"b": "1"}, {})
    v3 = store.write("a", {"a": "2"}, {})
    assert v1 < v2 < v3
    assert store.entries["a"] == ({"a": "2"}, v3)


def test_write_replaces_the_decoded_value():
    store = KvStore()
    store.write("a", {"a": "1"}, {"a": 1})
    assert store.decoded["a"] == {"a": 1}
    store.write("a", {"a": "2"}, {})
    assert store.entries["a"][0] == {"a": "2"} and store.decoded["a"] == {}


def test_poll_reports_only_new_versions():
    store = KvStore()
    store.write("k", {"n": "v1"}, {})
    watch = WatchHandle(key="k")
    assert [kv[1] for kv in poll(store, watch)] == [{"n": "v1"}]
    assert poll(store, watch) == []  # unchanged
    store.write("other", {"n": "x"}, {})
    assert poll(store, watch) == []  # another key's write
    store.write("k", {"n": "v2"}, {})
    assert poll(store, watch) == [("k", {"n": "v2"}, 3)]
    assert store.poll_count == 4
    assert store.scan_units == 2


# -- IPAM ------------------------------------------------------------------


def test_reference_bsid_pool_carving():
    pool = IpPool(name="sr-policies-pool", cidr=parse_prefix("cafe::/118"),
                  block_size=122)
    assert pool.block_addrs == 64
    assert pool.block_count == 16
    ipam = IpamAllocator([pool])
    assert str(ipam.allocate("sr-policies-pool", "master")) == "cafe::"
    assert str(ipam.allocate("sr-policies-pool", "master")) == "cafe::1"
    # a second node claims the next whole block
    assert str(ipam.allocate("sr-policies-pool", "worker1")) == "cafe::40"


def test_reference_localsid_pools_load():
    pools = [
        IpPool(name=f"sr-localsids-pool-{node}", cidr=parse_prefix(cidr),
               block_size=122, node_selector=node)
        for node, cidr in (
            ("master", "fcff:0:0:00AA::/64"),
            ("worker1", "fcff:0:0:11AA::/64"),
            ("worker2", "fcff:0:0:12AA::/64"),
        )
    ]
    ipam = IpamAllocator(pools)
    assert str(ipam.allocate("sr-localsids-pool-master", "master")) == "fcff:0:0:aa::"


def test_exhaustion_and_distinctness():
    """IPAM hands out each address of a pool once. A pool with too few
    blocks for its nodes' start-up draws is refused by ``load_scenario``, at
    the first node in start order (sorted names) that would get no block."""
    pool = IpPool(name="p", cidr=parse_prefix("10.0.0.0/24"), block_size=26)
    ipam = IpamAllocator([pool])
    seen = set()
    for i in range(256):
        addr = ipam.allocate("p", f"node{i % 4}")
        assert addr not in seen
        assert addr in pool.cidr
        seen.add(addr)
    nodes = "".join(f'  - {{name: n{i}, infra: "fd1{i}::1", router: R1,\n'
                    f'     localsids: {{DT6: "fcdd::{i}"}}}}\n' for i in (2, 0, 1))
    text = ('families: [v6]\nbsid_pool: b\nrouters: [{name: R1, end_sid: "fcff:1::1"}]\n'
            f'nodes:\n{nodes}pools: [{{name: b, cidr: "cafe::/126", blockSize: 127}}]\n')
    with pytest.raises(ValidationError, match=re.escape(
            "<scenario>.bsid_pool: pool 'b' has no block left for node 'n2'")):
        load_scenario(text)
    assert len(load_scenario(text.replace("/126", "/125")).nodes) == 3


def test_bad_block_size_rejected():
    """``IpPool`` trusts its block size: ``load_scenario`` reads it within
    the pool's prefix length and its family's width."""
    for size in (16, 33):
        text = f'pools:\n  - {{name: p, cidr: "10.0.0.0/24", blockSize: {size}}}\n'
        with pytest.raises(ValidationError, match=re.escape(
                f"<scenario>.pools[0].blockSize: blockSize {size} is outside [24, 32]")):
            load_scenario(text)
    assert load_scenario(text.replace("33", "32")).pools[0].block_count == 256


# -- ConfigMap documents ---------------------------------------------------


DOC_TEXT = """
localsids:
  DT4: "fcdd::aa:34b8:247c:36da:db44"
  DT6: "fcdd::aa:34b8:247c:36da:db45"
node: master
policies:
  - egress_node: "fd11::1000"
    bsid: "cafe::1c3"
    segment_list:
    - "fcff:3::1"
    - "fcdd::11aa:c11:b42f:f17e:a683"
    traffic: IPv6
"""


def test_parse_render_roundtrip():
    doc = parse_configmap_doc(DOC_TEXT)
    assert doc.node == "master"
    assert doc.localsids["DT4"] == parse_v6("fcdd::aa:34b8:247c:36da:db44")
    assert doc.policies[0].family == "v6"
    assert parse_configmap_doc(render_configmap_doc(doc)) == doc


def test_a_second_render_of_a_node_dumps_no_head(monkeypatch):
    """The head is dumped once per node name and localSIDs: a render of a
    node whose name and localSIDs are unchanged calls no ``yaml.dump``, and
    one whose localSIDs changed calls it once."""
    dumps, dump = [], yaml.dump
    monkeypatch.setattr(yaml, "dump", lambda *args, **kw: dumps.append(args) or dump(*args, **kw))
    doc = parse_configmap_doc(DOC_TEXT.replace("node: master", "node: rendered-twice"))
    text = render_configmap_doc(doc)
    dumps.clear()
    assert render_configmap_doc(doc) == text
    assert render_configmap_doc(replace(doc, policies=doc.policies[1:])).startswith(
        text[:text.index("policies:")])
    assert dumps == []
    render_configmap_doc(replace(doc, localsids={**doc.localsids, "DT6": parse_v6("fcdd::7a11")}))
    assert len(dumps) == 1


def test_parse_accepts_short_node_spelling():
    doc = parse_configmap_doc(DOC_TEXT.replace("egress_node:", "node:"))
    assert doc.policies[0].egress_node == parse_v6("fd11::1000")


def test_parse_validation_errors_carry_paths():
    with pytest.raises(ValidationError, match="localsids"):
        parse_configmap_doc({"node": "m", "localsids": {"DTX": "::1"}})
    with pytest.raises(ValidationError, match="policies"):
        parse_configmap_doc(
            {"node": "m", "policies": [{"egress_node": "fd11::1", "bsid": "x",
                                        "traffic": "IPv6"}]}
        )
    with pytest.raises(ValidationError, match="traffic"):
        parse_configmap_doc(
            {"node": "m", "policies": [{"egress_node": "fd11::1",
                                        "bsid": "cafe::1", "traffic": "both"}]}
        )


def test_duplicate_policy_key_rejected():
    entry = {
        "egress_node": "fd11::1000", "bsid": "cafe::1",
        "segment_list": ["fcff:1::1"], "traffic": "IPv6",
    }
    with pytest.raises(ValidationError, match="duplicate"):
        parse_configmap_doc({"node": "m", "policies": [entry, dict(entry)]})


def test_store_roundtrip():
    store = KvStore()
    doc = parse_configmap_doc(DOC_TEXT)
    version = store.write(configmap_key("master"), {"master": render_configmap_doc(doc)}, {})
    data, stored = store.entries["srv6-config-master"]
    assert parse_configmap_doc(data["master"]) == doc and stored == version == 1


def diff_of(old_text, new_text):
    return diff_policies(parse_configmap_doc(old_text), parse_configmap_doc(new_text))


def test_diff_semantics():
    base = parse_configmap_doc(DOC_TEXT)
    assert diff_policies(base, base).empty
    assert diff_policies(base, base).summary() == "0 changes"

    changed = parse_configmap_doc(DOC_TEXT.replace("cafe::1c3", "cafe::ffff"))
    d = diff_policies(base, changed)
    assert d.summary() == "1 replaced"

    removed = ConfigMapDoc(node="master", localsids=base.localsids, policies=())
    d = diff_policies(base, removed)
    assert len(d.removes) == 1 and not d.adds and not d.replaces

    d = diff_policies(removed, base)
    assert len(d.adds) == 1 and d.summary() == "1 added"
