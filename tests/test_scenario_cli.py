import json
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from srv6sim import dataplane
from srv6sim.bgp import parse_policy_file
from srv6sim.cli import main
from srv6sim.errors import UnknownNodeError, ValidationError
from srv6sim.k8s import parse_configmap_doc
from srv6sim.net_types import (
    InnerPacket, OuterPacket, Srh, decode_srh, encode_srh, parse_addr, parse_v6,
)
from srv6sim.scenario import load_scenario
from srv6sim.sim import Simulation
from srv6sim.underlay import forward, waypoints

from conftest import SCENARIOS

BASIC = str(SCENARIOS / "basic.yaml")
FULL_CM = str(SCENARIOS / "full_cm.yaml")
FULL_BGP = str(SCENARIOS / "full_bgp.yaml")


# -- scenario loading ------------------------------------------------------


def test_load_scenarios():
    s = load_scenario(BASIC)
    assert s.mode == "bgp" and len(s.nodes) == 3
    s = load_scenario(FULL_CM)
    assert s.mode == "configmap" and len(s.routers) == 8
    assert len(s.configmaps) == 3
    s = load_scenario(FULL_BGP)
    assert s.auto_step2 is False and s.injector == "srv6-pi"


def test_load_scenario_checks_in_the_mode_it_is_given():
    """``mode`` and ``seed`` override the file's before anything is checked,
    so full_cm.yaml read in bgp mode is refused where a bgp node lacks a pool."""
    scenario = load_scenario(FULL_BGP, seed=5)
    assert (scenario.mode, scenario.seed) == ("bgp", 5)
    with pytest.raises(ValidationError, match=r"full_cm\.yaml\.nodes\[0\]\.localsid_pool: missing"):
        load_scenario(FULL_CM, mode="bgp")
    assert load_scenario(FULL_CM, mode="configmap", seed=2).seed == 2


@pytest.mark.parametrize("line, injector", [
    ("", "srv6-pi"), ("injector: null\n", "srv6-pi"), ("injector: te-peer\n", "te-peer")])
def test_injector_defaults_to_srv6_pi(line, injector):
    assert load_scenario(line + "name: x\n").injector == injector


def test_router_named_injector_reaches_every_node():
    """An injector may take a router's name; only a node's name is refused,
    as the bus skips a broadcast's sender. Injected policies reach all nodes."""
    text = Path(FULL_BGP).read_text().replace("injector: srv6-pi", "injector: R1")
    sim = Simulation(load_scenario(text)).start()
    for path in sorted((SCENARIOS / "policies").glob("*.yaml")):
        sim.inject(parse_policy_file(path.read_text(), path=str(path)))
    pods = sorted(sim.pods)
    for src in pods:
        for dst in pods:
            for family in ("v4", "v6") if src != dst else ():
                assert sim.ping(src, dst, count=2, family=family).delivered == 2


def test_scenario_validation_errors():
    with pytest.raises(ValidationError, match="router"):
        load_scenario("nodes:\n- {name: x, infra: '::1', router: ghost}\n")
    with pytest.raises(ValidationError, match="mode"):
        load_scenario("mode: carrier-pigeon\n")
    with pytest.raises(ValidationError, match="node"):
        load_scenario(
            "routers: [{name: R1, end_sid: 'fcff:1::1'}]\n"
            "pods: [{name: p, node: ghost, v6: '::2'}]\n"
        )


def test_same_node_ping_skips_encapsulation():
    sim = Simulation(load_scenario(BASIC)).start()
    sim.scenario.pods.append(type(sim.scenario.pods[0])(
        name="pod-master-2", node="master",
        addrs={"v6": sim.pods["pod-master"].addrs["v6"].__class__("fd90:0:10::3")},
    ))
    sim.pods["pod-master-2"] = sim.scenario.pods[-1]
    report = sim.ping("pod-master", "pod-master-2", count=3, family="v6")
    assert report.delivered == 3 and not report.traces


def test_replay_determinism_same_seed():
    reports = []
    for _ in range(2):
        sim = Simulation(load_scenario(BASIC)).start()
        sim.ping("pod-master", "pod-worker2", count=4, family="v6")
        reports.append(sim.report_json())
    assert reports[0] == reports[1]


def test_state_invariant_across_seeds():
    dumps = set()
    for seed in range(5):
        sim = Simulation(load_scenario(BASIC, seed=seed)).start()
        dumps.add(json.dumps(sim.state_dump(), sort_keys=True))
    assert len(dumps) == 1


# -- CLI -------------------------------------------------------------------


def test_cli_run_and_report(capsys):
    assert main(["run", "--scenario", BASIC]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["mode"] == "bgp"
    assert payload["control"]["step1_sent"] == 6  # 3 nodes x 2 prefixes
    assert main(["report", "--scenario", BASIC]) == 0
    assert capsys.readouterr().out == out


def test_cli_ping_exit_codes(capsys):
    assert main(["ping", "--scenario", BASIC, "pod-master", "pod-worker1"]) == 0
    assert "4 sent, 4 delivered" in capsys.readouterr().out
    # no policies in the TE scenario before injection -> failure exit
    assert main(["ping", "--scenario", FULL_BGP, "pod-master", "pod-worker1"]) == 1
    assert main(["ping", "--scenario", BASIC, "pod-master", "ghost"]) == 1
    assert capsys.readouterr().err.endswith("error: \"unknown pod 'pod-master' or 'ghost'\"\n")


def test_cli_trace(capsys):
    assert main(["trace", "--scenario", FULL_CM, "pod-worker2", "pod-worker1"]) == 0
    out = capsys.readouterr().out
    assert "action=end" in out and "action=deliver" in out


def test_cli_trace_without_a_steering_match_exits_1(capsys):
    """Before any inject, full_bgp.yaml's nodes steer nothing: the one probe
    is dropped at its source, so there is no trace to print."""
    assert main(["trace", "--scenario", FULL_BGP, "pod-master", "pod-worker2"]) == 1
    assert capsys.readouterr().err == "error: no trace: ['no steering match']\n"


def test_cli_trace_to_another_node_exits_1(tmp_path, capsys):
    """With master's IPv6 tunnel to worker1 ending at worker2's End.DT6 SID
    (master's document comes first in full_cm.yaml), the probe to pod-worker1
    is decapsulated at worker2: a delivery at the wrong node, which ping
    reports as misdelivered."""
    path = tmp_path / "misrouted-tunnel.yaml"
    path.write_text((SCENARIOS / "full_cm.yaml").read_text().replace(
        '- "fcdd::11aa:c11:b42f:f17e:a683"', '- "fcdd::12aa:d460:b250:45:b05"', 1))
    assert main(["ping", "--scenario", str(path), "pod-master", "pod-worker1", "--count", "1"]) == 1
    assert "drop: misdelivered" in capsys.readouterr().out
    assert main(["trace", "--scenario", str(path), "pod-master", "pod-worker1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("hop worker2 ")


def test_cli_run_over_its_step_budget_exits_1(tmp_path, capsys):
    path = tmp_path / "tight-budget.yaml"
    path.write_text(_basic("seed: 7", "seed: 7\nconvergence_steps: 3"))
    assert main(["run", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == "error: control plane still busy after 4 steps\n"


def test_cli_ping_family_a_pod_lacks_exits_1(tmp_path, capsys):
    path = tmp_path / "v6-only-worker2.yaml"
    path.write_text(_basic('node: worker2, v4: "172.16.135.1", ', "node: worker2, "))
    assert main(["ping", "--scenario", str(path), "pod-master", "pod-worker2", "--family", "v4"]) == 1
    assert capsys.readouterr().err == "error: pods lack v4 addresses\n"
    assert main(["ping", "--scenario", str(path), "pod-master", "pod-worker2"]) == 0


@pytest.mark.parametrize("count", ["0", "-3"])
def test_ping_count_must_be_positive(count, capsys):
    assert main(["ping", "--scenario", BASIC, "pod-master", "pod-worker2", f"--count={count}"]) == 2
    assert f"--count {count} is not positive" in capsys.readouterr().err


def test_trace_between_pods_on_one_node(tmp_path, capsys):
    """The local FIB delivers between two pods of one node: the trace is
    one deliver hop there, and ping still reports no trace."""
    path = tmp_path / "two-on-master.yaml"
    pod = '  - {name: pod-master, node: master, v4: "172.16.231.1", v6: "fd90:0:10::2"}\n'
    path.write_text(_basic(pod, pod + pod.replace("pod-master", "pod-m2")
                           .replace(".231.1", ".231.2").replace("10::2", "10::3")))
    assert main(["ping", "--scenario", str(path), "pod-master", "pod-m2"]) == 0
    assert "4 sent, 4 delivered, 0 dropped" in capsys.readouterr().out
    assert main(["trace", "--scenario", str(path), "pod-master", "pod-m2"]) == 0
    assert capsys.readouterr().out == "hop master dst=fd90:0:10::3 action=deliver\n"
    sim = Simulation(load_scenario(path)).start()
    for family, dst in (("v4", "172.16.231.2"), ("v6", "fd90:0:10::3")):
        trace = sim.trace("pod-master", "pod-m2", family=family)
        assert trace.delivered and trace.deliver_node == "master"
        assert [(h.at, str(h.dst), h.action) for h in trace.hops] == [("master", dst, "deliver")]
        assert trace.disposition.inner == InnerPacket(
            src=sim.pods["pod-master"].addrs[family], dst=parse_addr(dst), payload=b"ping-0")
    assert sim.ping("pod-master", "pod-m2", count=2).traces == []
    assert sim.traces_forwarded == 0


def test_cli_show(capsys):
    assert main(["show", "--scenario", BASIC, "worker1", "encap-source"]) == 0
    assert "fd11::1000" in capsys.readouterr().out
    assert main(["show", "--scenario", BASIC, "R1", "localsids"]) == 0  # a router's End SID
    assert capsys.readouterr().out == "R1 SR localSIDs:\n  fcff:1::1  behavior End  counter 0\n"
    assert main(["show", "--scenario", BASIC, "ghost", "policies"]) == 1


# worker1 of basic.yaml after bring-up: its pool's DT SIDs, and one policy and
# steering rule per family toward each other node.
SHOWN = {
    "localsids": ["worker1 SR localSIDs:",
                  "  fcff:0:0:11aa::  behavior End.DT4 tbl 0  counter 0",
                  "  fcff:0:0:11aa::1  behavior End.DT6 tbl 0  counter 0"],
    "policies": ["worker1 SR policies:",
                 "  bsid cafe::  v4  segments [fcff:1::1, fcff:0:0:aa::]",
                 "  bsid cafe::1  v6  segments [fcff:1::1, fcff:0:0:aa::1]",
                 "  bsid cafe::80  v4  segments [fcff:1::1, fcff:0:0:12aa::]",
                 "  bsid cafe::81  v6  segments [fcff:1::1, fcff:0:0:12aa::1]"],
    "steering": ["worker1 SR steering policies:",
                 "  172.16.135.0/26 -> bsid cafe::80",
                 "  172.16.231.0/26 -> bsid cafe::",
                 "  fd90:0:10::/64 -> bsid cafe::1",
                 "  fd90:0:12::/64 -> bsid cafe::81"],
}


@pytest.mark.parametrize("what", sorted(SHOWN))
def test_cli_show_tables(what, capsys):
    assert main(["show", "--scenario", BASIC, "worker1", what]) == 0
    assert capsys.readouterr().out.splitlines() == SHOWN[what]


def test_cli_inject_and_mode_mismatch(capsys):
    policy = str(SCENARIOS / "policies" / "worker2-v6.yaml")
    assert main(["inject", "--scenario", FULL_BGP, "--policy", policy]) == 0
    assert "cafe::5" in capsys.readouterr().out
    # inject is refused in configmap mode
    assert main(["inject", "--scenario", FULL_CM, "--policy", policy]) == 1


def test_cli_apply_configmap(capsys):
    modified = str(SCENARIOS / "configmap_worker2_modified.yaml")
    assert main(["apply-configmap", "--scenario", FULL_CM, "--file", modified]) == 0
    assert "worker2: 1 replaced" in capsys.readouterr().out
    # apply-configmap is refused in bgp mode
    assert main(["apply-configmap", "--scenario", FULL_BGP, "--file", modified]) == 1


def test_cli_apply_configmap_counts_localsid_changes(tmp_path, capsys):
    """worker2's document of full_cm.yaml with a new DT6 SID changes no
    policy, but removes one localSID and installs another: its summary says
    so, where it used to read ``worker2: 0 changes``."""
    path = tmp_path / "worker2-dt6.yaml"
    path.write_text((SCENARIOS / "configmap_worker2_modified.yaml").read_text()
                    .replace('- "fcff:7::1"\n          - "fcff:2::1"', '- "fcff:4::1"')
                    .replace('DT6: "fcdd::12aa:d460:b250:45:b05"', 'DT6: "fcdd::12aa:d460:b250:45:b06"'))
    assert main(["apply-configmap", "--scenario", FULL_CM, "--file", str(path)]) == 0
    assert capsys.readouterr().out == "worker2: 2 localSID changes\n"


def test_apply_configmap_for_an_unknown_node_is_refused(tmp_path, capsys):
    sim = Simulation(load_scenario(FULL_CM)).start()
    before = sim.state_dump()
    with pytest.raises(UnknownNodeError, match="ghost"):
        sim.apply_configmaps([parse_configmap_doc({"node": "ghost"})])
    assert sim.state_dump() == before
    path = tmp_path / "ghost.yaml"
    path.write_text("node: ghost\n")
    assert main(["apply-configmap", "--scenario", FULL_CM, "--file", str(path)]) == 1
    assert capsys.readouterr().err == "error: 'ghost'\n"


def test_cli_apply_scoped_segment_exits_2(tmp_path, capsys):
    """A segment with an RFC 4007 zone, which no SRH carries, is refused at
    its field (exit 2); nothing is applied."""
    path = tmp_path / "scoped.yaml"
    path.write_text((SCENARIOS / "configmap_worker2_modified.yaml").read_text()
                    .replace('"fcff:7::1"', '"fcff:7::1%eth0"'))
    assert main(["apply-configmap", "--scenario", FULL_CM, "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}.manifest[0].policies[0].segment_list[0]: "
                                       "scoped address 'fcff:7::1%eth0': "
                                       "no header field carries a zone\n")


def test_inject_with_a_non_dt_final_segment_is_refused_before_sending(capsys):
    """An API-built update whose final segment is not End.DT4/DT6 is refused
    with ``parse_policy_file``'s message before anything is sent: the bus,
    the events, the counters and ``state_dump()`` stay as they were, and
    the next good inject installs."""
    sim = Simulation(load_scenario(FULL_BGP)).start()
    good = parse_policy_file((SCENARIOS / "policies" / "worker2-v6.yaml").read_text())
    bad = replace(good, segments=(*good.segments[:-1], replace(good.segments[-1], behavior_code=1)))
    before = (sim.state_dump(), list(sim.events), dict(sim.metrics), dict(sim.bus.sessions))
    with pytest.raises(ValidationError, match="^final segment code 1 is not a DT behavior$"):
        sim.inject(bad)
    assert sim.bus.quiesced
    assert (sim.state_dump(), sim.events, dict(sim.metrics), sim.bus.sessions) == before
    sim.inject(good)
    assert good.bsid in sim.dataplanes["master"].policies
    assert sim.ping("pod-master", "pod-worker2").delivered == 4


def test_cli_bsid_pool_selecting_one_node_exits_2(tmp_path, capsys):
    """Every node allocates its BSIDs from ``bsid_pool``, so a pool whose
    ``nodeSelector`` leaves a node out is refused at ``bsid_pool`` (exit 2)
    once the mode is final, not at bring-up."""
    path = tmp_path / "bad.yaml"
    path.write_text(_basic("  - name: sr-policies-pool\n",
                           "  - name: sr-policies-pool\n    nodeSelector: master\n"))
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}.bsid_pool: pool 'sr-policies-pool' "
                                       "selects node 'master', not 'worker1'\n")


def test_cli_apply_configmap_list_document(tmp_path, capsys):
    """A YAML document that is a list of policy documents applies each of them."""
    manifest = yaml.safe_load((SCENARIOS / "configmap_worker2_modified.yaml").read_text())
    worker2 = yaml.safe_load(manifest["data"]["srv6"])
    master = next(d for d in yaml.safe_load(Path(FULL_CM).read_text())["configmaps"]
                  if d["node"] == "master")
    master["policies"] = master["policies"][1:]
    path = tmp_path / "docs.yaml"
    path.write_text(yaml.safe_dump([worker2, master]))
    assert main(["apply-configmap", "--scenario", FULL_CM, "--file", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["master: 1 removed", "worker2: 1 replaced"]


@pytest.mark.parametrize("text", ["", "---\n---\n"], ids=["empty", "empty-documents"])
def test_cli_apply_configmap_without_documents_exits_1(tmp_path, capsys, text):
    path = tmp_path / "none.yaml"
    path.write_text(text)
    assert main(["apply-configmap", "--scenario", FULL_CM, "--file", str(path)]) == 1
    assert "no documents in file" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    assert main(["run", "--scenario", "/nonexistent.yaml"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_pool_too_small_for_the_cluster_exits_2(tmp_path, capsys):
    """Each node claims whole blocks of a pool it allocates from, in start
    order (sorted names). A BSID pool with blocks for two of the three nodes
    is refused at ``bsid_pool``, naming the node that would get none (exit 2)."""
    path = tmp_path / "small-pool.yaml"
    path.write_text(Path(BASIC).read_text().replace('cidr: "cafe::/118"', 'cidr: "cafe::/121"'))
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}.bsid_pool: pool 'sr-policies-pool' "
                                       "has no block left for node 'worker2'\n")


def test_pool_shared_by_localsids_and_bsids_is_one_claim():
    """master draws its two localSIDs and its two BSIDs from one pool, so it
    claims blocks for the four together: one block of four. Two such blocks
    serve master and worker1, and worker2 gets none; four serve everyone."""
    text = Path(BASIC).read_text().replace(
        "localsid_pool: sr-localsids-pool-master", "localsid_pool: sr-policies-pool").replace(
        'cidr: "cafe::/118"\n    blockSize: 122', 'cidr: "cafe::/125"\n    blockSize: 126')
    with pytest.raises(ValidationError, match="pool 'sr-policies-pool' has no block left "
                                              "for node 'worker2'"):
        load_scenario(text)
    sim = Simulation(load_scenario(text.replace("cafe::/125", "cafe::/124"))).start()
    assert sim.ping("pod-master", "pod-worker2", count=2).delivered == 2


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
@pytest.mark.parametrize("option", ["--scenario", "--file", "--policy"])
def test_cli_unreadable_file_exits_2(tmp_path, capsys, option, kind):
    """A file that cannot be read, or not as text, is bad input like a
    malformed one: one ``error:`` line and exit 2, never a traceback."""
    path = tmp_path / "x.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"name: \xff\n")
    with pytest.raises((OSError, UnicodeDecodeError)) as exc:
        path.read_text()
    args = {"--scenario": ["run", "--scenario", str(path)],
            "--file": ["apply-configmap", "--scenario", FULL_CM, "--file", str(path)],
            "--policy": ["inject", "--scenario", FULL_BGP, "--policy", str(path)]}[option]
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def test_cli_bench(capsys):
    assert main(["bench", "--scenario", FULL_CM, "pod-worker2", "pod-worker1",
                 "--packets", "300", "--family", "v4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "batch,packets,seconds,pps"
    assert [line.split(",")[:2] for line in lines[1:]] == [["1", "300"], ["256", "300"]]
    # no policies before injection: packets are lost, and the bench says so
    assert main(["bench", "--scenario", FULL_BGP, "pod-master", "pod-worker1",
                 "--packets", "8"]) == 1
    assert main(["bench", "--scenario", BASIC, "pod-master", "pod-worker1",
                 "--packets", "0"]) == 2


def test_cli_seed_and_mode_overrides(capsys):
    assert main(["run", "--scenario", BASIC, "--seed", "99"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 99


# -- malformed scenarios exit 2 with a located ValidationError ------------

LONELY = '  - {name: lonely, end_sid: "fcff:99::1"}\n'


def _with_routers(extra: str, links: str = "links: []\n") -> str:
    text = (SCENARIOS / "basic.yaml").read_text()
    text = text.replace('  - {name: R1, end_sid: "fcff:1::1"}\n',
                        '  - {name: R1, end_sid: "fcff:1::1"}\n' + extra)
    return text.replace("links: []\n", links)


def _basic(old: str, new: str, count: int = 1) -> str:
    text = (SCENARIOS / "basic.yaml").read_text()
    assert text.count(old) >= count, old
    return text.replace(old, new)


def _pinned_alike() -> str:
    """basic.yaml with worker1 and worker2 pinning the same DT4 and DT6 SIDs."""
    text = (SCENARIOS / "basic.yaml").read_text()
    for node in ("worker1", "worker2"):
        text = text.replace(f"localsid_pool: sr-localsids-pool-{node}",
                            'localsids: {DT4: "fcff:0:0:99::4", DT6: "fcff:0:0:99::6"}')
    return text


# ConfigMap documents of the wrong shape: (flow YAML, location, message).
BAD_DOCS = [
    ("{node: master, localsids: [1]}", ".localsids", "'localsids' must be a mapping"),
    ("{node: master, policies: 5}", ".policies", "'policies' must be a list"),
    ("{node: master, policies: [{egress_node: 'fd11::1000', bsid: 'cafe::9', "
     "traffic: IPv6, segment_list: 5}]}",
     ".policies[0].segment_list", "'segment_list' must be a list"),
]
POLICY = "{egress_node: 'fd11::1000', bsid: 'cafe::9', traffic: IPv6, segment_list: ['fcff:3::1']}"
BAD_DOCS += [
    (f"{{node: master, policies: [{POLICY}, {POLICY}]}}", ".policies[1]", "duplicate policy for"),
    ("{node: master, policies: [{egress_node: 'fd11::1000', bsid: 'cafe::9', "
     "traffic: IPv6, segment_list: []}]}", ".policies[0].segment_list", "empty segment_list"),
    ("{node: 5}", ".node", "node 5 is not a string"),
    (f"{{node: master, policies: [{POLICY}, {POLICY.replace('IPv6', 'IPv4')}]}}",
     ".policies[1].bsid", "duplicate bsid 'cafe::9'"),
    ("{node: ''}", "", "missing node name"),
    ("{node: master, policies: [{egress_node: 'fd11::1000', bsid: 'cafe::9', traffic: IPv6, "
     f"segment_list: [{', '.join([repr('fcff:3::1')] * 128)}]}}]}}",
     ".policies[0].segment_list", "128 segments, more than the 127 an SRH holds"),
]
BAD_DOC_IDS = ["localsids-not-a-mapping", "policies-not-a-list", "segment-list-not-a-list",
               "duplicate-policy", "empty-segment-list", "node-not-a-string", "duplicate-bsid",
               "empty-node-name", "too-many-segments"]
V4_POOL = '  - {name: v4-pool, cidr: "10.9.0.0/24", blockSize: 28}\n'


@pytest.mark.parametrize(
    "text, located, message",
    [
        (_with_routers(LONELY, "links:\n  - {a: R1, b: lonely, cost: 0}\n"),
         "links[0]", "cost 0"),
        (_with_routers(LONELY, "links:\n  - {a: R1, b: lonely, cost: -3}\n"),
         "links[0]", "cost -3"),
        (_with_routers('  - {end_sid: "fcff:99::1"}\n'), "routers[1]", "'name'"),
        (_with_routers('  - {name: R1, end_sid: "fcff:99::1"}\n'),
         "routers[1]", "duplicate router name 'R1'"),
        (_with_routers('  - {name: R2, end_sid: "fcff:1::2"}\n'),
         "routers[1].end_sid", "duplicate SID block 'fcff:1::/32'"),
        (_basic('end_sid: "fcff:1::1"', 'end_sid: "zz"'),
         "routers[0].end_sid", "malformed address 'zz'"),
        (_basic('end_sid: "fcff:1::1"', 'end_sid: "fcff:1::1%eth0"'),
         "routers[0].end_sid", "scoped address 'fcff:1::1%eth0': no header field carries a zone"),
        (_basic('pod_prefix_v6: "fd90:0:11::/64"', 'pod_prefix_v6: "fd90:0:11::%eth0/64"'),
         "nodes[1].pod_prefix_v6", "scoped prefix 'fd90:0:11::%eth0/64'"),
        (_basic('infra: "fd11::1000"', 'infra: "fd11::zz"'),
         "nodes[1].infra", "malformed address"),
        (_basic('pod_prefix_v6: "fd90:0:11::/64"', 'pod_prefix_v6: "fd90:0:11::/999"'),
         "nodes[1].pod_prefix_v6", "malformed prefix"),
        (_basic("localsid_pool: sr-localsids-pool-worker1",
                'localsids: {DT6: "fcff::11::1"}'),
         "nodes[1].localsids.DT6", "malformed address"),
        (_basic('v6: "fd90:0:12::2"', 'v6: "fd90::12::2"'),
         "pods[2].v6", "malformed address"),
        (_basic('  - name: sr-policies-pool\n    cidr', '  - cidr'),
         "pools[0]", "'name'"),
        (_basic('    cidr: "fcff:0:0:11AA::/64"\n', ""), "pools[2]", "'cidr'"),
        (_basic("name: sr-localsids-pool-worker1", "name: sr-localsids-pool-master"),
         "pools[2]", "duplicate pool name 'sr-localsids-pool-master'"),
        (_basic('cidr: "fcff:0:0:12AA::/64"', 'cidr: "fcff:0:0:11AA::/64"'), "pools[3].cidr",
         "pool 'sr-localsids-pool-worker2' overlaps pool 'sr-localsids-pool-worker1'"),
        (_basic('cidr: "fcff:0:0:00AA::/64"', 'cidr: "fcff::/32"'), "pools[2].cidr",
         "pool 'sr-localsids-pool-worker1' overlaps pool 'sr-localsids-pool-master'"),
        (_basic("seed: 7", "seed: abc"), ".seed", "'abc' is not an integer"),
        (_basic("seed: 7", "seed: 7\nconvergence_steps: many"),
         ".convergence_steps", "'many' is not an integer"),
        (_basic("seed: 7", "seed: 7\nconvergence_steps: -5"),
         ".convergence_steps", "convergence_steps -5 is below 0"),
        (_basic("name: pod-worker2", "name: pod-worker1"),
         "pods[2]", "duplicate pod name 'pod-worker1'"),
        (_basic("worker2", "worker1", count=5), "nodes[2]", "duplicate node name 'worker1'"),
        (_basic("worker2", "R1", count=5), "nodes[2]", "node name 'R1' is also a router"),
        (_basic('  - {name: R1, end_sid: "fcff:1::1"}', "  - 5"), "routers[0]", "5 is not a mapping"),
        (_basic("  - name: master\n", "  - 3\n  - name: master\n"), "nodes[0]", "3 is not a mapping"),
        (_basic('routers:\n  - {name: R1, end_sid: "fcff:1::1"}', "routers: 5"),
         ".routers", "'routers' must be a list"),
        (_basic("families: [v4, v6]", "families: 5"), ".families", "bad families 5"),
        (_basic("seed: 7", "seed: 7\nconfigmaps: 5"), ".configmaps", "'configmaps' must be a list"),
        (_basic("seed: 7", "seed: 7\nconfigmaps: [5]"), "configmaps[0]", "must be a mapping"),
        (_basic("seed: 7", "seed: 7\nconfigmap_fanout: bogus"),
         ".configmap_fanout", "unknown configmap_fanout 'bogus'"),
        (_basic("localsid_pool: sr-localsids-pool-worker1", "localsids: [1]"),
         "nodes[1].localsids", "'localsids' must be a mapping"),
        *[(_basic("seed: 7", f"seed: 7\nconfigmaps: [{doc}]"), f"configmaps[0]{located}", message)
          for doc, located, message in BAD_DOCS],
        (_basic("localsid_pool: sr-localsids-pool-worker1",
                'localsids: {DT5: "fcff:0:0:11aa::9"}'),
         "nodes[1].localsids", "unknown localsid kind 'DT5'"),
        (_basic("bsid_pool: sr-policies-pool", "bsid_pool: nope"),
         ".bsid_pool", "unknown pool 'nope'"),
        (_basic("localsid_pool: sr-localsids-pool-worker1", "localsid_pool: nope"),
         "nodes[1].localsid_pool", "unknown pool 'nope'"),
        (_basic("seed: 7", 'seed: 7\nauto_step2: "no"'),
         ".auto_step2", "auto_step2 'no' is not a boolean"),
        (_basic("seed: 7", "seed: 7\ninjector_registered: 1"),
         ".injector_registered", "injector_registered 1 is not a boolean"),
        (_basic('infra: "fd12::1000"', 'infra: "fd11::1000"'),
         "nodes[2].infra", "duplicate infra 'fd11::1000'"),
        (_basic('pod_prefix_v4: "172.16.231.0/26"', 'pod_prefix_v4: "fd90:0:99::/64"'),
         "nodes[0].pod_prefix_v4", "fd90:0:99::/64 is not an IPv4 prefix"),
        (_basic('v4: "172.16.166.128"', 'v4: "fd90:0:11::9"'),
         "pods[1].v4", "fd90:0:11::9 is not an IPv4 address"),
        (_basic('v6: "fd90:0:11::2"', 'v6: "fd90:0:99::2"'),
         "pods[1].v6", "fd90:0:99::2 is outside node worker1's v6 pod prefix"),
        (_basic("pools:\n", "pools:\n" + V4_POOL).replace("bsid_pool: sr-policies-pool",
                                                         "bsid_pool: v4-pool"),
         ".bsid_pool", "pool 'v4-pool' is not an IPv6 pool"),
        (_basic("pools:\n", "pools:\n" + V4_POOL).replace(
            "localsid_pool: sr-localsids-pool-worker1", "localsid_pool: v4-pool"),
         "nodes[1].localsid_pool", "pool 'v4-pool' is not an IPv6 pool"),
        (_basic("nodeSelector: worker1", "nodeSelector: 7"),
         "pools[2].nodeSelector", "nodeSelector 7 is not a string"),
        (_basic("nodeSelector: worker1", "nodeSelector: ghost"),
         "pools[2].nodeSelector", "unknown node 'ghost'"),
        (_basic("seed: 7", "seed: true"), ".seed", "seed True is not an integer"),
        (_basic("seed: 7", "seed: 7\nconvergence_steps: false"),
         ".convergence_steps", "convergence_steps False is not an integer"),
        (_with_routers(LONELY, "links:\n  - {a: R1, b: lonely, cost: true}\n"),
         "links[0].cost", "cost True is not an integer"),
        (_basic("blockSize: 122", "blockSize: 7", count=4),
         "pools[0].blockSize", r"blockSize 7 is outside \[118, 128\]"),
        (_basic("seed: 7", "seed: 7\nconfigmaps: [{node: master}, {node: master}]"),
         "configmaps[1]", "duplicate configmap for node 'master'"),
        (_basic("nodeSelector: worker1", "nodeSelector: master"),
         "nodes[1].localsid_pool", "pool 'sr-localsids-pool-worker1' selects node 'master'"),
        (_basic("seed: 7", "seed: 7\ninjector: worker1"),
         ".injector", "injector 'worker1' is also a node name"),
        (_pinned_alike(), "nodes[2].localsids.DT4", "duplicate localsid 'fcff:0:0:99::4'"),
        ((SCENARIOS / "full_cm.yaml").read_text().replace(
            '"fcdd::12aa:d460:b250:45:b05"', '"fcdd::11aa:c11:b42f:f17e:a683"'),
         "configmaps[2].localsids.DT6", "duplicate localsid 'fcdd::11aa:c11:b42f:f17e:a683'"),
        (_basic("seed: 7", "seed: 7\nauto_step_2: false\nconfigmap_fanot: single-map"),
         ".auto_step_2", "unknown key 'auto_step_2'"),
        (_basic("seed: 7", "seed: 0b_"), "bad.yaml", "not valid YAML: invalid literal for int"),
        (_basic("seed: 7", "seed: 2001-02-30"), "bad.yaml",
         "not valid YAML: day is out of range for month"),
    ],
    ids=[
        "zero-cost-link", "negative-cost-link", "router-without-name", "duplicate-router",
        "shared-sid-block",
        "malformed-end-sid", "scoped-end-sid", "scoped-pod-prefix", "malformed-infra", "malformed-pod-prefix",
        "malformed-pinned-localsid", "malformed-pod-address", "pool-without-name",
        "pool-without-cidr", "duplicate-pool", "pool-on-another-pool", "pool-inside-another-pool",
        "non-integer-seed", "non-integer-convergence-steps",
        "negative-convergence-steps",
        "duplicate-pod", "duplicate-node", "node-named-like-router", "router-not-a-mapping",
        "node-not-a-mapping", "routers-not-a-list", "families-not-a-list",
        "configmaps-not-a-list", "configmap-not-a-mapping", "unknown-configmap-fanout",
        "localsids-not-a-mapping", *(f"configmap-{name}" for name in BAD_DOC_IDS),
        "unknown-pinned-localsid-kind", "dangling-bsid-pool", "dangling-localsid-pool",
        "non-boolean-auto-step2", "non-boolean-injector-registered", "duplicate-infra",
        "v6-pod-prefix-in-v4-slot", "v6-pod-address-in-v4-slot", "pod-outside-node-prefix",
        "v4-bsid-pool", "v4-localsid-pool", "non-string-node-selector", "dangling-node-selector",
        "boolean-seed", "boolean-convergence-steps", "boolean-link-cost", "block-size-out-of-range",
        "duplicate-configmap", "pool-selects-another-node", "injector-named-like-node",
        "localsid-pinned-by-two-nodes", "localsid-named-by-two-documents", "misspelt-key",
        "yaml-int-constructor-error", "yaml-timestamp-constructor-error",
    ],
)
def test_cli_invalid_scenario_exits_2(tmp_path, capsys, text, located, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ValidationError, match=message) as exc:
        load_scenario(path)
    assert exc.value.path.endswith(located)
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert located in err and "Traceback" not in err


def test_zero_convergence_budget_is_valid(tmp_path):
    """A single-node cluster sends no message, so it converges in 0 steps."""
    path = tmp_path / "solo.yaml"
    path.write_text(
        "families: [v6]\nconvergence_steps: 0\nbsid_pool: bsids\n"
        'routers: [{name: R1, end_sid: "fcff:1::1"}]\n'
        'nodes: [{name: solo, infra: "fd10::1000", router: R1, pod_prefix_v6: "fd90::/64",\n'
        "         localsid_pool: sids}]\n"
        'pools: [{name: sids, cidr: "fcff:0:0:10aa::/64"}, {name: bsids, cidr: "cafe::/64"}]\n'
    )
    assert load_scenario(path).convergence_steps == 0
    assert main(["run", "--scenario", str(path)]) == 0


def test_isolated_router_drops_only_its_own_traffic(tmp_path, capsys):
    path = tmp_path / "lonely.yaml"
    path.write_text(_with_routers(LONELY))
    sim = Simulation(load_scenario(path)).start()
    for family in ("v4", "v6"):
        report = sim.ping("pod-master", "pod-worker1", count=2, family=family)
        assert report.delivered == 2, report.drop_reasons
    stray = OuterPacket(
        src=parse_v6("fd10::1000"), hop_limit=64,
        srh=Srh(next_header=41, segments_left=0, segment_list=(parse_v6("fcff:99::1"),)),
    )
    walk = forward(sim.topology, sim.current_routes(), "master", stray, sim.dataplanes)
    assert walk.end.reason == "no route"
    assert main(["ping", "--scenario", str(path), "pod-master", "pod-worker1"]) == 0


# Files that apply-configmap rejects as a whole: (file text, location, message).
BAD_FILES = [
    ("node: [master\n", "bad-doc.yaml", "not valid YAML"),
    ("kind: ConfigMap\ndata: [1]\n", "bad-doc.yaml.manifest[0].data", "'data' must be a mapping"),
    ("- {node: master}\n- 5\n", "bad-doc.yaml.doc[0][1]", "document must be a mapping"),
    ("node: 2001-02-30\n", "bad-doc.yaml", "not valid YAML: day is out of range for month"),
]


@pytest.mark.parametrize(
    "text, located, message",
    [(doc + "\n", f"doc[0]{located}", message) for doc, located, message in BAD_DOCS] + BAD_FILES,
    ids=BAD_DOC_IDS + ["invalid-yaml", "manifest-data-not-a-mapping", "list-element-not-a-mapping",
                       "yaml-constructor-error"],
)
def test_cli_apply_malformed_configmap_exits_2(tmp_path, capsys, text, located, message):
    path = tmp_path / "bad-doc.yaml"
    path.write_text(text)
    assert main(["apply-configmap", "--scenario", FULL_CM, "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert located in err and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text, args, located",
    [
        (_basic("bsid_pool: sr-policies-pool\n", ""), [], ".bsid_pool"),
        (_basic("    localsid_pool: sr-localsids-pool-worker1\n", ""), [], "nodes[1].localsid_pool"),
        ((SCENARIOS / "full_cm.yaml").read_text(), ["--mode", "bgp"], "nodes[0].localsid_pool"),
        ((SCENARIOS / "basic.yaml").read_text(), ["--mode", "configmap"], ".configmaps"),
    ],
    ids=["bgp-without-bsid-pool", "bgp-node-without-localsids", "full-cm-in-bgp-mode",
         "basic-in-configmap-mode"],
)
def test_cli_pool_needed_by_mode_exits_2(tmp_path, capsys, text, args, located):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["ping", "--scenario", str(path), *args, "pod-master", "pod-worker1"]) == 2
    err = capsys.readouterr().err
    assert f"{located}: missing" in err and "Traceback" not in err


POLICY_FILE = (SCENARIOS / "policies" / "worker2-v6.yaml").read_text()


def _policy(old: str, new: str) -> str:
    assert old in POLICY_FILE, old
    return POLICY_FILE.replace(old, new)


def _bouncing_policy(segments: int) -> str:
    """worker2-v6.yaml (master to worker2, which R8 attaches) with ``segments``
    segments: End SIDs alternating between adjacent R7 and R8, then
    worker2's End.DT6 SID."""
    waypoints = "".join(f" - sid: fcff:{7 + i % 2}::1\n   behavior: 18\n"
                        for i in range(segments - 1))
    return _policy("".join(f" - sid: fcff:{r}::1\n   behavior: 18\n" for r in (5, 7, 8)),
                   waypoints)


@pytest.mark.parametrize(
    "text, located, message",
    [
        (_policy("distinguisher: 4", "distinguisher: abc"),
         ".nlri.distinguisher", "'abc' is not an integer"),
        (_policy("iswithdraw: false", 'iswithdraw: "no"'), ".iswithdraw", "'no' is not a boolean"),
        (_policy("bsid: cafe::5", "bsid: zz"), ".bsid", "malformed address 'zz'"),
        (_policy("bsid: cafe::5", "bsid: cafe::5%eth0"), ".bsid", "scoped address 'cafe::5%eth0'"),
        (_policy("family:\n afi: 2\n safi: 73\n", "family: 5\n"),
         ".family", "'family' must be a mapping"),
        (_policy("distinguisher: 4", "distinguisher: -1"),
         ".nlri.distinguisher", "distinguisher -1 is outside"),
        (_policy(" segments:\n", " segments: [5]\n unused:\n"),
         ".segmentlist.segments[0]", "entry 5 is not a mapping"),
        (_policy("b05\n   behavior: 18\n", "b05\n   behavior: 7\n"),
         ".segmentlist.segments[3].behavior", "final segment code 7 is not a DT behavior"),
        (_bouncing_policy(128), ".segmentlist.segments",
         "128 segments, more than the 127 an SRH holds"),
        (_policy("distinguisher: 4", "distinguisher: 0b_"), "", "not valid YAML: invalid literal"),
    ],
    ids=["non-integer-distinguisher", "non-boolean-iswithdraw", "malformed-bsid", "scoped-bsid",
         "family-not-a-mapping", "negative-distinguisher", "segment-not-a-mapping",
         "non-dt-final-segment", "too-many-segments", "yaml-constructor-error"],
)
def test_cli_inject_malformed_policy_exits_2(tmp_path, capsys, text, located, message):
    path = tmp_path / "bad-policy.yaml"
    path.write_text(text)
    assert main(["inject", "--scenario", FULL_BGP, "--policy", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}{located}" in err and message in err and "Traceback" not in err


def test_127_segments_fill_an_srh_and_each_walk_ends_within_its_bound(tmp_path, monkeypatch):
    """A policy of 127 segments, the most an SRH holds, is injected cleanly.
    Its End SIDs bounce between R7 and R8, and every visit costs a router hop:
    under the outer hop limit of 64 each ping drops with ``ttl`` at the 64th
    router, within ``forward``'s bound of 2 * 64 + 1 vertices; under the
    field's maximum, 255, the pings are delivered."""
    path = tmp_path / "long-policy.yaml"
    path.write_text(_bouncing_policy(127))
    assert main(["inject", "--scenario", FULL_BGP, "--policy", str(path)]) == 0
    sim = Simulation(load_scenario(FULL_BGP)).start()
    update = parse_policy_file(path.read_text(), path=str(path))
    sim.inject(update)
    srh = sim.dataplanes["master"].policies[update.bsid].srh
    assert srh.hdr_ext_len == 254 and decode_srh(encode_srh(srh)) == srh
    report = sim.ping("pod-master", "pod-worker2", count=3)
    assert report.drop_reasons == ["ttl"] * 3
    hops = report.traces[0].hops  # the vertex that dropped the packet ends it twice
    assert len(hops) - 1 == 1 + dataplane.OUTER_HOP_LIMIT <= 2 * dataplane.OUTER_HOP_LIMIT + 1
    monkeypatch.setattr(dataplane, "OUTER_HOP_LIMIT", 255)
    report = sim.ping("pod-master", "pod-worker2", count=3)
    assert report.delivered == 3, report.drop_reasons
    assert waypoints(report.traces[0]) == ["R7", "R8"] * 63
