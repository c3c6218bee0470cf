import pytest

from srv6sim.dataplane import (
    Behavior,
    LocalSidEntry,
    NodeDataplane,
    SrPolicyEntry,
    SteeringRule,
)
from srv6sim.errors import DanglingPolicyError, FamilyMismatchError, SimError, ValidationError
from srv6sim.k8s import parse_configmap_doc
from srv6sim.net_types import InnerPacket, parse_addr, parse_prefix, parse_v6

S1, S2, S3 = (parse_v6(f"fcff:{i}::1") for i in (1, 2, 3))


def make_headend():
    dp = NodeDataplane("head")
    dp.set_encap_source(parse_v6("fd10::1000"))
    dp.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::1"),
                                    segments=(S1, S2, S3), family="v6"))
    dp.install_steering(SteeringRule(match=parse_prefix("fd90::/64"),
                                     bsid=parse_v6("cafe::1")))
    return dp


def test_h_encaps_three_segments():
    dp = make_headend()
    outer = dp.h_encaps(dp.steer_lookup(parse_addr("fd90::2")))
    # reverse-order storage <S3, S2, S1>, Segments Left 2, dst = S1
    assert outer.srh.segment_list == (S3, S2, S1)
    assert outer.srh.segments_left == 2
    assert outer.dst == S1
    assert outer.src == parse_v6("fd10::1000")


def test_end_advances_segment():
    dp = make_headend()
    outer = dp.h_encaps(dp.steer_lookup(parse_addr("fd90::2")))
    mid = NodeDataplane("mid")
    mid.install_localsid(LocalSidEntry(sid=S1, behavior=Behavior("End")))
    disp = mid.process_local(outer)
    assert disp.kind == "forward"
    assert disp.packet.srh.segments_left == 1
    assert disp.packet.dst == S2
    assert mid.localsids[S1._ip].rx_counter == 1


def test_end_drops_when_no_more_segments():
    dp = make_headend()
    mid = NodeDataplane("mid")
    mid.install_localsid(LocalSidEntry(sid=S3, behavior=Behavior("End")))
    outer = dp.h_encaps(parse_v6("cafe::1"))
    from dataclasses import replace
    exhausted = replace(outer, srh=replace(outer.srh, segments_left=0))
    disp = mid.process_local(exhausted)
    assert disp.kind == "drop" and disp.reason == "no more segments"


def test_dt_requires_zero_segments_left():
    dp = make_headend()
    outer = dp.h_encaps(parse_v6("cafe::1"))
    egress = NodeDataplane("egress")
    egress.install_localsid(LocalSidEntry(sid=S1, behavior=Behavior("EndDT6")))
    disp = egress.process_local(outer)  # segments_left == 2
    assert disp.kind == "drop" and disp.reason == "premature decap"


def test_dt_decap_and_family_check():
    head = NodeDataplane("head")
    head.set_encap_source(parse_v6("fd10::1000"))
    head.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::2"),
                                      segments=(S1,), family="v4"))
    inner = InnerPacket(src=parse_addr("10.0.0.1"), dst=parse_addr("10.0.0.2"))
    outer = head.h_encaps(parse_v6("cafe::2"))
    egress = NodeDataplane("egress")
    egress.install_localsid(LocalSidEntry(sid=S1, behavior=Behavior("EndDT4")))
    entry = egress.process_local(outer)  # End.DT's header part: it decaps
    assert entry is egress.localsids[S1._ip] and entry.rx_counter == 1
    disp = entry.decap(inner.encode())
    assert disp.kind == "deliver"
    assert disp.inner == inner
    # same packet at a DT6 SID is a family mismatch
    egress6 = NodeDataplane("egress6")
    egress6.install_localsid(LocalSidEntry(sid=S1, behavior=Behavior("EndDT6")))
    assert egress6.process_local(outer).decap(inner.encode()).reason == "family mismatch"


def test_behavior_validation():
    """``Behavior`` trusts its kind: End comes from a router, EndDT4 and
    EndDT6 from a localSID kind, DT4 or DT6, which the readers refuse to be
    anything else where it enters."""
    for kind in ("End.X", "EndX", "End", "DT5"):
        with pytest.raises(ValidationError,
                           match=f"^configmap.localsids: unknown localsid kind {kind!r}$"):
            parse_configmap_doc({"node": "n", "localsids": {kind: "fcdd::1"}, "policies": []})


def test_steering_is_lpm_and_family_scoped():
    dp = NodeDataplane("n")
    dp.set_encap_source(parse_v6("fd10::1"))
    dp.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::a"), segments=(S1,), family="v6"))
    dp.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::b"), segments=(S2,), family="v6"))
    dp.install_steering(SteeringRule(parse_prefix("fd90::/32"), parse_v6("cafe::a")))
    dp.install_steering(SteeringRule(parse_prefix("fd90:0:1::/64"), parse_v6("cafe::b")))
    assert dp.steer_lookup(parse_addr("fd90:0:1::7")) == parse_v6("cafe::b")
    assert dp.steer_lookup(parse_addr("fd90:0:2::7")) == parse_v6("cafe::a")
    assert dp.steer_lookup(parse_addr("10.0.0.1")) is None


def test_steering_validation():
    dp = NodeDataplane("n")
    dp.set_encap_source(parse_v6("fd10::1"))
    with pytest.raises(DanglingPolicyError):
        dp.install_steering(SteeringRule(parse_prefix("fd90::/64"), parse_v6("cafe::9")))
    dp.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::9"), segments=(S1,), family="v6"))
    with pytest.raises(FamilyMismatchError):
        dp.install_steering(SteeringRule(parse_prefix("10.0.0.0/24"), parse_v6("cafe::9")))


def test_steering_refused_without_encap_source():
    """H.Encaps needs a source address, so a node without one steers nothing."""
    dp = NodeDataplane("n")
    dp.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::9"), segments=(S1,), family="v6"))
    before = (dp.dump(), dp.version)
    with pytest.raises(SimError, match="n: encap source not configured"):
        dp.install_steering(SteeringRule(parse_prefix("fd90::/64"), parse_v6("cafe::9")))
    assert (dp.dump(), dp.version) == before and dp.steering == {}


def test_remove_policy_drops_dependent_steering():
    dp = make_headend()
    dp.remove_policy(parse_v6("cafe::1"))
    assert dp.steering == {}
    assert dp.steer_lookup(parse_addr("fd90::2")) is None


def test_install_idempotence_tracked_by_version():
    dp = make_headend()
    v = dp.version
    dp.install_policy(SrPolicyEntry(bsid=parse_v6("cafe::1"),
                                    segments=(S1, S2, S3), family="v6"))
    dp.install_steering(SteeringRule(match=parse_prefix("fd90::/64"),
                                     bsid=parse_v6("cafe::1")))
    dp.set_encap_source(parse_v6("fd10::1000"))
    assert dp.version == v


def test_fib_lookup_local_and_lpm():
    dp = NodeDataplane("n")
    dp.install_localsid(LocalSidEntry(sid=S1, behavior=Behavior("End")))
    dp.add_fib_route(parse_prefix("::/0"), "uplink")
    dp.add_fib_route(parse_prefix("fcff:2::/32"), "r2")
    assert dp.fib_lookup(S1) == "local"
    assert dp.fib_lookup(S2) == "r2"
    assert dp.fib_lookup(parse_v6("fd00::1")) == "uplink"


def test_dump_excludes_counters():
    dp = make_headend()
    dp.install_localsid(LocalSidEntry(sid=S1, behavior=Behavior("End")))
    before = dp.dump()
    dp.process_local(dp.h_encaps(parse_v6("cafe::1")))
    assert dp.dump() == before
    assert dp.counters()[str(S1)] == 1
