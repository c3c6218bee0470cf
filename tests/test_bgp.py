import random
import re
import struct
from dataclasses import replace
from pathlib import Path

import pytest

from srv6sim.bgp import (
    SAFI_SR_POLICY,
    SUBTLV_BINDING_SID,
    SUBTLV_SEGMENT_LIST,
    Segment,
    SessionBus,
    SrPolicySafiUpdate,
    Step1Update,
    check_decap,
    decode_safi73,
    encode_safi73,
    parse_policy_file,
)
from srv6sim.errors import DecodeError, SimError, TruncationError, ValidationError
from srv6sim.net_types import parse_v6

WORKER2_V4 = SrPolicySafiUpdate(
    distinguisher=4,
    color=94,
    endpoint=parse_v6("fd12::1000"),
    bsid=parse_v6("cafe::4"),
    segments=tuple(
        Segment(sid=parse_v6(s), behavior_code=19)
        for s in ("fcff:5::1", "fcff:7::1", "fcff:8::1",
                  "fcdd::12aa:d460:b250:45:b04")
    ),
    next_hop=parse_v6("fd12::1000"),
)


def test_reference_policy_roundtrip():
    decoded = decode_safi73(encode_safi73(WORKER2_V4))
    assert decoded == WORKER2_V4
    assert decoded.family == "v4"
    assert decoded.safi == SAFI_SR_POLICY


def test_withdraw_flag_roundtrip():
    w = replace(WORKER2_V4, withdraw=True)
    assert decode_safi73(encode_safi73(w)).withdraw is True


def test_family_from_final_segment_code():
    v6 = replace(
        WORKER2_V4,
        segments=tuple(
            Segment(sid=s.sid, behavior_code=18) for s in WORKER2_V4.segments
        ),
    )
    assert v6.family == "v6"
    end_only = replace(
        WORKER2_V4,
        segments=(Segment(sid=parse_v6("fcff:1::1"), behavior_code=1),),
    )
    with pytest.raises(ValidationError, match="^final segment code 1 is not a DT behavior$"):
        check_decap(end_only.segments)  # which parse_policy_file and Simulation.inject call


def test_update_field_range_validation():
    """``SrPolicySafiUpdate`` trusts its fields. ``parse_policy_file`` reads
    each 32-bit field in range and refuses an empty segment list;
    ``decode_safi73`` unpacks 32-bit fields and refuses an empty list."""
    text = (
        'nlri: {distinguisher: 2, color: 94, endpoint: "fd10::1000"}\n'
        'segmentlist: {weight: 0, segments: [{sid: "fcff:3::1", behavior: 19}]}\n'
        'bsid: "cafe::184"\nnexthop: "fd10::1000"\n'
    )
    assert parse_policy_file(text).distinguisher == 2
    for field, value, where in (("distinguisher", 2, "nlri"), ("color", 94, "nlri"),
                                ("weight", 0, "segmentlist")):
        with pytest.raises(ValidationError, match=re.escape(
                f"policy file.{where}.{field}: {field} {2**32} is outside [0, {2**32 - 1}]")):
            parse_policy_file(text.replace(f"{field}: {value}", f"{field}: {2**32}"))
    with pytest.raises(ValidationError, match="policy file.segmentlist.segments: empty segments"):
        parse_policy_file(text.replace('[{sid: "fcff:3::1", behavior: 19}]', "[]"))
    update = replace(parse_policy_file(text), segments=())
    with pytest.raises(DecodeError, match="update lacks a segment list"):
        decode_safi73(encode_safi73(update))


def test_decode_rejects_truncation_and_trailing_bytes():
    raw = encode_safi73(WORKER2_V4)
    for cut in (0, 3, 10, len(raw) - 1):
        with pytest.raises((TruncationError, DecodeError)):
            decode_safi73(raw[:cut])
    with pytest.raises(DecodeError):
        decode_safi73(raw + b"\x00")


def test_decode_rejects_wrong_safi():
    raw = bytearray(encode_safi73(WORKER2_V4))
    raw[3] = 1  # SAFI byte
    with pytest.raises(DecodeError):
        decode_safi73(bytes(raw))


def _without_subtlv(raw: bytes, dropped: int) -> bytes:
    """The update ``raw`` without its tunnel-encaps sub-TLVs of type ``dropped``:
    4 header bytes, 40 of NLRI and next hop, then the attribute (type 23)."""
    value, kept = raw[47:], b""
    while value:
        type_code, length = struct.unpack_from("!BH", value)
        kept += value[:3 + length] if type_code != dropped else b""
        value = value[3 + length:]
    return raw[:44] + struct.pack("!BH", 23, len(kept)) + kept


@pytest.mark.parametrize("dropped, message", [
    (SUBTLV_BINDING_SID, "lacks a binding SID"), (SUBTLV_SEGMENT_LIST, "lacks a segment list")])
def test_decode_rejects_an_update_without_a_required_subtlv(dropped, message):
    raw = encode_safi73(WORKER2_V4)
    assert decode_safi73(_without_subtlv(raw, 0)) == WORKER2_V4  # drops nothing
    with pytest.raises(DecodeError, match=message):
        decode_safi73(_without_subtlv(raw, dropped))


def test_repeated_decode_is_equal_and_malformed_raises_every_time():
    """Decodes are memoised on the payload bytes; a rejection never is."""
    raw = encode_safi73(WORKER2_V4)
    first, second = decode_safi73(bytes(raw)), decode_safi73(bytes(raw))
    assert first == second == WORKER2_V4
    for _ in range(2):
        with pytest.raises((TruncationError, DecodeError)):
            decode_safi73(raw[:-1])


def test_mutation_fuzz_never_crashes():
    rng = random.Random(12345)
    raw = encode_safi73(WORKER2_V4)
    for _ in range(5000):
        buf = bytearray(raw)
        for _ in range(rng.randrange(1, 4)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        try:
            decode_safi73(bytes(buf))
        except SimError:
            pass  # typed rejection is the only acceptable failure


def test_parse_policy_file_vocabulary(scenarios_dir: Path):
    update = parse_policy_file(
        (scenarios_dir / "policies" / "worker2-v4.yaml").read_text()
    )
    assert update == WORKER2_V4
    assert update.priority == 0 and update.weight == 0


def test_parse_policy_file_errors():
    with pytest.raises(ValidationError):
        parse_policy_file(": not yaml :::")
    with pytest.raises(ValidationError):
        parse_policy_file("nlri: {distinguisher: 1}")


def test_session_bus_fifo_per_pair():
    bus = SessionBus()
    bus.send("a", "b", "m1")
    bus.send("a", "b", "m2")
    bus.send("a", "c", "m3")
    assert bus.pending_sessions() == [("a", "b"), ("a", "c")]
    assert bus.pop(("a", "b")) == "m1"
    assert bus.pop(("a", "b")) == "m2"
    assert not bus.quiesced
    assert bus.pop(("a", "c")) == "m3"
    assert bus.quiesced


def test_step1_update_is_plain_data():
    u = Step1Update(prefix=None, next_hop=parse_v6("fd10::1"))
    assert (u.prefix, u.next_hop) == (None, parse_v6("fd10::1"))
