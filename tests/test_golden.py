"""Golden pins: byte-identical reports, event logs and converged state.

Each case starts a shipped scenario under a fixed seed, pings every ordered
pod pair in both families, and hashes ``report_json()``, ``repr(events)``
and ``state_dump()``. The digests were captured before the indexed LPM,
the route cache and the incremental bus scheduler went in; any change to
scheduling order, forwarding or accounting shows up here.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json

import pytest

from srv6sim.bgp import parse_policy_file
from srv6sim.scenario import load_scenario
from srv6sim.sim import Simulation

from conftest import SCENARIOS

SEEDS = (0, 1, 7)
CASES = ("basic", "full_cm", "full_bgp", "full_bgp+inject")

GOLDEN = {
    'basic@0': {'report': '65e7fa4a9f8010d652b59a55916cc156b997580cf81f8a707958caffd9a35bf4', 'events': '1cc46c82302b38c69bb35b0786455b7536c095f5c4b49c6d96ab715fa4ba268b', 'state': '97151ac4f34fb00ab4189fd51a4a9d22909ddca607f1fa36188947fc2d32cad8'},
    'basic@1': {'report': 'c2d699ad948baa377352cc96f823a0e453a505a6f2226763a1f615ea4fab6cfe', 'events': 'd224019801634c5e1632e59775baa37b3ad62287410b65d877bafac7247d8aab', 'state': '97151ac4f34fb00ab4189fd51a4a9d22909ddca607f1fa36188947fc2d32cad8'},
    'basic@7': {'report': 'ed97945c8aa976890539bedc7384628ee0d5428475f971234c36dbab6c195202', 'events': '56b51108e2a7221fcb5835bf5bcee15801a93c0470160d35e91b4912bc3c559f', 'state': '97151ac4f34fb00ab4189fd51a4a9d22909ddca607f1fa36188947fc2d32cad8'},
    'full_cm@0': {'report': 'afe23405318d75c44b401256234f0ca8dba3559b6543f3956c646e49a244c6d1', 'events': 'f5e7e8a00c9bca8222b3edda8af17ecd9ea4b5eb2d460ce1a34f11b99aa1af2d', 'state': 'c3fc25f19cf08dc6c887566fbc6eec98a2b48d5b783661d19f497aa04dbee483'},
    'full_cm@1': {'report': '50b272b068b55e11feb846bccfc185dfcc019f64b31d68c56cfcd01b53573627', 'events': 'eb5d85e02b0b57dd93c5842fa82522fbc6e0605e30c8be2fb006f78eca2618f2', 'state': 'c3fc25f19cf08dc6c887566fbc6eec98a2b48d5b783661d19f497aa04dbee483'},
    'full_cm@7': {'report': '819ebaace0e25db7d60bb94891fb1682906600435c1ad89d18e5c28b8b28acbe', 'events': '67f3ef088c4c839d9d35e42a83688adbcfaa2c30d768399abe701aa6d3960955', 'state': 'c3fc25f19cf08dc6c887566fbc6eec98a2b48d5b783661d19f497aa04dbee483'},
    'full_bgp@0': {'report': 'db5430755b9a654e62aafe18749a79f27934788a5458ecacd1d8898fd8adef90', 'events': '2298cac855a096d1e2c8d3ee6781d60252b53f7f684655602c8a2fe38b64bcc7', 'state': '9375cdcceaf5e27a6214935ca609df36736fee09293ea97e9c1d5847dd359abe'},
    'full_bgp@1': {'report': 'ee81ab49b36dbeec12c9893f028831dbcb8a0f1b80d0b2058dd9bb2701d12af2', 'events': '2298cac855a096d1e2c8d3ee6781d60252b53f7f684655602c8a2fe38b64bcc7', 'state': '9375cdcceaf5e27a6214935ca609df36736fee09293ea97e9c1d5847dd359abe'},
    'full_bgp@7': {'report': 'eea38fd64545642108b495137c110226a3a0b54257e98a1599b2946ab7fb8a16', 'events': '2298cac855a096d1e2c8d3ee6781d60252b53f7f684655602c8a2fe38b64bcc7', 'state': '9375cdcceaf5e27a6214935ca609df36736fee09293ea97e9c1d5847dd359abe'},
    'full_bgp+inject@0': {'report': '3222076085178c1954cb451f29792238e3aa02617b1013525a5b66f33eefa251', 'events': 'b4862d6ac7c5f7155d210b91cba8524cf285f26fb0219a9bb5471162f9d1fd3c', 'state': 'a64167824f6adbdf7ce7810b9a096e072463f36096603e59f309b15f1dff3aa1'},
    'full_bgp+inject@1': {'report': '8c4932611f1ab4d11c77ab6f84823941438a118ec725aee0d9a8c13b725095ca', 'events': 'ec3a718790869fa20676111f7c98813c6cc778418160fcb6d7d82100866d8a64', 'state': 'a64167824f6adbdf7ce7810b9a096e072463f36096603e59f309b15f1dff3aa1'},
    'full_bgp+inject@7': {'report': '9be2bf4a065b81511b5c58e32bf46c995a5185ec8edf27c00e612236efc5dff3', 'events': 'da0d145e4dc408eedaadeca67aa6e3f0c3d917a425bc6b1b30c90a549db12dce', 'state': 'a64167824f6adbdf7ce7810b9a096e072463f36096603e59f309b15f1dff3aa1'},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(case: str, seed: int) -> dict[str, str]:
    sim = Simulation(load_scenario(SCENARIOS / f"{case.split('+')[0]}.yaml", seed=seed)).start()
    if case.endswith("+inject"):
        for path in sorted((SCENARIOS / "policies").glob("*.yaml")):
            sim.inject(parse_policy_file(path.read_text()))
    for src in sorted(sim.pods):
        for dst in sorted(sim.pods):
            for family in ("v4", "v6"):
                if src != dst and family in sim.pods[src].addrs and family in sim.pods[dst].addrs:
                    sim.ping(src, dst, count=3, family=family)
    return {
        "report": _sha(sim.report_json()),
        "events": _sha(repr(sim.events)),
        "state": _sha(json.dumps(sim.state_dump(), sort_keys=True)),
    }


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_golden_digests(case, seed):
    assert run_case(case, seed) == GOLDEN[f"{case}@{seed}"]


if __name__ == "__main__":
    for case in CASES:
        for seed in SEEDS:
            print(f"    {f'{case}@{seed}'!r}: {run_case(case, seed)!r},")
