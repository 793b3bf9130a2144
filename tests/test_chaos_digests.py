"""Chaos-digest parity: every library scenario's journal digest is pinned.

Each (scenario, arm) cell of :data:`repro.chaos.SCENARIOS` x {sm,
baseline} runs at seed 42 and its journal digest is compared against
``tests/fixtures/chaos_digests.json``.  The digest covers every journal
record (times, spans, RPC outcomes, shard-map publishes), so any change
to event ordering, RNG draw order or control-plane decisions fails the
cell that exercises it.

Regenerate the fixture only after an *intentional* behaviour change,
and explain the change in the commit::

    PYTHONPATH=src python tests/test_chaos_digests.py
"""

import json
from pathlib import Path

import pytest

from repro.chaos import SCENARIOS, run_scenario

FIXTURE = Path(__file__).parent / "fixtures" / "chaos_digests.json"
ARMS = ("sm", "baseline")
SEED = 42


def _load():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_library_cell():
    pinned = _load()["digests"]
    assert sorted(pinned) == sorted(SCENARIOS)
    for name, by_arm in pinned.items():
        assert sorted(by_arm) == sorted(ARMS), name


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_digest_matches_fixture(name, arm):
    fixture = _load()
    result = run_scenario(SCENARIOS[name], arm=arm, seed=fixture["seed"])
    assert result.digest == fixture["digests"][name][arm]


if __name__ == "__main__":
    digests = {name: {arm: run_scenario(spec, arm=arm, seed=SEED).digest
                      for arm in ARMS}
               for name, spec in sorted(SCENARIOS.items())}
    FIXTURE.write_text(json.dumps({"seed": SEED, "digests": digests},
                                  indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(digests) * len(ARMS)} cells)")
