"""Seeded-run outputs against a fixture recorded before ``Timestamp`` became
a tuple and the engine round dropped its per-round containers.

``digest_fixture.json`` holds one sha256 per (scenario, policy pair,
model): the scenarios of ``tests/corpus.py`` (the generated ones and the
bundled ones) under ONE/ONE, ONE/ALL, ALL/ALL and LOCAL_ONE(1)/ALL, each
run with seeds 0-11.  The digest covers every run's trace text and executed
schedule string, in seed order.  A combination the simulator refuses is
recorded by its error text instead.  Any output that hangs on the hash of a
value, through the iteration order of a set or dict, moves an entry.

Re-record with ``PYTHONPATH=src python tests/test_digest_fixture.py``; a
change that needs that changes the simulator's output.
"""

import hashlib
import json
from pathlib import Path

from replisim import ALL, ONE, ConfigError, ScenarioError, run
from replisim.policies import local_one
from replisim.sim import MODELS, SeededSchedule

from corpus import SCENARIOS

PATH = Path(__file__).parent / "digest_fixture.json"
POLICIES = ((ONE, ONE), (ONE, ALL), (ALL, ALL), (local_one(1), ALL))
SEEDS = range(12)


def observe() -> dict:
    digests = {}
    for base in SCENARIOS:
        for read, write in POLICIES:
            scenario = base.with_policies(read, write)
            for model in MODELS:
                digest = hashlib.sha256()
                try:
                    for seed in SEEDS:
                        result = run(scenario, model, SeededSchedule(seed))
                        digest.update(result.trace.to_text().encode("utf-8"))
                        digest.update(result.as_explicit_schedule().describe().encode("utf-8") + b"\n")
                except (ConfigError, ScenarioError) as e:
                    digests[f"{base.name}/{read}/{write}/{model}"] = f"refused: {e}"
                    continue
                digests[f"{base.name}/{read}/{write}/{model}"] = digest.hexdigest()
    return digests


def test_seeded_runs_match_fixture():
    fixture = json.loads(PATH.read_text())
    got = observe()
    moved = sorted(k for k in fixture.keys() | got.keys() if fixture.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(fixture)} entries moved: {moved}"


if __name__ == "__main__":
    PATH.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
