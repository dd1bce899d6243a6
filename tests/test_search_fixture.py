"""Schedule-search outputs, under its eager-move persistent sets and its
``search_key`` de-duplication, against a recorded fixture.

``search_fixture.json`` holds, for each bundled scenario x cm0/cm1/cm2 x
builtin predicate x step limit (the default, and 9, which cuts most runs)
at budget 5,000: the witness's ``describe()`` (or None), ``explored``,
``exhausted``, the sha256 of the witness trace text (or None), and the
sha256 of every trace text the predicate was called with, in call order.
A search that visits its states in a different order, cuts at a different
point or asks the predicate about other traces changes an entry.

Re-record with ``PYTHONPATH=src python tests/test_search_fixture.py``; a
change that needs that changes what the search returns.
"""

import hashlib
import json
from pathlib import Path

import pytest

from replisim import load_scenario, search_schedules
from replisim.predicates import BUILTIN_PREDICATES
from replisim.scenario import bundled_scenarios
from replisim.sim import DEFAULT_STEP_LIMIT

PATH = Path(__file__).parent / "search_fixture.json"
MODELS = ("cm0", "cm1", "cm2")
STEP_LIMITS = (DEFAULT_STEP_LIMIT, 9)
BUDGET = 5_000


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def search_ids() -> list:
    return [
        f"{name}/{model}/{pred}/{limit}"
        for name in bundled_scenarios()
        for model in MODELS
        for pred in sorted(BUILTIN_PREDICATES)
        for limit in STEP_LIMITS
    ]


def observe(search_id: str) -> dict:
    name, model, pred, limit = search_id.split("/")
    calls = []

    def predicate(trace, scenario):
        calls.append(_sha(trace.to_text()))
        return BUILTIN_PREDICATES[pred](trace, scenario)

    result = search_schedules(
        load_scenario(name), model, predicate, budget=BUDGET, step_limit=int(limit)
    )
    return {
        "witness": result.witness.describe() if result.witness is not None else None,
        "explored": result.explored,
        "exhausted": result.exhausted,
        "trace_sha256": _sha(result.trace.to_text()) if result.trace is not None else None,
        "predicate_calls": calls,
    }


FIXTURE = json.loads(PATH.read_text()) if PATH.exists() else {}


def test_fixture_covers_every_search():
    assert sorted(FIXTURE) == sorted(search_ids())


@pytest.mark.parametrize("search_id", sorted(FIXTURE))
def test_search_matches_fixture(search_id):
    assert observe(search_id) == FIXTURE[search_id]


if __name__ == "__main__":
    PATH.write_text(json.dumps({i: observe(i) for i in search_ids()}, indent=1, sort_keys=True) + "\n")
