"""Byte-identical output against a fixture recorded before the engine's
move-kind table and replica-group kernels were introduced.

``output_fixture.json`` holds, for each bundled scenario x model x seed 0-2,
the sha256 of the seeded run's trace text and its executed schedule string;
the sorted trace-set
digest of ``enumerate_traces`` on ``counterexample`` under cm1 and cm2; and
the witness and ``explored`` count of the cm2 ``anomaly-read-stale`` search
on ``counterexample``.  The fixture is a reference: a change that needs it
re-recorded changes the simulator's output.
"""

import hashlib
import json
from pathlib import Path

import pytest

from replisim import Trace, enumerate_traces, load_scenario, run, search_schedules
from replisim.predicates import anomaly_read_stale
from replisim.scenario import bundled_scenarios
from replisim.sim import MODELS, SeededSchedule

FIXTURE = json.loads((Path(__file__).parent / "output_fixture.json").read_text())
SEEDS = (0, 1, 2)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def seeded_run(name: str, model: str, seed: int):
    result = run(load_scenario(name), model, SeededSchedule(seed))
    return {
        "trace_sha256": _sha(result.trace.to_text()),
        "schedule": result.as_explicit_schedule().describe(),
    }


def trace_set_digest(model: str) -> str:
    traces = enumerate_traces(load_scenario("counterexample"), model)
    return _sha("".join(sorted(t.to_text() for t in traces)))


def stale_read_search() -> dict:
    result = search_schedules(load_scenario("counterexample"), "cm2", anomaly_read_stale)
    return {"witness": result.witness.describe(), "explored": result.explored}


def observe() -> dict:
    return {
        "runs": {
            f"{name}/{model}/{seed}": seeded_run(name, model, seed)
            for name in bundled_scenarios()
            for model in MODELS
            for seed in SEEDS
        },
        "enumerate": {model: trace_set_digest(model) for model in ("cm1", "cm2")},
        "search": stale_read_search(),
    }


def test_fixture_covers_every_bundled_scenario_model_and_seed():
    expected = {f"{n}/{m}/{s}" for n in bundled_scenarios() for m in MODELS for s in SEEDS}
    assert set(FIXTURE["runs"]) == expected


@pytest.mark.parametrize("run_id", sorted(FIXTURE["runs"]))
def test_seeded_run_matches_fixture(run_id):
    name, model, seed = run_id.split("/")
    assert seeded_run(name, model, int(seed)) == FIXTURE["runs"][run_id]


@pytest.mark.parametrize("run_id", sorted(FIXTURE["runs"]))
def test_recorded_schedule_replays_the_recorded_trace(run_id):
    name, model, seed = run_id.split("/")
    scenario = load_scenario(name)
    seeded = run(scenario, model, SeededSchedule(int(seed)))
    replay = run(scenario, model, seeded.as_explicit_schedule())
    assert replay.completed
    # The meta lines name the schedule, so the replay's events are rendered
    # under the seeded run's meta to compare against the recorded text.
    text = Trace(events=replay.trace.events, meta=seeded.trace.meta).to_text()
    assert _sha(text) == FIXTURE["runs"][run_id]["trace_sha256"]
    assert replay.as_explicit_schedule().describe() == FIXTURE["runs"][run_id]["schedule"]


@pytest.mark.parametrize("model", ["cm1", "cm2"])
def test_trace_set_matches_fixture(model):
    assert trace_set_digest(model) == FIXTURE["enumerate"][model]


def test_stale_read_search_matches_fixture():
    assert stale_read_search() == FIXTURE["search"]
