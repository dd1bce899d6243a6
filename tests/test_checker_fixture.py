"""Checker verdicts against a fixture recorded before the checkers gained a
failed-state cache and an explicit search stack.

``checker_fixture.json`` holds, for each bundled scenario x model x seed 0-2
seeded-run trace and for the cm2 ``anomaly-read-stale`` witness on
``counterexample``, the ``render()`` line, the ``waived`` pairs and the
search node count (``replays``) of both checkers at their default budget.  A
decided verdict (``exhaustive=true``) must render identically with the same
``waived`` pairs, in at most the recorded number of nodes.  An undecided one
may stay as it is or become decided, since a cheaper search may finish where
the recorded one ran out of budget.

``python tests/test_checker_fixture.py`` re-records the node counts, and only
them: it stops if any render or ``waived`` list differs from the fixture.
"""

import json
from pathlib import Path

import pytest

from replisim import check_view_compatible, check_view_serialisable, load_scenario, run, search_schedules
from replisim.predicates import anomaly_read_stale
from replisim.scenario import bundled_scenarios
from replisim.sim import MODELS, SeededSchedule

PATH = Path(__file__).parent / "checker_fixture.json"
FIXTURE = json.loads(PATH.read_text())
SEEDS = (0, 1, 2)
CHECKERS = {"compat": check_view_compatible, "serial": check_view_serialisable}


def trace_of(trace_id: str):
    """``name/model/seed`` names a seeded run; ``witness`` the stale-read
    witness of the cm2 search on ``counterexample``."""
    if trace_id == "witness":
        scenario = load_scenario("counterexample")
        return scenario, search_schedules(scenario, "cm2", anomaly_read_stale).trace
    name, model, seed = trace_id.split("/")
    scenario = load_scenario(name)
    return scenario, run(scenario, model, SeededSchedule(int(seed))).trace


def verdicts(trace_id: str) -> dict:
    scenario, trace = trace_of(trace_id)
    out = {}
    for prop, checker in CHECKERS.items():
        v = checker(trace, scenario)
        out[prop] = {
            "render": v.render(),
            "waived": [[req, list(k)] for req, k in v.waived],
            "nodes": v.replays,
        }
    return out


def observe() -> dict:
    ids = [f"{n}/{m}/{s}" for n in bundled_scenarios() for m in MODELS for s in SEEDS]
    return {trace_id: verdicts(trace_id) for trace_id in ids + ["witness"]}


def test_fixture_covers_every_seeded_run_and_the_witness():
    expected = {f"{n}/{m}/{s}" for n in bundled_scenarios() for m in MODELS for s in SEEDS}
    assert set(FIXTURE) == expected | {"witness"}


@pytest.mark.parametrize("trace_id", sorted(FIXTURE))
def test_checker_verdicts_match_fixture(trace_id):
    got = verdicts(trace_id)
    for prop, want in FIXTURE[trace_id].items():
        have = got[prop]
        if "exhaustive=true" in want["render"]:
            assert (have["render"], have["waived"]) == (want["render"], want["waived"]), prop
            assert have["nodes"] <= want["nodes"], prop
        else:
            assert have == want or "exhaustive=true" in have["render"], prop


if __name__ == "__main__":
    # Re-record the node counts only; every render and waived list must be
    # as recorded.
    for trace_id, props in observe().items():
        for prop, have in props.items():
            want = FIXTURE[trace_id][prop]
            assert (have["render"], have["waived"]) == (want["render"], want["waived"]), (trace_id, prop)
            want["nodes"] = have["nodes"]
    PATH.write_text(json.dumps(FIXTURE, indent=1, sort_keys=True) + "\n")
