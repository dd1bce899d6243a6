"""``search_schedules`` against ``enumerate_traces`` on a corpus subset.

The search expands one eager move where a state has one, by the view rule,
and de-duplicates on ``search_key``.  Neither may lose a view: a search
whose predicate never holds is exhausted and is asked about exactly the
per-agent projections (each agent's own (kind, req, payload) sequence) of
the enumerated traces.  Nor may it change its answer: it finds a witness
exactly when some enumerated trace satisfies the predicate, and reports
``exhausted`` when it finds none.  The bundled predicates read only each
agent's own payload history, which rank compression keeps, so they can be
asked of enumerated traces.  Every witness replays under ``run`` to the
trace the search returned.

The search key holds no round, so under ``LOCAL_ONE``, where runs meet in
one state at two rounds, each key is expanded again when it is reached
sooner; the step limit stays exact.
"""

import pytest

from replisim import ONE, ALL, enumerate_traces, run, search_schedules
from replisim.policies import local_one
from replisim.predicates import BUILTIN_PREDICATES
from replisim.sim import MODELS

from corpus import build, generated_scenarios

SUBSET = (
    "w_rr", "w_rr_home_swap", "ww_r", "del_rr", "rw_w", "r_r", "bulk_keyin",
    "frag2", "empty_init", "fat_replicas", "text_keys", "r_w_r", "ww_rr",
)
CORPUS = {scenario.name: scenario for scenario in generated_scenarios()}


def view(trace) -> tuple:
    """Each agent's (kind, req, payload) sequence, by agent."""
    return tuple((a, tuple((e.kind, e.req, e.payload) for e in trace.per_agent(a))) for a in trace.agents())


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("policies", ((ONE, ONE), (ONE, ALL), (local_one(1), ALL)),
                         ids=("ONE-ONE", "ONE-ALL", "LOCAL_ONE-ALL"))
def test_search_finds_a_witness_exactly_when_an_enumerated_trace_has_one(model, policies):
    witnesses = 0
    for name in SUBSET:
        scenario = CORPUS[name].with_policies(*policies)
        traces = enumerate_traces(scenario, model)
        seen = set()

        def record(trace, scenario):
            seen.add(view(trace))
            return False

        result = search_schedules(scenario, model, record)
        assert result.exhausted and seen == {view(trace) for trace in traces}, name
        for pred_name, predicate in sorted(BUILTIN_PREDICATES.items()):
            case = (name, pred_name)
            result = search_schedules(scenario, model, predicate)
            expected = any(predicate(trace, scenario) for trace in traces)
            assert (result.witness is not None) == expected, case
            if result.witness is None:
                assert result.exhausted, case
                continue
            witnesses += 1
            replay = run(scenario, model, result.witness)
            assert replay.trace.events == result.trace.events, case
            assert predicate(replay.trace, scenario), case
    if model == "cm2" or (model, policies) == ("cm1", (ONE, ONE)):  # no stale read elsewhere
        assert witnesses > 0


def test_step_limit_is_exact_where_one_state_is_reached_at_two_rounds():
    # The scenario of test_state_partition.py: its states after the answer
    # are reached one round apart, and the witness needs the sooner one.
    scenario = build("one_read", [("a2", 2, "read x key=(0)")]).with_policies(local_one(1), ALL)
    short = search_schedules(scenario, "cm2", lambda trace, scenario: True, step_limit=9)
    assert (short.witness, short.exhausted) == (None, False)
    result = search_schedules(scenario, "cm2", lambda trace, scenario: True, step_limit=10)
    assert result.witness is not None
    replay = run(scenario, "cm2", result.witness, step_limit=10)
    assert replay.completed
    assert replay.trace.events == result.trace.events
