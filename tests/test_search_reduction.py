"""``search_schedules`` against ``enumerate_traces`` on a corpus subset.

The search expands one eager move where a state has one, de-duplicates on
``search_key`` and keeps sleep sets across revisits.  None of that may
change its answer: it finds a witness exactly when some enumerated trace
satisfies the predicate, and reports ``exhausted`` when it finds none.  The
bundled predicates read only each agent's own payload history, which rank
compression keeps, so they can be asked of enumerated traces.  Every
witness replays under ``run`` to the trace the search returned.
"""

import pytest

from replisim import ONE, ALL, enumerate_traces, run, search_schedules
from replisim.predicates import BUILTIN_PREDICATES
from replisim.sim import MODELS

from corpus import generated_scenarios

SUBSET = (
    "w_rr", "w_rr_home_swap", "ww_r", "del_rr", "rw_w", "r_r", "bulk_keyin",
    "frag2", "empty_init", "fat_replicas", "text_keys", "r_w_r", "ww_rr",
)
CORPUS = {scenario.name: scenario for scenario in generated_scenarios()}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("policies", ((ONE, ONE), (ONE, ALL)), ids=("ONE-ONE", "ONE-ALL"))
def test_search_finds_a_witness_exactly_when_an_enumerated_trace_has_one(model, policies):
    witnesses = 0
    for name in SUBSET:
        scenario = CORPUS[name].with_policies(*policies)
        traces = enumerate_traces(scenario, model)
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
