"""``enumerate_traces`` and ``count_traces`` against a plain reference
enumerator.

``enumerate_traces`` expands only the first eager move of a state that has
one; ``reference_traces`` expands every enabled move, as the definition of
the trace set does.  They must return the same traces, and ``count_traces``
their number.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from replisim import (ALL, ONE, ConfigError, ExplicitSchedule, Simulation, Trace, TraceEvent,
                      count_traces, enumerate_traces, load_scenario, search_schedules)
from replisim.policies import local_one
from replisim.sim import MODELS

from corpus import build, generated_scenarios
from test_acceptance import APPROPRIATE_COMBOS


def reference_traces(scenario, model):
    """Every completed-run trace, each enabled move expanded at every state."""
    memo = {}

    def suffixes(sim):
        if sim.clients_done():
            return frozenset({()})
        key = sim.state_key()
        if key not in memo:
            out = set()
            for move in sim.enumerate_moves(with_selections=True):
                child = sim.clone()
                mark = len(child.events)
                child.apply_round([move])
                emitted = tuple((e.kind, e.agent, e.req, e.payload) for e in child.events[mark:])
                out.update(emitted + suffix for suffix in suffixes(child))
            memo[key] = frozenset(out)
        return memo[key]

    return frozenset(
        Trace(events=tuple(TraceEvent(i, *event) for i, event in enumerate(body, start=1)))
        for body in suffixes(Simulation(scenario, model))
    )


CORPUS = {scenario.name: scenario for scenario in generated_scenarios()}


@pytest.mark.parametrize("model", ("cm0", "cm1"))
def test_corpus_trace_sets_match_the_reference(model):
    for base in CORPUS.values():
        expected = None
        for read_policy, write_policy in APPROPRIATE_COMBOS:
            scenario = base.with_policies(read_policy, write_policy)
            if expected is None or model != "cm0":  # cm0's one flat store ignores policies
                expected = reference_traces(scenario, model)
            case = (base.name, str(read_policy), str(write_policy))
            assert enumerate_traces(scenario, model) == expected, case
            assert count_traces(scenario, model) == len(expected), case


@pytest.mark.parametrize("name", ("r_r", "w_rr"))
@pytest.mark.parametrize("policies", ((ONE, ONE), (ALL, ALL)), ids=("ONE-ONE", "ALL-ALL"))
def test_small_cm2_trace_sets_match_the_reference(name, policies):
    scenario = CORPUS[name].with_policies(*policies)
    expected = reference_traces(scenario, "cm2")
    assert enumerate_traces(scenario, "cm2") == expected
    assert count_traces(scenario, "cm2") == len(expected)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", ("r_r", "w_rr"))
@pytest.mark.parametrize("policies", ((local_one(1), ALL), (ALL, local_one(1))),
                         ids=("LOCAL_ONE-ALL", "ALL-LOCAL_ONE"))
def test_local_one_trace_sets_match_the_reference(name, policies, model):
    # Under LOCAL_ONE one state is reached at two rounds, and the key,
    # which holds no round, merges the two.
    scenario = CORPUS[name].with_policies(*policies)
    expected = reference_traces(scenario, model)
    assert enumerate_traces(scenario, model) == expected
    assert count_traces(scenario, model) == len(expected)


_KEYS = ("(0)", "(1)")
_step = st.one_of(
    st.builds("write x {{{} -> ({})}}".format, st.sampled_from(_KEYS), st.integers(1, 3)),
    st.builds("read x key={}".format, st.sampled_from(_KEYS)),
    st.just("read x true"),
    st.builds("read x key={} print".format, st.sampled_from(_KEYS)),
)


@st.composite
def _two_agent_scenarios(draw):
    programs = draw(st.lists(st.lists(_step, min_size=1, max_size=2), min_size=2, max_size=2)
                    .filter(lambda ps: sum(map(len, ps)) <= 3))
    homes = draw(st.tuples(st.sampled_from((1, 2)), st.sampled_from((1, 2))))
    policies = draw(st.sampled_from(((ONE, ONE), (ONE, ALL), (ALL, ONE), (ALL, ALL))))
    agents = [(f"a{n}", home, "; ".join(steps))
              for n, (home, steps) in enumerate(zip(homes, programs), start=1)]
    return build("generated", agents).with_policies(*policies)


@settings(max_examples=4, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_two_agent_scenarios())
@example(build("w_r_print", [("a1", 1, "write x {(0) -> (1)}"), ("a2", 2, "read x key=(0) print")])
         .with_policies(ONE, ALL))
def test_generated_trace_sets_match_the_reference(scenario):
    for model in MODELS:
        expected = reference_traces(scenario, model)
        assert enumerate_traces(scenario, model) == expected, model
        assert count_traces(scenario, model) == len(expected), model


def test_long_single_agent_run_is_enumerated_without_recursion():
    program = "; ".join(f"write x {{(0) -> ({i})}}" for i in range(1, 151))
    scenario = build("long_writer", [("a1", 1, program)])
    assert len(enumerate_traces(scenario, "cm2")) == 1


@pytest.mark.parametrize("model", MODELS)
def test_walks_from_a_completed_root(model):
    scenario = build("idle", [("a1", 1, "")])
    assert enumerate_traces(scenario, model) == {Trace(events=())}
    assert count_traces(scenario, model) == 1
    found = search_schedules(scenario, model, lambda trace, scenario: True)
    assert found.witness == ExplicitSchedule(()) and found.explored == 1
    assert found.trace.events == ()
    missed = search_schedules(scenario, model, lambda trace, scenario: False)
    assert missed.witness is None and missed.exhausted and missed.explored == 1


def test_state_cap_still_raises():
    scenario = CORPUS["w_w_r"].with_policies(ONE, ALL)
    with pytest.raises(ConfigError, match="exceeded 200 states"):
        enumerate_traces(scenario, "cm2", max_states=200)


@pytest.mark.parametrize("name, model, states", (
    ("counterexample", "cm1", 41),
    ("counterexample", "cm2", 618),
    ("anomaly_one_one", "cm2", 496),
))
def test_state_cap_counts_the_incomplete_states_of_the_reduced_graph(name, model, states):
    scenario = load_scenario(name)
    enumerate_traces(scenario, model, max_states=states)
    with pytest.raises(ConfigError, match=f"exceeded {states - 1} states"):
        enumerate_traces(scenario, model, max_states=states - 1)


@pytest.mark.parametrize("name, model, traces", (
    ("counterexample", "cm0", 15),
    ("counterexample", "cm1", 15),
    ("counterexample", "cm2", 35),
    ("anomaly_one_one", "cm1", 31),
    ("anomaly_one_one", "cm2", 47),
    # far too many traces to enumerate: counted on the automaton alone
    ("intro", "cm0", 10_090_080),
    ("intro", "cm1", 31_119_756),
))
def test_trace_counts_of_the_bundled_scenarios(name, model, traces):
    assert count_traces(load_scenario(name), model) == traces
