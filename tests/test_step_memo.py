"""The walks' memo of step effects (``Simulation._effect``).

In ``search_schedules`` and ``enumerate_traces`` a ``dc``, ``db`` or
``collect`` step is taken from the walk's memo when an earlier step of the
same walk had equal inputs.  Every such hit is recomputed here with
``execute_move`` on the state at hand and must give equal updates and
sends.  The memo belongs to one walk: two policy pairs that share one
``ClusterConfig`` must walk, back to back or one inside the other, exactly
as each does alone.
"""

from collections import Counter

import pytest

from replisim import (ALL, ONE, SeededSchedule, Simulation, enumerate_traces, parse_scenario, run,
                      search_schedules)
from replisim.predicates import anomaly_read_stale
from replisim.sim import MODELS

from corpus import generated_scenarios
from test_enumeration import reference_traces

POLICIES = ((ONE, ONE), (ONE, ALL), (ALL, ALL))
CORPUS = {scenario.name: scenario for scenario in generated_scenarios()}
# A read delegate that collects from four data centres can meet one count and
# answer with two logs: its first report either missed or saw the write.
FOUR_DCS = parse_scenario("""\
cluster.datacentres = 4
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
cluster.relation.x.hash = 0 255
cluster.relation.x.fragments = 1
cluster.relation.x.datacentres = 1 2 3 4
cluster.relation.x.nodes = 1
cluster.relation.x.replication = 1
policy.read = ALL
policy.write = ONE
agent.a1.home = 2
agent.a1.program = write x {(0) -> (1)}
agent.a2.home = 1
agent.a2.program = read x key=(0)
init.x = (0) -> (0)
""", name="four_dcs")


@pytest.fixture
def checked_hits(monkeypatch) -> Counter:
    """Memo hits by move tag; each is recomputed with ``execute_move`` and compared."""
    effect, execute = Simulation._effect, Simulation.execute_move
    misses = [0]
    hits: Counter = Counter()

    def counted_execute(sim, move):
        misses[0] += 1
        return execute(sim, move)

    def checked_effect(sim, move):
        before = misses[0]
        eff = effect(sim, move)
        if misses[0] == before:
            fresh = execute(sim, move)
            assert fresh.updates == eff.updates and fresh.sends == eff.sends, move.desc
            hits[move.desc[0]] += 1
        return eff

    monkeypatch.setattr(Simulation, "execute_move", counted_execute)
    monkeypatch.setattr(Simulation, "_effect", checked_effect)
    return hits


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("policies", POLICIES, ids=("ONE-ONE", "ONE-ALL", "ALL-ALL"))
def test_every_memo_hit_equals_a_fresh_step(model, policies, checked_hits):
    for base in CORPUS.values():
        scenario = base.with_policies(*policies)
        enumerate_traces(scenario, model)
        search_schedules(scenario, model, anomaly_read_stale)
    memoised = {"cm0": ("db",), "cm1": ("dc",), "cm2": ("dc", "collect")}[model]
    assert set(checked_hits) == set(memoised) and min(checked_hits.values()) > 100, checked_hits


def test_every_memo_hit_equals_a_fresh_step_with_four_reports(checked_hits):
    enumerate_traces(FOUR_DCS, "cm2")
    assert checked_hits["collect"] > 100, checked_hits


def test_seeded_runs_and_replays_take_no_memo(checked_hits):
    scenario = CORPUS["w_rr"].with_policies(ONE, ALL)
    for model in MODELS:
        result = run(scenario, model, SeededSchedule(3))
        run(scenario, model, result.as_explicit_schedule())
        assert result.sim._memo is None
    assert not checked_hits


@pytest.mark.parametrize("model", ("cm1", "cm2"))
def test_policy_pairs_sharing_a_config_walk_as_they_do_alone(model):
    base = CORPUS["w_rr"]
    one, every = base.with_policies(ONE, ONE), base.with_policies(ALL, ALL)
    assert one.cfg is every.cfg

    def walk(scenario):
        return enumerate_traces(scenario, model), search_schedules(scenario, model, anomaly_read_stale)

    alone = {}
    for policies in ((ONE, ONE), (ALL, ALL)):
        fresh = {s.name: s for s in generated_scenarios()}["w_rr"].with_policies(*policies)
        assert fresh.cfg is not one.cfg  # built again, with a configuration of its own
        alone[policies[0]] = walk(fresh)
        assert alone[policies[0]][0] == reference_traces(fresh, model)  # which walks with no memo
    assert alone[ONE][0] != alone[ALL][0]
    for first, second in ((one, every), (every, one)):
        assert walk(first) == alone[first.read_policy]
        assert walk(second) == alone[second.read_policy]

        inner = []

        def walk_inside(trace, scenario, second=second):
            if not inner:
                inner.append(walk(second))
            return anomaly_read_stale(trace, scenario)

        outer = search_schedules(first, model, walk_inside)
        assert inner == [alone[second.read_policy]]
        assert outer == alone[first.read_policy][1]
