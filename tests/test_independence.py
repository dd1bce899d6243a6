"""The move independence relation and the search key against the engine.

``search_schedules`` does not expand a sleeping move, which is sound only if
any two moves that ``independent`` accepts commute.  Each case walks up to
``STATES`` reachable states breadth first, every enabled move expanded.  For
every pair of moves enabled in one state whose footprints are independent,
each must stay enabled after the other, and both orders must reach states
with equal ``search_key()``, and so equal ``state_key()``.

The search de-duplicates on ``search_key()``, which is sound for a predicate
that reads each agent's own history only if equal keys mean equal
per-agent (kind, req, payload) histories.  That is checked over every
reachable state of a few corpus scenarios.
"""

import pytest

from replisim import ALL, ONE, Simulation
from replisim.sim import MODELS, footprint, independent

from corpus import SCENARIOS, walk

STATES = 200
CORPUS = {scenario.name: scenario for scenario in SCENARIOS}


def commuting_pairs(succ: list) -> int:
    """Check every independent pair of moves among one state's successors;
    return how many there were."""
    pairs = 0
    for i, (a, after_a, enabled_a) in enumerate(succ):
        for b, after_b, enabled_b in succ[i + 1:]:
            if not independent(footprint(a), footprint(b)):
                continue
            pairs += 1
            da, db = a.desc, b.desc
            assert db in enabled_a and da in enabled_b, (da, db)
            ab, ba = after_a.clone(), after_b.clone()
            ab.apply_round([enabled_a[db]])
            ba.apply_round([enabled_b[da]])
            assert ab.search_key() == ba.search_key(), (da, db)
    return pairs


def checked_pairs(scenario, model) -> int:
    """Walk up to ``STATES`` distinct states breadth first and check the
    independent pairs enabled in each."""
    pairs = 0
    for sim, children in walk(scenario, model, STATES):
        succ = []
        for move, child in children:
            assert sim.resolve_descriptor(move.desc) == move
            succ.append((move, child, {m.desc: m for m in child.enumerate_moves(with_selections=True)}))
        pairs += commuting_pairs(succ)
    return pairs


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("policies", ((ONE, ONE), (ALL, ALL)), ids=("ONE-ONE", "ALL-ALL"))
def test_independent_moves_commute(model, policies):
    pairs = 0
    for base in SCENARIOS:
        scenario = base.with_policies(*policies)
        pairs += checked_pairs(scenario, model)
    assert pairs > 0


def histories(sim) -> dict:
    """Each agent's own (kind, req, payload) events, in order."""
    out: dict = {}
    for e in sim.events:
        out.setdefault(e.agent, []).append((e.kind, e.req, e.payload))
    return out


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", ("w_rr", "r_w_r", "ww_r"))
def test_equal_search_keys_mean_equal_agent_histories(name, model):
    """Walk every reachable state, every enabled move expanded, and compare
    the histories of each state reached again under a key seen before.
    ``state_key`` alone merges states whose reads were answered differently."""
    root = Simulation(CORPUS[name].with_policies(ONE, ONE), model)
    by_search_key = {root.search_key(): histories(root)}
    by_state_key = {root.state_key(): histories(root)}
    stack = [root]
    merged = split = 0
    while stack:
        sim = stack.pop()
        for move in sim.enumerate_moves(with_selections=True):
            child = sim.clone()
            child.apply_round([move])
            history = histories(child)
            split += by_state_key.setdefault(child.state_key(), history) != history
            key = child.search_key()
            if key in by_search_key:
                assert by_search_key[key] == history, key
                merged += 1
            else:
                by_search_key[key] = history
                stack.append(child)
    assert merged > 0
    assert split > 0 or model == "cm0"
