"""Eager moves and the search key against the engine.

``search_schedules`` expands only the eager move ``_expansion`` picks
where a state has one, which is sound only if that move commutes with every
other move enabled beside it.  Each case walks up to ``STATES`` reachable
states breadth first, every enabled move expanded.  Where
``_expansion(sim, views=True)`` picks one ``deliver``, ``send`` or ``recv``
move, that move must stay enabled after every other enabled move, each of
those must stay enabled after it, and both orders must reach states with
equal ``search_key()``, and so equal ``state_key()``.

The search de-duplicates on ``search_key()``, which is sound for a predicate
that reads each agent's own history only if equal keys mean equal
per-agent histories (``Trace.histories()``).  That is checked over every
reachable state of a few corpus scenarios.
"""

import pytest

from replisim import ALL, ONE, Simulation
from replisim.policies import local_one
from replisim.sim import MODELS, _expansion

from corpus import SCENARIOS, walk

STATES = 200
CORPUS = {scenario.name: scenario for scenario in SCENARIOS}


def commuting_pairs(sim, children: list) -> int:
    """Check the eager move ``_expansion`` picks at ``sim``, if any, against
    every other enabled move; return how many others there were."""
    picked = _expansion(sim, views=True)
    if len(picked) != 1 or picked[0].tag not in ("deliver", "send", "recv"):
        return 0
    after = {move.desc: child for move, child in children}
    da = picked[0].desc
    after_a = after.pop(da)
    enabled_a = {m.desc: m for m in after_a.enumerate_moves(with_selections=True)}
    for db, after_b in after.items():
        enabled_b = {m.desc: m for m in after_b.enumerate_moves(with_selections=True)}
        assert db in enabled_a and da in enabled_b, (da, db)
        ab, ba = after_a.clone(), after_b.clone()
        ab.apply_round([enabled_a[db]])
        ba.apply_round([enabled_b[da]])
        assert ab.search_key() == ba.search_key(), (da, db)
    return len(after)


def checked_pairs(scenario, model) -> int:
    """Walk up to ``STATES`` distinct states breadth first and check the
    eager move against the other moves enabled in each."""
    pairs = 0
    for sim, children in walk(scenario, model, STATES):
        for move, _ in children:
            assert sim.resolve_descriptor(move.desc) == move
        pairs += commuting_pairs(sim, children)
    return pairs


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("policies", ((ONE, ONE), (ALL, ALL)), ids=("ONE-ONE", "ALL-ALL"))
def test_eager_moves_commute(model, policies):
    pairs = 0
    for base in SCENARIOS:
        scenario = base.with_policies(*policies)
        pairs += checked_pairs(scenario, model)
    assert pairs > 0


SEARCH_KEY_CASES = [
    *(pytest.param(name, (ONE, ONE), model, id=f"{name}-{model}")
      for model in MODELS for name in ("w_rr", "r_w_r", "ww_r")),
    pytest.param("w_rr", (local_one(1), ALL), "cm2", id="w_rr-LOCAL_ONE-ALL-cm2"),
]


@pytest.mark.parametrize("name, policies, model", SEARCH_KEY_CASES)
def test_equal_search_keys_mean_equal_agent_histories(name, policies, model):
    """Walk every reachable state, every enabled move expanded, and compare
    the histories of each state reached again under a key seen before.
    ``state_key`` alone merges states whose reads were answered differently.
    The key holds no round: under ``LOCAL_ONE`` some key is reached at two
    rounds, and elsewhere none is."""
    root = Simulation(CORPUS[name].with_policies(*policies), model)
    by_search_key = {root.search_key(): (root.trace().histories(), root.round)}
    by_state_key = {root.state_key(): root.trace().histories()}
    merged = split = two_rounds = 0
    for _, children in walk(root.scenario, model, key=Simulation.search_key):
        for _, child in children:
            history = child.trace().histories()
            key = child.search_key()  # (state_key(), answers)
            split += by_state_key.setdefault(key[0], history) != history
            merged += key in by_search_key
            first, first_round = by_search_key.setdefault(key, (history, child.round))
            assert first == history, key
            two_rounds += first_round != child.round
    assert merged > 0
    assert split > 0 or model == "cm0"
    assert (two_rounds > 0) == (policies[0] != ONE)
