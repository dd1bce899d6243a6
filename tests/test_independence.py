"""The move independence relation against the engine.

``search_schedules`` skips a child that its sleep sets predict to be a
duplicate, which is sound only if any two moves that ``independent`` accepts
commute.  Each case walks up to ``STATES`` reachable states breadth first,
every enabled move expanded.  For every pair of moves enabled in one state
whose footprints are independent, each must stay enabled after the other,
and both orders must reach states with equal ``state_key()``.
"""

from collections import deque

import pytest

from replisim import ALL, ONE, Simulation, load_scenario
from replisim.scenario import bundled_scenarios
from replisim.sim import MODELS, footprint, independent

from corpus import generated_scenarios

STATES = 200
SCENARIOS = generated_scenarios() + [load_scenario(name) for name in bundled_scenarios()]


def successors(sim) -> list:
    """Each enabled move with the state it leads to and that state's
    enabled moves by descriptor."""
    out = []
    for move in sim.enumerate_moves(with_selections=True):
        assert sim.resolve_descriptor(move.descriptor()) == move
        child = sim.clone()
        child.apply_round([move])
        enabled = {m.descriptor(): m for m in child.enumerate_moves(with_selections=True)}
        out.append((move, child, enabled))
    return out


def commuting_pairs(succ: list) -> int:
    """Check every independent pair of moves among one state's successors;
    return how many there were."""
    pairs = 0
    for i, (a, after_a, enabled_a) in enumerate(succ):
        for b, after_b, enabled_b in succ[i + 1:]:
            if not independent(footprint(a), footprint(b)):
                continue
            pairs += 1
            da, db = a.descriptor(), b.descriptor()
            assert db in enabled_a and da in enabled_b, (da, db)
            ab, ba = after_a.clone(), after_b.clone()
            ab.apply_round([enabled_a[db]])
            ba.apply_round([enabled_b[da]])
            assert ab.state_key() == ba.state_key(), (da, db)
    return pairs


def checked_pairs(scenario, model) -> int:
    """Walk up to ``STATES`` distinct states breadth first and check the
    independent pairs enabled in each."""
    root = Simulation(scenario, model)
    seen = {root.state_key()}
    queue = deque([root])
    pairs = 0
    while queue:
        succ = successors(queue.popleft())
        pairs += commuting_pairs(succ)
        for _, child, _ in succ:
            if len(seen) < STATES and (key := child.state_key()) not in seen:
                seen.add(key)
                queue.append(child)
    return pairs


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("policies", ((ONE, ONE), (ALL, ALL)), ids=("ONE-ONE", "ALL-ALL"))
def test_independent_moves_commute(model, policies):
    pairs = 0
    for base in SCENARIOS:
        scenario = base.with_policies(*policies)
        pairs += checked_pairs(scenario, model)
    assert pairs > 0
