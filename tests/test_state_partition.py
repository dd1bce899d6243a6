"""Pin the partition of simulation states that ``state_key`` induces.

Each case walks every reachable state with every enabled move expanded (no
eager-move reduction), de-duplicates on ``state_key()`` with the round,
and stops at ``clients_done``.  It counts the distinct keys with and
without the round.
A key that merges two states, or splits one, changes a count.
"""

import pytest

from replisim import ALL, Simulation, load_scenario
from replisim.policies import local_one

from corpus import build


def walk(scenario, model):
    """The reachable states' keys mapped to the rounds at which each was
    reached, and the set of (round, key) pairs."""
    root = Simulation(scenario, model)
    keys = {(root.round, root.state_key())}
    rounds: dict = {}
    stack = [root]
    while stack:
        sim = stack.pop()
        rounds.setdefault(sim.state_key(), set()).add(sim.round)
        if sim.clients_done():
            continue
        for move in sim.enumerate_moves(with_selections=True):
            child = sim.clone()
            child.apply_round([move])
            key = child.round, child.state_key()
            if key not in keys:
                keys.add(key)
                stack.append(child)
    return rounds, keys


@pytest.mark.parametrize("model, expected", (("cm0", 78), ("cm1", 78), ("cm2", 6_338)))
def test_counterexample_state_counts(model, expected):
    rounds, keys = walk(load_scenario("counterexample"), model)
    assert (len(rounds), len(keys)) == (expected, expected)


def test_round_is_not_a_function_of_the_state_under_local_one():
    # The delegate needs d1's answer.  If it hears from d1 first, d2's
    # partial answer is dropped at the dead delegate (one round); otherwise
    # it is collected first (two rounds).  The states after the answer are
    # the same either way, one round apart.
    scenario = build("one_read", [("a2", 2, "read x key=(0)")]).with_policies(local_one(1), ALL)
    rounds, keys = walk(scenario, "cm2")
    assert (len(rounds), len(keys)) == (21, 24)
    assert sorted(sorted(r) for r in rounds.values() if len(r) > 1) == [[8, 9], [9, 10], [10, 11]]
