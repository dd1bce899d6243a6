"""What a walk pays per state: ``_expansion`` and the cached ``state_key``.

``_expansion`` builds candidate moves from the ``deliver``, ``send`` and
``recv`` groups alone, and the full move list only where none of them is
eager; it must still pick exactly what the plain rule picks.  A
``Simulation`` caches the components of its ``state_key()`` until a round
changes them; the key must still equal one built from scratch, whatever
path led to the state.
"""

import pytest

from replisim import ALL, ONE, ExplicitSchedule, SeededSchedule, Simulation, load_scenario
from replisim.messages import REQUEST_KINDS
from replisim.sim import MODELS, _expansion, _search_priority

from corpus import SCENARIOS, walk

STATES = 100


def reference_expansion(sim) -> list:
    """The plain rule: every enabled move in ``_search_priority`` order, then
    the first eager one alone, or else the whole list."""
    moves = sorted(sim.enumerate_moves(with_selections=True), key=_search_priority)
    eager = (m for m in moves if m.tag in ("deliver", "send", "recv") and sim._event(m, ()) is None)
    return next(([move] for move in eager), moves)


def scratch_key(sim) -> tuple:
    """``sim.state_key()`` with every component built afresh."""
    fresh = sim.clone()
    fresh._key = [None] * len(fresh._key)
    return fresh.state_key()


@pytest.mark.parametrize("model", MODELS)
def test_expansion_picks_what_the_plain_rule_picks(model):
    eager = full = 0
    for base in SCENARIOS:
        for sim, children in walk(base.with_policies(ONE, ALL), model, STATES):
            expected = reference_expansion(sim)
            assert _expansion(sim) == expected, (base.name, sim.executed)
            for move, _ in children:  # the rule: a request's delivery or a printing recv
                emits = (move.tag == "deliver" and move.msg.kind in REQUEST_KINDS
                         or move.tag == "recv" and sim._printing_step(move) is not None)
                assert (sim._event(move, ()) is not None) == emits, move.desc
            eager += len(expected) < len(children)
            full += len(expected) == len(children) > 1
    assert eager > 0 and full > 0


@pytest.mark.parametrize("model", MODELS)
def test_cached_key_equals_a_key_built_from_scratch(model):
    shared = 0
    for base in SCENARIOS:
        for sim, children in walk(base.with_policies(ONE, ALL), model, STATES):
            parent = sim.state_key()
            assert parent == scratch_key(sim)
            for move, child in children:  # each child is a clone with one round applied
                assert child.state_key() == scratch_key(child), (base.name, move.desc)
                if move.tag in ("deliver", "send", "recv"):  # the store is untouched
                    assert child.state_key()[4] is parent[4]
                    shared += 1
    assert shared > 0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", range(4))
def test_cached_key_of_a_run_in_place(model, seed):
    # one state, its key asked for after every round, as the search and the
    # trace automaton ask it of a state's last child; under cm2 delegates
    # are deleted along the way
    sim = Simulation(load_scenario("counterexample"), model)
    deleted = 0
    for moves in SeededSchedule(seed).rounds(sim):
        sim.state_key()
        live = set(sim.delegates)
        sim.apply_round(moves)
        deleted += len(live - set(sim.delegates))
        assert sim.state_key() == scratch_key(sim), sim.executed
    assert sim.clients_done()
    assert deleted > 0 or model != "cm2"


@pytest.mark.parametrize("model", MODELS)
def test_cached_key_after_multi_move_rounds(model):
    # every round takes all enabled sends and deliveries together, or else
    # the first enabled move; the rounds then replay as an explicit schedule
    scenario = load_scenario("counterexample")
    builder, steps = Simulation(scenario, model), []
    while not builder.clients_done():
        moves = builder.enumerate_moves(with_selections=True)
        together = [m for m in moves if m.tag in ("send", "deliver")]
        step = together if len(together) > 1 else moves[:1]
        builder.apply_round(step)
        steps.append(tuple(m.desc for m in step))
    assert any(len(step) > 1 for step in steps)
    sim = Simulation(scenario, model)
    rounds = ExplicitSchedule(tuple(steps)).rounds(sim)
    for _ in steps:
        sim.state_key()
        sim.apply_round(next(rounds))
        assert sim.state_key() == scratch_key(sim), sim.executed
    assert sim.state_key() == builder.state_key()
