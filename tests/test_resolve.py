"""Explicit schedules name exactly the enabled moves.

``Simulation.resolve_descriptor`` turns a named move back into a move.  It
must accept exactly what ``enumerate_moves`` lists, so that a schedule that
replays names only moves a seeded run or a search could have taken.  Each
case walks up to ``STATES`` reachable states breadth first, every enabled
move expanded, and checks every descriptor seen anywhere in the walk
against each state.
"""

from itertools import combinations

import pytest

from replisim import ALL, ONE, ScheduleError
from replisim.sim import MODELS

from corpus import SCENARIOS, walk

STATES = 100


def refused(sim, desc) -> None:
    with pytest.raises(ScheduleError):
        sim.resolve_descriptor(desc)


def check_cm1_groups(sim, move) -> int:
    """Every fragment group that is not a compliant selection, a non-copy
    node included, is refused; return how many were tried."""
    tried = 0
    compliant = dict(sim._fragment_options(move.msg))
    for pos, (j, _) in enumerate(move.desc[3]):
        candidates = sim.cfg.candidates(move.msg.payload[0], j)
        groups = [g for n in range(len(candidates) + 1) for g in combinations(candidates, n)]
        groups.append(compliant[j][0] + ((99, 1),))
        for group in groups:
            if group in compliant[j]:
                continue
            sel = list(move.desc[3])
            sel[pos] = (j, group)
            refused(sim, move.desc[:3] + (tuple(sel),))
            tried += 1
    return tried


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("policies", ((ONE, ALL), (ALL, ONE)), ids=("ONE-ALL", "ALL-ONE"))
def test_descriptors_resolve_to_exactly_the_enabled_moves(model, policies):
    resolved = not_enabled = bad_groups = 0
    for base in SCENARIOS:
        states = list(walk(base.with_policies(*policies), model, STATES))
        named = {move.desc for _, children in states for move, _ in children}
        for sim, children in states:
            # with selections, cm1 lists every compliant group of every fragment
            enabled = {move.desc: move for move, _ in children}
            for desc, move in enabled.items():
                assert sim.resolve_descriptor(desc) == move
                resolved += 1
                if model == "cm1" and move.tag == "dc":
                    bad_groups += check_cm1_groups(sim, move)
                    refused(sim, desc[:3] + (None,))
                elif move.tag == "dc":
                    refused(sim, desc[:3] + (((1, ((1, 1),)),),))
            for desc in named - enabled.keys():
                refused(sim, desc)
                not_enabled += 1
    assert resolved > 0 and not_enabled > 0
    assert bad_groups > 0 or model != "cm1"
