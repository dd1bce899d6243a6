"""What a walk pays per state: ``_expansion``, the cached ``state_key``
and the values it is built from.

``_expansion`` reads candidate moves from the ``deliver``, ``send`` and
``recv`` groups alone, builds only the move it picks, and the full move
list only where none of them is eager; under either rule it must still
pick exactly what the plain rule picks, and at one ``intro`` state the two
rules must differ as the view rule says.  A ``Simulation`` caches the
components of its ``state_key()`` until a round changes them; the key must
still equal one built from scratch, whatever path led to the state.  A
``Message`` caches its hash and a ``DelegateState`` its key part; both must
equal what their fields give.  ``enumerate_traces`` shares one
``TraceEvent`` per position and event among its traces.
"""

import copy
import dataclasses
import pickle

import pytest

from replisim import (ALL, ONE, ExplicitSchedule, SeededSchedule, Simulation, enumerate_traces,
                      load_scenario)
from replisim.core import Timestamp
from replisim.messages import FWD, REQ_WRITE, REQUEST_KINDS, Message
from replisim.policies import local_one
from replisim.sim import MODELS, _expansion, _search_priority
from replisim.trace import PRINT

from corpus import SCENARIOS, walk

STATES = 100


def reference_expansion(sim, views: bool) -> list:
    """The plain rule: every enabled move in ``_search_priority`` order, then
    the first eager one alone, or else the whole list.  Under the view rule
    every ``deliver``, ``send`` and ``recv`` is eager, under the trace rule
    only one that emits no event."""
    moves = sorted(sim.enumerate_moves(with_selections=True), key=lambda m: _search_priority(m.desc, m.msg))
    eager = (m for m in moves
             if m.tag in ("deliver", "send", "recv") and (views or sim._event(m, ()) is None))
    return next(([move] for move in eager), moves)


def scratch_key(sim) -> tuple:
    """``sim.state_key()`` with every component built afresh."""
    fresh = sim.clone()
    fresh._key = [None] * len(fresh._key)
    return fresh.state_key()


def messages_by_ident(sim) -> tuple:
    """The in-flight and the mailbox messages, each sorted by ident."""
    boxes = (sim.inflight.items(), (i for box in sim.mailbox.values() for i in box.items()))
    return tuple(tuple(m for _, m in sorted(items, key=lambda i: i[0])) for items in boxes)


@pytest.mark.parametrize("model", MODELS)
def test_expansion_picks_what_the_plain_rule_picks(model):
    for policies in ((ONE, ALL), (ONE, ONE), (ALL, ALL), (local_one(1), ALL)):
        eager = full = 0
        for base in SCENARIOS:
            for sim, children in walk(base.with_policies(*policies), model, STATES):
                expected = reference_expansion(sim, views=False)
                assert _expansion(sim, views=False) == expected, (base.name, policies, sim.executed)
                assert _expansion(sim, views=True) == reference_expansion(sim, views=True), sim.executed
                for move, _ in children:  # the rule: a request's delivery or a printing recv
                    emits = (move.tag == "deliver" and move.msg.kind in REQUEST_KINDS
                             or move.tag == "recv"
                             and sim._printing_step(move.agent, move.msg.req) is not None)
                    assert (sim._event(move, ()) is not None) == emits, move.desc
                eager += len(expected) < len(children)
                full += len(expected) == len(children) > 1
        assert eager > 0 and full > 0, policies


def test_the_view_rule_makes_request_deliveries_and_printing_recvs_eager():
    sim = Simulation(load_scenario("intro"), "cm0")

    def take(tag: str, name: str) -> None:  # name: a send's agent, else the message's request
        moves = sim.enumerate_moves(True)
        [move] = [m for m in moves if m.tag == tag and (m.msg.req if m.msg else m.agent) == name]
        sim.apply_round([move])

    for a in ("a1", "a2", "a3", "a4"):
        take("send", a)
    deliveries = sorted(sim.enumerate_moves(True), key=lambda m: _search_priority(m.desc, m.msg))
    assert [m.tag for m in deliveries] == ["deliver"] * 4
    assert _expansion(sim, views=True) == [m for m in deliveries if m.msg.req == "a1#0"]
    assert _expansion(sim, views=False) == deliveries
    for a in ("a1", "a2", "a3", "a4"):
        take("deliver", f"{a}#0")
    take("db", "a3#0")
    take("deliver", "a3#0")  # a3's answer, which its recv prints
    [recv] = [m for m in sim.enumerate_moves(True) if m.tag == "recv"]
    assert sim._event(recv, ()).kind == PRINT
    assert _expansion(sim, views=True) == [recv]
    assert len(_expansion(sim, views=False)) == len(sim.enumerate_moves(True)) == 4


@pytest.mark.parametrize("model", MODELS)
def test_cached_key_equals_a_key_built_from_scratch(model):
    shared = 0
    for base in SCENARIOS:
        for sim, children in walk(base.with_policies(ONE, ALL), model, STATES):
            parent = sim.state_key()
            assert parent == scratch_key(sim)
            assert parent[5:7] == messages_by_ident(sim)
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


def _fields(m: Message) -> tuple:
    return m.kind, m.req, m.sender, m.receiver, m.payload


def test_message_hash_is_the_hash_of_its_fields():
    messages = 0
    for base in SCENARIOS[:6]:
        for model in MODELS:
            for sim, _ in walk(base.with_policies(ONE, ALL), model, STATES):
                boxes = [sim.inflight] + list(sim.mailbox.values())
                for m in (m for box in boxes for m in box.values()):
                    assert hash(m) == hash(_fields(m)) and hash(m) == hash(m), m
                    messages += 1
    assert messages > 0
    m = Message("answer", "a1#0", "d1", "a1", ("x", frozenset({((0,), (1,))})))
    hashed = Message(*_fields(m))
    hash(hashed)
    assert repr(m) == ("Message(kind='answer', req='a1#0', sender='d1', receiver='a1', "
                       "payload=('x', frozenset({((0,), (1,))})))")
    assert repr(hashed) == repr(m) and hashed == m and m == hashed
    assert m != dataclasses.replace(m, receiver="a2") and m != ("answer", "a1#0", "d1", "a1", m.payload)


def test_a_replaced_or_copied_message_hashes_its_own_fields():
    write = ("x", (((0,), (1,)),))
    fwd = Message(FWD, "a1#0", "d1", "d2", (REQ_WRITE,) + write + (Timestamp(2, 1, 1),))
    for m in (Message("req_write", "a1#0", "a1", "d1", write), fwd):
        hash(m)
        for changed in (dataclasses.replace(m, req="a1#1"), dataclasses.replace(m, payload=("y", ())),
                        dataclasses.replace(m)):
            assert hash(changed) == hash(_fields(changed))
        fresh = Message(*_fields(m))  # its hash not yet asked for
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m)), copy.copy(fresh),
                     pickle.loads(pickle.dumps(fresh))):
            assert twin == m and hash(twin) == hash(_fields(m))


def test_delegate_key_part_equals_one_built_from_scratch():
    # under ALL reads a live read delegate holds the partial answers it has
    # collected, so the answer part is not always empty
    delegates = answered = 0
    for base in SCENARIOS:
        for sim, children in walk(base.with_policies(ALL, ALL), "cm2", STATES):
            for state in [sim] + [child for _, child in children]:
                for gid, d in state.delegates.items():
                    scratch = (gid, tuple(d.counts.by_fragment_dc.values()), frozenset(d.answer.items()))
                    assert d.key_part == scratch and d.key_part is d.key_part
                    delegates += 1
                    answered += bool(d.answer)
    assert delegates > answered > 0


@pytest.mark.parametrize("model", MODELS)
def test_enumerated_traces_share_one_event_per_position(model):
    traces = enumerate_traces(load_scenario("counterexample").with_policies(ONE, ONE), model)
    shared: dict = {}
    events = 0
    for trace in traces:
        for e in trace.events:
            assert shared.setdefault((e.idx, e.kind, e.agent, e.req, e.payload), e) is e
            events += 1
    assert len(traces) > 1 and len(shared) < events
