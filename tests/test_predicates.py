"""The bundled predicates and ``Trace.histories()`` on hand-built traces.

Each trace is built from the events of whole requests of the bundled
``intro`` scenario, whose relations x and y both start as (0) -> (0).  A read
is updated when it answers (0) -> (1) and initial when it answers
(0) -> (0).  The predicates read a trace only through its histories, so each
case also holds with the order of events across agents reversed.
"""

import pytest

from replisim import Condition, load_scenario
from replisim.predicates import anomaly_read_stale, print_pair
from replisim.trace import PRINT, REQ, RESP, Trace, TraceEvent

INTRO = load_scenario("intro")
UPDATED = frozenset({((0,), (1,))})
INITIAL = frozenset({((0,), (0,))})
KEY0 = Condition.key_eq((0,))


def read(agent, n, rid, rows, cond=KEY0, printed=True) -> list:
    """The events of ``agent``'s request number ``n``, a read of ``rid``:
    its REQ, its answer and, if printed, its PRINT."""
    req = f"{agent}#{n}"
    events = [(REQ, agent, req, ("read", rid, cond)), (RESP, agent, req, ("answer", rid, rows))]
    if printed:
        events.append((PRINT, agent, req, ("print", rid, rows)))
    return events


def write(agent, n, rid) -> list:
    req = f"{agent}#{n}"
    return [(REQ, agent, req, ("write", rid, (((0,), (1,)),))), (RESP, agent, req, ("ack", rid))]


def trace(*requests) -> Trace:
    """The requests' events one after another, at indices 1, 2, ..."""
    events = [event for request in requests for event in request]
    return Trace(tuple(TraceEvent(idx, *event) for idx, event in enumerate(events, start=1)))


def reversed_agents(t: Trace) -> Trace:
    """The same per-agent histories with the agents' events interleaved the
    other way round: agents in reverse name order, and fresh indices."""
    events = sorted(t.events, key=lambda e: e.agent, reverse=True)
    return Trace(tuple(TraceEvent(10 * idx, e.kind, e.agent, e.req, e.payload)
                       for idx, e in enumerate(events, start=1)))


def holds(predicate, t: Trace) -> bool:
    verdict = predicate(t, INTRO)
    assert predicate(reversed_agents(t), INTRO) == verdict
    return verdict


# ---------------------------------------------------------------------------
# print_pair
# ---------------------------------------------------------------------------


def test_two_agents_printing_inverted_views_are_a_print_pair():
    t = trace(read("a3", 0, "x", UPDATED), read("a4", 0, "y", UPDATED),
              read("a3", 1, "y", INITIAL), read("a4", 1, "x", INITIAL))
    assert holds(print_pair, t)


def test_one_relation_updated_then_initial_at_two_agents_is_no_print_pair():
    # Both agents saw x updated and then x initial again: a stale read, but
    # not two relations seen in inverted order.
    t = trace(read("a3", 0, "x", UPDATED), read("a3", 1, "x", INITIAL),
              read("a4", 0, "x", UPDATED), read("a4", 1, "x", INITIAL))
    assert not holds(print_pair, t)


def test_both_inverted_views_at_one_agent_are_no_print_pair():
    t = trace(read("a3", 0, "x", UPDATED), read("a3", 1, "y", INITIAL),
              read("a3", 2, "y", UPDATED), read("a3", 3, "x", INITIAL))
    assert not holds(print_pair, t)


def test_a_print_pair_needs_the_updated_print_first():
    t = trace(read("a3", 0, "y", INITIAL), read("a3", 1, "x", UPDATED),
              read("a4", 0, "x", INITIAL), read("a4", 1, "y", UPDATED))
    assert not holds(print_pair, t)


def test_a_print_pair_reads_only_printed_answers():
    t = trace(read("a3", 0, "x", UPDATED), read("a3", 1, "y", INITIAL, printed=False),
              read("a4", 0, "y", UPDATED), read("a4", 1, "x", INITIAL))
    assert not holds(print_pair, t)


def test_a_print_is_judged_against_its_own_requests_condition():
    # x has no record at key 1, so an empty answer there is x's initial one,
    # not an update.
    t = trace(read("a3", 0, "x", UPDATED), read("a3", 1, "y", INITIAL),
              read("a4", 0, "y", UPDATED), read("a4", 1, "x", frozenset(), cond=Condition.key_eq((1,))))
    assert holds(print_pair, t)


# ---------------------------------------------------------------------------
# anomaly_read_stale
# ---------------------------------------------------------------------------


def test_a_repeated_read_that_goes_back_to_the_initial_answer_is_stale():
    t = trace(write("a1", 0, "x"), read("a2", 0, "x", UPDATED, printed=False),
              read("a2", 1, "x", INITIAL, printed=False))
    assert holds(anomaly_read_stale, t)


def test_a_read_that_moves_forward_is_not_stale():
    t = trace(read("a2", 0, "x", INITIAL), read("a2", 1, "x", UPDATED))
    assert not holds(anomaly_read_stale, t)


def test_reads_under_two_conditions_are_not_a_repeated_read():
    # The second read scans all of x, whose initial answer at (0) it
    # returns; its condition differs from the first read's.
    t = trace(read("a2", 0, "x", UPDATED), read("a2", 1, "x", INITIAL, cond=Condition.true()))
    assert not holds(anomaly_read_stale, t)


def test_a_stale_read_compares_consecutive_reads_of_one_agent():
    between = trace(read("a2", 0, "x", UPDATED), read("a2", 1, "y", INITIAL),
                    read("a2", 2, "x", INITIAL))
    assert not holds(anomaly_read_stale, between)
    # a write's ack is no read, so it does not come between two reads
    acked = trace(read("a2", 0, "x", UPDATED), write("a2", 1, "y"), read("a2", 2, "x", INITIAL))
    assert holds(anomaly_read_stale, acked)
    two_agents = trace(read("a2", 0, "x", UPDATED), read("a3", 0, "x", INITIAL))
    assert not holds(anomaly_read_stale, two_agents)


# ---------------------------------------------------------------------------
# Trace.histories
# ---------------------------------------------------------------------------


def test_histories_leave_out_indices_and_the_order_across_agents():
    t = trace(read("a3", 0, "x", UPDATED), read("a4", 0, "y", UPDATED), read("a3", 1, "y", INITIAL))
    assert t.histories() == (
        ("a3", (
            (REQ, "a3#0", ("read", "x", KEY0)), (RESP, "a3#0", ("answer", "x", UPDATED)),
            (PRINT, "a3#0", ("print", "x", UPDATED)),
            (REQ, "a3#1", ("read", "y", KEY0)), (RESP, "a3#1", ("answer", "y", INITIAL)),
            (PRINT, "a3#1", ("print", "y", INITIAL)),
        )),
        ("a4", (
            (REQ, "a4#0", ("read", "y", KEY0)), (RESP, "a4#0", ("answer", "y", UPDATED)),
            (PRINT, "a4#0", ("print", "y", UPDATED)),
        )),
    )
    assert {t.histories(), reversed_agents(t).histories()} == {t.histories()}
    assert trace().histories() == ()


def test_histories_keep_each_agents_own_order_by_index():
    a, b, c = (TraceEvent(idx, REQ, "a1", f"a1#{n}", ("read", "x", KEY0))
               for n, idx in enumerate((5, 3, 3)))
    # index order first; the two events at index 3 keep their order in the trace
    assert Trace((a, b, c)).histories() == (("a1", tuple((e.kind, e.req, e.payload) for e in (b, c, a))),)
    assert Trace((a, c, b)).histories() == (("a1", tuple((e.kind, e.req, e.payload) for e in (c, b, a))),)
    swapped = trace(read("a3", 1, "y", INITIAL), read("a3", 0, "x", UPDATED))
    assert swapped.histories() != trace(read("a3", 0, "x", UPDATED), read("a3", 1, "y", INITIAL)).histories()


@pytest.mark.parametrize("predicate", (anomaly_read_stale, print_pair))
def test_a_trace_with_no_events_satisfies_no_predicate(predicate):
    assert not predicate(trace(), INTRO)
