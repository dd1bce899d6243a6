import itertools
import random

import pytest
from hypothesis import given, strategies as st

from replisim import (
    SeededSchedule,
    check_view_compatible,
    check_view_serialisable,
    is_serial,
    load_scenario,
    run,
    search_schedules,
    view_equivalent,
)
from replisim import consistency
from replisim.cm0 import Condition, db_answer_read, db_perform_write
from replisim.consistency import IncompleteTraceError, _read_memo, _replay_writes, _request_infos, _search
from replisim.core import UNDEF, ConfigError, FlatStore
from replisim.predicates import anomaly_read_stale
from replisim.trace import Trace, TraceEvent

from corpus import build


def ev(idx, kind, agent, req, payload):
    return TraceEvent(idx, kind, agent, req, payload)


def read_payload(rid="x", key=(0,)):
    return ("read", rid, Condition.key_eq(key))


def answer_payload(rows, rid="x"):
    return ("answer", rid, frozenset(rows))


def simple_scenario():
    return build("simple", [("a1", 1, "read x key=(0)")])


# ---------------------------------------------------------------------------
# is_serial
# ---------------------------------------------------------------------------


def test_single_request_trace_is_serial():
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", read_payload()),
            ev(2, "RESP", "a1", "a1#0", answer_payload([((0,), (0,))])),
        )
    )
    assert is_serial(t)


def test_interleaved_windows_are_not_serial():
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", read_payload()),
            ev(2, "REQ", "a2", "a2#0", read_payload()),
            ev(3, "RESP", "a1", "a1#0", answer_payload([])),
            ev(4, "RESP", "a2", "a2#0", answer_payload([])),
        )
    )
    assert not is_serial(t)


def test_simultaneous_requests_with_simultaneous_answers_are_serial():
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", read_payload()),
            ev(1, "REQ", "a2", "a2#0", read_payload()),
            ev(2, "RESP", "a1", "a1#0", answer_payload([])),
            ev(2, "RESP", "a2", "a2#0", answer_payload([])),
        )
    )
    assert is_serial(t)


def test_simultaneous_requests_with_split_answers_are_not_serial():
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", read_payload()),
            ev(1, "REQ", "a2", "a2#0", read_payload()),
            ev(2, "RESP", "a1", "a1#0", answer_payload([])),
            ev(3, "RESP", "a2", "a2#0", answer_payload([])),
        )
    )
    assert not is_serial(t)


@pytest.mark.parametrize("second", [1, 2])
def test_is_serial_judges_one_agents_overlapping_requests(second):
    # The checkers refuse an agent with two requests open at once;
    # is_serial judges such a trace by its windows alone.
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", read_payload()),
            ev(second, "REQ", "a1", "a1#1", read_payload()),
            ev(3, "RESP", "a1", "a1#0", answer_payload([])),
            ev(3, "RESP", "a1", "a1#1", answer_payload([])),
        )
    )
    assert is_serial(t) == (second == 1)


def test_seeded_cm0_single_client_runs_are_serial():
    s = build("serial", [("a1", 1, "read x key=(0); write x {(0) -> (1)}")])
    r = run(s, "cm0", SeededSchedule(3))
    assert is_serial(r.trace)


# ---------------------------------------------------------------------------
# view equivalence
# ---------------------------------------------------------------------------


def test_view_equivalent_reflexive():
    s = load_scenario("intro")
    t = run(s, "cm2", SeededSchedule(2)).trace
    assert view_equivalent(t, t)


def test_view_equivalent_ignores_cross_agent_interleaving():
    e1 = ev(1, "REQ", "a1", "a1#0", read_payload())
    e2 = ev(2, "RESP", "a1", "a1#0", answer_payload([]))
    e3 = ev(3, "REQ", "a2", "a2#0", read_payload())
    e4 = ev(4, "RESP", "a2", "a2#0", answer_payload([]))
    t1 = Trace((e1, e2, e3, e4))
    t2 = Trace(
        (
            ev(1, "REQ", "a2", "a2#0", read_payload()),
            ev(2, "RESP", "a2", "a2#0", answer_payload([])),
            ev(3, "REQ", "a1", "a1#0", read_payload()),
            ev(4, "RESP", "a1", "a1#0", answer_payload([])),
        )
    )
    assert view_equivalent(t1, t2)


def test_view_equivalent_detects_answer_difference():
    t1 = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", read_payload()),
            ev(2, "RESP", "a1", "a1#0", answer_payload([((0,), (1,))])),
        )
    )
    t2 = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", read_payload()),
            ev(2, "RESP", "a1", "a1#0", answer_payload([((0,), (2,))])),
        )
    )
    assert not view_equivalent(t1, t2)


def test_view_equivalent_leaves_out_prints_and_refuses_simultaneous_events():
    req = ev(1, "REQ", "a1", "a1#0", read_payload())
    resp = ev(2, "RESP", "a1", "a1#0", answer_payload([]))
    printed = ev(3, "PRINT", "a1", "a1#0", ("print", "x", frozenset()))
    assert view_equivalent(Trace((req, resp)), Trace((req, resp, printed)))
    with pytest.raises(IncompleteTraceError, match="agent a1 has simultaneous events of its own"):
        view_equivalent(Trace((req, resp._replace(idx=1))), Trace((req, resp)))


# ---------------------------------------------------------------------------
# view compatibility
# ---------------------------------------------------------------------------


def test_cm0_traces_are_compatible():
    s = load_scenario("intro")
    for seed in range(5):
        t = run(s, "cm0", SeededSchedule(seed)).trace
        v = check_view_compatible(t, s)
        assert v.kind == "COMPATIBLE"


def test_compatibility_witness_replays_exactly():
    s = load_scenario("intro")
    t = run(s, "cm0", SeededSchedule(1)).trace
    v = check_view_compatible(t, s)
    assert v.kind == "COMPATIBLE"
    _assert_witness_replays(v, t, s)


@pytest.mark.parametrize("first", [0, -5])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])  # two compatible intro cm1 runs, two not
def test_compatibility_does_not_depend_on_where_indices_start(seed, first):
    s = load_scenario("intro")
    t = run(s, "cm1", SeededSchedule(seed)).trace
    shift = first - t.events[0].idx
    shifted = Trace(tuple(e._replace(idx=e.idx + shift) for e in t.events))
    v, w = check_view_compatible(t, s), check_view_compatible(shifted, s)
    assert (w.kind, w.exhaustive, w.replays, w.waived) == (v.kind, v.exhaustive, v.replays, v.waived)
    assert w.witness == tuple((point + shift, reqs) for point, reqs in v.witness)


def test_counterexample_trace_incompatible_and_not_serialisable():
    s = load_scenario("counterexample")
    res = search_schedules(s, "cm2", anomaly_read_stale)
    assert res.witness is not None
    v1 = check_view_compatible(res.trace, s)
    v2 = check_view_serialisable(res.trace, s)
    assert (v1.kind, v1.exhaustive) == ("INCOMPATIBLE", True)
    assert (v2.kind, v2.exhaustive) == ("NOT_SERIALISABLE", True)


def test_not_serialisable_matches_hand_enumeration():
    # One write W(x:=1) and two reads by one agent returning 1 then 0.
    # Orders preserving the reader's sequence: (W r1 r2) -> 1,1;
    # (r1 W r2) -> 0,1; (r1 r2 W) -> 0,0.  None reproduces (1,0).
    s = load_scenario("counterexample")
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", ("write", "x", (((0,), (1,)),))),
            ev(2, "REQ", "a2", "a2#0", read_payload()),
            ev(3, "RESP", "a2", "a2#0", answer_payload([((0,), (1,))])),
            ev(4, "REQ", "a2", "a2#1", read_payload()),
            ev(5, "RESP", "a2", "a2#1", answer_payload([((0,), (0,))])),
            ev(6, "RESP", "a1", "a1#0", ("ack", "x")),
        )
    )
    v = check_view_serialisable(t, s)
    assert (v.kind, v.exhaustive) == ("NOT_SERIALISABLE", True)


@pytest.mark.parametrize("reqs", [("p", "q"), ("a1#0", "a1#1")], ids=["free-ids", "agent-ids"])
def test_serial_orders_keep_each_agents_order_whatever_its_request_ids(reqs):
    # a1 writes 1 and then reads the stale 0: no serial order that keeps
    # a1's own order reproduces that.  The agent is the events' agent=, not
    # the text of req= before '#'.
    w, r = reqs
    s = load_scenario("counterexample")
    t = Trace(
        (
            ev(1, "REQ", "a1", w, ("write", "x", (((0,), (1,)),))),
            ev(2, "RESP", "a1", w, ("ack", "x")),
            ev(3, "REQ", "a1", r, read_payload()),
            ev(4, "RESP", "a1", r, answer_payload([((0,), (0,))])),
        )
    )
    v = check_view_serialisable(t, s)
    assert (v.kind, v.exhaustive) == ("NOT_SERIALISABLE", True)


def test_a_response_to_another_agent_is_refused():
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", read_payload()),
            ev(2, "RESP", "a2", "a1#0", answer_payload([((0,), (0,))])),
        )
    )
    with pytest.raises(IncompleteTraceError, match="request a1#0 of a1 is answered to a2"):
        _request_infos(t)


def test_request_records_are_equal_only_to_themselves():
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", read_payload()),
            ev(2, "RESP", "a1", "a1#0", answer_payload([((0,), (0,))])),
        )
    )
    (first,), (second,) = _request_infos(t), _request_infos(t)
    assert first == first and first != second and hash(first) != hash(second)
    assert {first: 1}.get(second) is None


def test_serial_trace_is_its_own_witness():
    s = load_scenario("counterexample")
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", ("write", "x", (((0,), (1,)),))),
            ev(2, "RESP", "a1", "a1#0", ("ack", "x")),
            ev(3, "REQ", "a2", "a2#0", read_payload()),
            ev(4, "RESP", "a2", "a2#0", answer_payload([((0,), (1,))])),
        )
    )
    assert is_serial(t)
    v = check_view_serialisable(t, s)
    assert v.kind == "SERIALISABLE" and v.witness == ("a1#0", "a2#0")


def test_budget_exhaustion_is_reported_not_final():
    # a2 reads (0) as absent, but (0) holds 0 and nothing deletes it, so no
    # placement reproduces that.  The answer holds no row, so no value is
    # lost on the way, and a1's unread writes may each be waived: the
    # search enters 6 states before it decides.
    t = _in_turn(_write("a1", 0, 1), _write("a1", 0, 2), ("a2", read_payload(), answer_payload([])))
    v = check_view_compatible(t, LOST_VALUE_SCENARIO, budget=2)
    assert v.kind == "INCOMPATIBLE" and not v.exhaustive


def test_incomplete_trace_rejected():
    t = Trace((ev(1, "REQ", "a1", "a1#0", read_payload()),))
    with pytest.raises(IncompleteTraceError):
        check_view_compatible(t, simple_scenario())


WRITE_X = ("write", "x", (((0,), (1,)),))


@pytest.mark.parametrize(
    "events, message",
    [
        (
            (ev(1, "REQ", "a1", "a1#0", read_payload()),
             ev(2, "RESP", "a1", "a1#0", answer_payload([((0,), (0,))])),
             ev(3, "REQ", "a1", "a1#0", read_payload())),
            "two REQ events",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", read_payload()),
             ev(2, "RESP", "a1", "a1#0", answer_payload([((0,), (0,))])),
             ev(3, "RESP", "a1", "a1#0", answer_payload([((0,), (0,))]))),
            "two RESP events",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", WRITE_X), ev(2, "RESP", "a1", "a1#0", answer_payload([]))),
            "answered by answer, not ack",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", read_payload()), ev(2, "RESP", "a1", "a1#0", ("ack", "x"))),
            "answered by ack, not answer",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", read_payload()),
             ev(2, "RESP", "a1", "a1#0", answer_payload([((0,), (0,))], rid="y"))),
            "on x is answered on y",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", WRITE_X), ev(2, "RESP", "a1", "a1#0", ("ack", "y"))),
            "on x is answered on y",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", WRITE_X), ev(2, "RESP", "a1", "a1#0", ("ack",))),
            "answered by an ack of 1 fields",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", read_payload()), ev(2, "RESP", "a1", "a1#0", ("answer", "x"))),
            "answered by an answer of 2 fields",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", read_payload()), ev(2, "RESP", "a1", "a1#0", ())),
            "answered by nothing, not answer",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", read_payload()), ev(2, "RESP", "a1", "a1#0", ("answer", "x", 5))),
            r"answered by other than a set of \(key, value\) rows",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", read_payload()),
             ev(2, "RESP", "a1", "a1#0", answer_payload([((0,), (0,), (1,))]))),
            r"answered by other than a set of \(key, value\) rows",
        ),
        (
            (ev(1, "REQ", "a1", "a1#0", read_payload()),
             ev(2, "REQ", "a1", "a1#1", WRITE_X),
             ev(3, "RESP", "a1", "a1#0", answer_payload([((0,), (0,))])),
             ev(4, "RESP", "a1", "a1#1", ("ack", "x"))),
            "agent a1 has requests a1#0 and a1#1 open at once",
        ),
    ],
    ids=["two-reqs", "two-resps", "write-answered", "read-acked", "read-other-relation",
         "write-other-relation", "short-ack", "short-answer", "empty-answer", "answer-not-a-set",
         "answer-row-not-a-pair", "two-open-requests"],
)
@pytest.mark.parametrize("checker", [check_view_compatible, check_view_serialisable])
def test_inconsistent_trace_rejected(events, message, checker):
    s = build("two_rel", [("a1", 1, "read x key=(0)")], relations=("x", "y"))
    with pytest.raises(IncompleteTraceError, match=message):
        checker(Trace(events), s)


def test_invalid_request_rejected_before_any_replay():
    # The bad request comes last in every order, so a budget of one node
    # stops any search before a replay could reach it.
    s = simple_scenario()
    ok = (ev(1, "REQ", "a1", "a1#0", read_payload()),
          ev(2, "RESP", "a1", "a1#0", answer_payload([((0,), (0,))])))
    bad_read = (ev(3, "REQ", "a1", "a1#1", read_payload(key=(0, 0))),
                ev(4, "RESP", "a1", "a1#1", answer_payload([])))
    bad_write = (ev(3, "REQ", "a1", "a1#1", ("write", "x", (((0,), (1, 2)),))),
                 ev(4, "RESP", "a1", "a1#1", ("ack", "x")))
    for bad, message in ((bad_read, "arity"), (bad_write, "co-arity")):
        for checker in (check_view_compatible, check_view_serialisable):
            for budget in (0, 1):
                with pytest.raises(ConfigError, match=message):
                    checker(Trace(ok + bad), s, budget=budget)


# ---------------------------------------------------------------------------
# compiled replay against the oracle
# ---------------------------------------------------------------------------


ORACLE_SCENARIO = build("oracle", [("a1", 1, "read x true")], relations=("x", "y"), fragments=2)
KEYS = st.tuples(st.integers(0, 5))
VALUES = st.tuples(st.integers(0, 3))
RIDS = st.sampled_from(["x", "y"])
CONDITIONS = st.one_of(
    st.just(Condition.true()),
    st.builds(Condition.key_eq, KEYS),
    st.builds(Condition.key_in, st.frozensets(KEYS, max_size=4)),
    st.builds(Condition.hash_range, st.integers(1, 2)),
)
STORES = st.dictionaries(st.tuples(RIDS, KEYS), VALUES, max_size=10)


def _flat(data):
    flat = FlatStore()
    for (rid, k), v in data.items():
        flat.set(rid, k, v)
    return flat


def _compile(payloads):
    """The checker's records of requests issued and answered in turn."""
    events = []
    for n, payload in enumerate(payloads):
        resp = ("answer", payload[1], frozenset()) if payload[0] == "read" else ("ack", payload[1])
        events += [ev(2 * n + 1, "REQ", "a1", f"a1#{n}", payload),
                   ev(2 * n + 2, "RESP", "a1", f"a1#{n}", resp)]
    return _request_infos(Trace(tuple(events)), ORACLE_SCENARIO.cfg)


@given(data=STORES, rid=RIDS, cond=CONDITIONS)
def test_read_lookups_answer_as_a_scan(data, rid, cond):
    cfg = ORACLE_SCENARIO.cfg
    flat = _flat(data)
    (info,) = _compile([("read", rid, cond)])
    want = db_answer_read(flat, cfg, rid, cond)
    scanned = frozenset((k, v) for (r, k), v in data.items() if r == rid and cond.matches(k, cfg, rid))
    assert want == scanned
    assert _read_memo(cfg)(info._replace(answer=want), flat, flat.state_key())
    assert not _read_memo(cfg)(info._replace(answer=want | {((9,), (9,))}), flat, flat.state_key())
    assert flat.data == data


WRITE_SETS = st.tuples(RIDS, st.dictionaries(KEYS, st.one_of(st.just(UNDEF), VALUES), max_size=3))


@given(data=STORES, writes=st.lists(WRITE_SETS, min_size=1, max_size=3), waive=st.data())
def test_compiled_write_batch_applies_as_the_oracle(data, writes, waive):
    cfg = ORACLE_SCENARIO.cfg
    flat = _flat(data)
    infos = _compile([("write", rid, tuple(p.items())) for rid, p in writes])
    pairs = [(info.req, k) for info, (_, p) in zip(infos, writes) for k in p]
    skipped = frozenset(waive.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    # The oracle: each request's unwaived pairs through db_perform_write; two
    # pairs writing different values to one location reject the batch.
    want = flat.clone()
    written = {}
    for info, (rid, p) in zip(infos, writes):
        kept = {k: v for k, v in p.items() if (info.req, k) not in skipped}
        for k, v in kept.items():
            written.setdefault((rid, k), set()).add(v)
        db_perform_write(want, cfg, rid, kept)
    conflict = any(len(values) > 1 for values in written.values())
    got = _replay_writes(flat, infos, skipped)
    assert flat.data == data
    if conflict:
        assert got is None
    elif not written:
        assert got is flat
    else:
        assert got is not flat and got.data == want.data
        assert got.state_key() == want.state_key()


def test_unread_write_waiver_can_outrun_serialisability():
    # Boundary of the two notions under an inappropriate policy pair: one
    # agent writes key (0) then key (1); a reader sees only the second
    # write's effect.  Compatibility holds because the first write's value
    # is never read (its effect is waived), but no single-copy serial order
    # respecting the writer's sequence reproduces the answer: orders
    # (W1 W2 R), (W1 R W2), (R W1 W2) yield key (0) values 1, 1, 0 with key
    # (1) values 2, 0, 0; the recorded answer pairs 0 with 2.
    s = build(
        "waiver_boundary",
        [("a1", 1, "write x {(0) -> (1)}; write x {(1) -> (2)}"), ("a2", 2, "read x true")],
        init=("x", "(0) -> (0), (1) -> (0)"),
        read="ONE",
        write="ONE",
    )
    t = Trace(
        (
            ev(1, "REQ", "a1", "a1#0", ("write", "x", (((0,), (1,)),))),
            ev(2, "RESP", "a1", "a1#0", ("ack", "x")),
            ev(3, "REQ", "a1", "a1#1", ("write", "x", (((1,), (2,)),))),
            ev(4, "RESP", "a1", "a1#1", ("ack", "x")),
            ev(5, "REQ", "a2", "a2#0", ("read", "x", Condition.true())),
            ev(6, "RESP", "a2", "a2#0", answer_payload([((0,), (0,)), ((1,), (2,))])),
        )
    )
    vc = check_view_compatible(t, s)
    vs = check_view_serialisable(t, s)
    assert vc.kind == "COMPATIBLE" and ("a1#0", (0,)) in vc.waived
    assert (vs.kind, vs.exhaustive) == ("NOT_SERIALISABLE", True)


def test_compatible_implies_serialisable_on_samples():
    for name in ("intro", "counterexample", "anomaly_one_one"):
        s = load_scenario(name)
        for model in ("cm0", "cm1", "cm2"):
            for seed in range(4):
                t = run(s, model, SeededSchedule(seed)).trace
                if check_view_compatible(t, s).kind == "COMPATIBLE":
                    assert check_view_serialisable(t, s).kind == "SERIALISABLE"


def test_quorum_pair_on_three_replicas_is_compatible():
    # Overlapping quorums on a single data centre with three copies: every
    # reachable cm1 trace replays against the single store.
    from replisim import enumerate_traces

    text = """cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
cluster.relation.x.nodes = 3
cluster.relation.x.replication = 3
policy.read = QUORUM(1/2)
policy.write = QUORUM(1/2)
agent.a1.home = 1
agent.a1.program = write x {(0) -> (1)}
agent.a2.home = 1
agent.a2.program = read x key=(0); read x key=(0)
init.x = (0) -> (0)
"""
    from replisim import parse_scenario

    s = parse_scenario(text, name="quorum3")
    for trace in enumerate_traces(s, "cm1"):
        assert check_view_compatible(trace, s).kind == "COMPATIBLE"
    # single data centre: the message-passing model forwards nothing and the
    # delegate lives off the home's local answer alone
    for seed in range(3):
        r = run(s, "cm2", SeededSchedule(seed))
        assert r.completed
        assert check_view_compatible(r.trace, s).kind == "COMPATIBLE"


def test_serialisable_implies_compatible_on_appropriate_cm2_runs():
    # Reverse linkage, sampled over message-passing runs with appropriate
    # policies; a failure here would be reported as a finding, none is known.
    from replisim import ALL, ONE

    for name in ("counterexample", "intro"):
        s = load_scenario(name).with_policies(ONE, ALL)
        for seed in range(6):
            t = run(s, "cm2", SeededSchedule(seed)).trace
            sv = check_view_serialisable(t, s)
            if sv.kind == "SERIALISABLE" and sv.exhaustive:
                assert check_view_compatible(t, s).kind == "COMPATIBLE", (name, seed)


# ---------------------------------------------------------------------------
# search cost: failed-state cache, explicit stack, node budget
# ---------------------------------------------------------------------------


# Four agents, five requests each, alternating writes and reads over two
# relations.  Without a failed-state cache the serialisability search spent
# its 20,000-node budget on the seed-1 cm0 run of this scenario undecided.
FOUR_AGENT_PROGRAMS = (
    (1, "read x key=(0); write y {(1) -> (11)}; read y key=(1); write x {(0) -> (12)}; read x key=(1)"),
    (2, "write y {(0) -> (21)}; read y key=(0); write x {(0) -> (22)}; read x key=(0); write y {(0) -> (23)}"),
    (1, "read y key=(0); write x {(1) -> (31)}; read x key=(1); write y {(0) -> (32)}; read y key=(0)"),
    (2, "write x {(1) -> (41)}; read x key=(0); write y {(0) -> (42)}; read y key=(1); write x {(0) -> (43)}"),
)


@pytest.fixture(scope="module")
def four_agent_run():
    s = build(
        "four_agents",
        [(f"a{n}", home, program) for n, (home, program) in enumerate(FOUR_AGENT_PROGRAMS, start=1)],
        relations=("x", "y"),
        init=("x", "(0) -> (0), (1) -> (1)"),
    )
    return s, run(s, "cm0", SeededSchedule(1)).trace


def test_long_single_agent_trace_is_decided():
    # 1,200 requests: deeper than Python's default recursion limit allows a
    # recursive search to go.
    program = "; ".join(
        "read x key=(0)" if n % 2 == 0 else f"write x {{(0) -> ({n})}}" for n in range(1200)
    )
    s = build("long", [("a1", 1, program)])
    t = run(s, "cm0", SeededSchedule(0)).trace
    vc = check_view_compatible(t, s)
    vs = check_view_serialisable(t, s)
    assert (vc.kind, vc.exhaustive) == ("COMPATIBLE", True)
    assert (vs.kind, vs.exhaustive) == ("SERIALISABLE", True)
    assert vs.witness == tuple(f"a1#{n}" for n in range(1200))


def test_four_agent_trace_is_serialisable_within_budget(four_agent_run):
    s, t = four_agent_run
    infos = {i.req: i for i in _request_infos(t)}
    assert len(infos) == 20
    v = check_view_serialisable(t, s, budget=20_000)
    assert (v.kind, v.exhaustive) == ("SERIALISABLE", True)
    assert v.replays <= 20_000
    assert sorted(v.witness) == sorted(infos)
    for agent in ("a1", "a2", "a3", "a4"):
        own = [req for req in v.witness if req.startswith(agent + "#")]
        assert own == sorted(own, key=lambda req: infos[req].lo)
    flat = s.initial.clone()
    for req in v.witness:
        info = infos[req]
        if info.kind == "read":
            assert db_answer_read(flat, s.cfg, info.rid, info.body) == info.answer
        else:
            db_perform_write(flat, s.cfg, info.rid, dict(info.body))


@pytest.mark.parametrize("checker", [check_view_compatible, check_view_serialisable])
@pytest.mark.parametrize("budget", [0, 1, 7])
def test_budget_stops_the_search_after_budget_plus_one_nodes(four_agent_run, checker, budget):
    s, t = four_agent_run
    assert checker(t, s).replays > budget + 1
    v = checker(t, s, budget=budget)
    assert not v.exhaustive and not v.ok() and v.witness == ()
    assert v.replays == budget + 1


def test_four_agent_serial_search_merges_orders_of_matching_reads(four_agent_run):
    # Keying a state on its matching leading reads taken first merges the
    # orders that differ only in where such reads go: 356 states entered,
    # where keying on the progress as taken entered 659.  Not taking a write
    # that loses a value a pending read needs brings that to 25.
    s, t = four_agent_run
    assert check_view_serialisable(t, s).replays <= 25


def test_serial_check_replays_each_write_once_per_store(four_agent_run, monkeypatch):
    # Each (write, store key) is replayed once per call, so no two store
    # clones start from one write and one store: 108 clones, where replaying
    # the write at every visit made 452, and 11 once a write that loses a
    # value a pending read needs is not replayed at all.
    s, t = four_agent_run
    clones, replayed = [0], []
    clone, replay = FlatStore.clone, consistency._replay_writes

    def counted_clone(flat):
        clones[0] += 1
        return clone(flat)

    def recorded_replay(flat, batch, skipped):
        after = replay(flat, batch, skipped)
        if after is not None and after is not flat:
            replayed.append((tuple(info.req for info in batch), flat.state_key()))
        return after

    monkeypatch.setattr(FlatStore, "clone", counted_clone)
    monkeypatch.setattr(consistency, "_replay_writes", recorded_replay)
    assert check_view_serialisable(t, s).ok()
    assert len(set(replayed)) == len(replayed) == clones[0]
    assert clones[0] <= 11


# ---------------------------------------------------------------------------
# serialisability: a write step that loses a value a pending read needs
# ---------------------------------------------------------------------------


LOST_VALUE_SCENARIO = build("lost_value", [("a1", 1, "read x key=(0)")], init=("x", "(0) -> (0), (1) -> (0)"))


def _in_turn(*requests):
    """A trace of (agent, request, response) payloads, each request issued
    and answered before the next one is issued."""
    events, counts = [], {}
    for agent, req, resp in requests:
        n = counts[agent] = counts.get(agent, -1) + 1
        events += [ev(len(events) + 1, "REQ", agent, f"{agent}#{n}", req),
                   ev(len(events) + 2, "RESP", agent, f"{agent}#{n}", resp)]
    return Trace(tuple(events))


def _write(agent, key, value):
    return agent, ("write", "x", (((key,), (value,)),)), ("ack", "x")


def _read(agent, key, value):
    return agent, read_payload(key=(key,)), answer_payload([((key,), (value,))])


def test_a_write_that_loses_a_value_a_pending_read_needs_is_not_taken():
    # a2 reads (0) as 0 after reading (1) as 1, so it must read (1) after
    # a1#2 but (0) before a1#1, which a1 issues first: no serial order.
    # Once a1#1 writes (0) := 1, no write left puts 0 back for a2#2 (a1#0
    # wrote it, but is done), so that step and every order below it are
    # cut: 8 states entered, where searching below such steps entered 27.
    t = _in_turn(_write("a1", 0, 0), _write("a1", 0, 1), _write("a1", 1, 1),
                 _read("a2", 0, 0), _read("a2", 1, 1), _read("a2", 0, 0), _write("a3", 1, 2), _read("a3", 1, 2))
    v = check_view_serialisable(t, LOST_VALUE_SCENARIO)
    assert (v.kind, v.exhaustive, v.replays) == ("NOT_SERIALISABLE", True, 8)


def test_a_restoring_write_queued_after_the_reader_does_not_save_the_value():
    # a2#1 writes 0 back, but only after a2#0 has read it, so a1#0 before
    # a2#0 is still cut: 4 states entered, where counting a2#1 as a
    # restoring write entered 5.
    t = _in_turn(_write("a1", 0, 1), _read("a2", 0, 0), _write("a2", 0, 0))
    v = check_view_serialisable(t, LOST_VALUE_SCENARIO)
    assert (v.render(), v.replays) == ("verdict=SERIALISABLE exhaustive=true witness=a2#0,a1#0,a2#1", 4)


def test_a_restoring_write_queued_before_the_reader_saves_the_value():
    # a2#0 writes 0 back before a2#1 reads it, so a1#0 may go first, and
    # the first order in agent order is the witness.
    t = _in_turn(_write("a1", 0, 1), _write("a2", 0, 0), _read("a2", 0, 0))
    v = check_view_serialisable(t, LOST_VALUE_SCENARIO)
    assert (v.render(), v.replays) == ("verdict=SERIALISABLE exhaustive=true witness=a1#0,a2#0,a2#1", 4)


def test_a_read_of_a_value_nothing_writes_fails_at_the_root():
    # Nothing writes 7 and the store does not hold it, so the root has no
    # children: 1 state entered, where searching the writes' orders entered 11.
    t = _in_turn(_write("a1", 0, 1), _write("a1", 0, 2), _write("a2", 1, 1), _write("a2", 0, 3), _read("a3", 1, 7))
    v = check_view_serialisable(t, LOST_VALUE_SCENARIO)
    assert (v.kind, v.exhaustive, v.replays) == ("NOT_SERIALISABLE", True, 1)


def test_search_drops_a_frame_whose_key_has_failed():
    # p's first child q shares p's key and is a dead end, so p has no goal
    # either: p's frame is dropped without expanding x, and the search goes
    # on to root's goal g.
    graph = {"root": ["p", "g"], "p": ["q", "x"], "q": [], "x": ["y"], "y": [], "g": []}
    keys = {"root": "root", "p": "p", "q": "p", "x": "x", "y": "y", "g": "g"}
    expanded = []

    def expand(state):
        expanded.append(state)
        return ((f"to-{child}", child) for child in graph[state])

    steps, nodes = _search("root", keys.get, expand, lambda state: state == "g", budget=100)
    assert steps == ["to-g"]
    assert expanded == ["root", "p", "q"]
    assert nodes == 4


# ---------------------------------------------------------------------------
# serialisability against brute force
# ---------------------------------------------------------------------------


def _random_requests(rng):
    """Two or three agents, each with one to four reads or writes over keys
    (0) and (1) of x.  Values are drawn from two, so writes often overwrite
    a value some read answers; a read's recorded answer is absent or one of
    those values."""
    values = [(0,), (1,)]
    programs = {}
    for agent in ("a1", "a2", "a3")[: rng.choice((2, 3))]:
        program = []
        for n in range(rng.randint(1, 4)):
            key = (rng.randrange(2),)
            if rng.random() < 0.5:
                rows = [] if rng.random() < 0.2 else [(key, rng.choice(values))]
                program.append((read_payload(key=key), answer_payload(rows)))
            else:
                value = UNDEF if rng.random() < 0.1 else rng.choice(values)
                program.append((("write", "x", ((key, value),)), ("ack", "x")))
        programs[agent] = program
    return programs


def _trace_of(programs, rng):
    """Each request's REQ and RESP in turn, the agents interleaved at random."""
    turns = [agent for agent, program in programs.items() for _ in program]
    rng.shuffle(turns)
    events, issued = [], dict.fromkeys(programs, 0)
    for agent in turns:
        n = issued[agent]
        issued[agent] += 1
        req, resp = programs[agent][n]
        events += [ev(len(events) + 1, "REQ", agent, f"{agent}#{n}", req),
                   ev(len(events) + 2, "RESP", agent, f"{agent}#{n}", resp)]
    return Trace(tuple(events))


def _first_serial_order(programs, scenario):
    """The first interleaving of the agents' programs, in lexicographic agent
    order, whose replay through the oracle reproduces every answer.  An
    order is dropped at its first read that does not reproduce its answer,
    with every order that shares that prefix."""
    agents = sorted(programs)

    def extend(done, flat):
        if all(done[a] == len(programs[a]) for a in agents):
            return ()
        for a in agents:
            n = done[a]
            if n == len(programs[a]):
                continue
            (tag, rid, body), resp = programs[a][n]
            if tag == "write":
                after = flat.clone()
                db_perform_write(after, scenario.cfg, rid, dict(body))
            elif db_answer_read(flat, scenario.cfg, rid, body) == resp[2]:
                after = flat
            else:
                continue
            rest = extend({**done, a: n + 1}, after)
            if rest is not None:
                return (f"{a}#{n}",) + rest
        return None

    return extend(dict.fromkeys(agents, 0), scenario.initial)


def test_serialisability_matches_brute_force_on_random_traces():
    scenario = simple_scenario()  # x: (0) -> (0); (1) absent
    rng = random.Random(18)
    kinds = set()
    for _ in range(300):
        programs = _random_requests(rng)
        want = _first_serial_order(programs, scenario)
        v = check_view_serialisable(_trace_of(programs, rng), scenario)
        if want is None:
            assert (v.kind, v.exhaustive, v.witness) == ("NOT_SERIALISABLE", True, ())
        else:
            assert (v.kind, v.exhaustive, v.witness) == ("SERIALISABLE", True, want)
        kinds.add(v.kind)
    assert kinds == {"SERIALISABLE", "NOT_SERIALISABLE"}


# ---------------------------------------------------------------------------
# compatibility against brute force
# ---------------------------------------------------------------------------


def _overlapping_trace(rng):
    """Two or three agents with one or two requests each, from
    ``_random_requests``.  Each agent issues a request once its previous one
    is answered, but the agents' events interleave at random and may share
    an index, so windows overlap across agents."""
    programs = {agent: program[:2] for agent, program in _random_requests(rng).items()}
    turns = [agent for agent, program in programs.items() for _ in range(2 * len(program))]
    rng.shuffle(turns)
    events, done, idx, here = [], dict.fromkeys(programs, 0), 0, set()  # here: agents with an event at idx
    for agent in turns:
        if agent in here or rng.random() < 0.7:
            idx, here = idx + 1, set()
        here.add(agent)
        n, answered = divmod(done[agent], 2)
        done[agent] += 1
        req, resp = programs[agent][n]
        events.append(ev(idx, "RESP" if answered else "REQ", agent, f"{agent}#{n}", resp if answered else req))
    return Trace(tuple(events))


def _compatible_by_brute_force(trace, scenario) -> bool:
    """Whether some integer point per request inside its window, and some
    set of write pairs whose values no read holds left unapplied, replays
    through the oracle to every recorded answer.  Requests at one point read
    the store before any of their writes, and must not write two values to
    one location."""
    cfg = scenario.cfg
    infos = _request_infos(trace)
    read = {(i.rid, k, v) for i in infos if i.kind == "read" for k, v in i.answer}
    waivable = [(i.req, k) for i in infos if i.kind == "write" for k, v in i.body
                if v is UNDEF or (i.rid, k, v) not in read]

    def replays(points, skipped):
        flat = scenario.initial.clone()
        for point in sorted(set(points)):
            batch = [i for i, p in zip(infos, points) if p == point]
            if any(i.kind == "read" and db_answer_read(flat, cfg, i.rid, i.body) != i.answer for i in batch):
                return False
            written = {}
            for i in batch:
                for k, v in (i.body if i.kind == "write" else ()):
                    if (i.req, k) not in skipped and written.setdefault((i.rid, k), v) != v:
                        return False
            for (rid, k), v in written.items():
                db_perform_write(flat, cfg, rid, {k: v})
        return True

    return any(replays(points, set(skipped))
               for points in itertools.product(*(range(i.lo + 1, i.hi + 1) for i in infos))
               for n in range(len(waivable) + 1) for skipped in itertools.combinations(waivable, n))


def _assert_witness_replays(v, trace, scenario):
    """A compatibility witness places every request once, inside its window,
    at increasing points; each read reproduces its answer on the store
    before its batch, and only pairs whose values no read holds are waived."""
    infos = {i.req: i for i in _request_infos(trace)}
    read = {(i.rid, k, val) for i in infos.values() if i.kind == "read" for k, val in i.answer}
    for req, k in v.waived:
        value = dict(infos[req].body)[k]
        assert value is UNDEF or (infos[req].rid, k, value) not in read
    flat, last, placed = scenario.initial, None, []
    for point, reqs in v.witness:
        assert last is None or last < point
        batch = [infos[req] for req in reqs]
        for info in batch:
            assert info.lo < point <= info.hi
            if info.kind == "read":
                assert db_answer_read(flat, scenario.cfg, info.rid, info.body) == info.answer
        flat = _replay_writes(flat, batch, frozenset(v.waived))
        assert flat is not None
        last, placed = point, placed + list(reqs)
    assert sorted(placed) == sorted(infos)


def test_compatibility_matches_brute_force_on_overlapping_traces():
    scenario = simple_scenario()  # x: (0) -> (0); (1) absent
    rng = random.Random(28)
    kinds, batched, waived = set(), 0, 0
    for _ in range(600):
        t = _overlapping_trace(rng)
        v = check_view_compatible(t, scenario)
        want = _compatible_by_brute_force(t, scenario)
        assert (v.kind, v.exhaustive) == ("COMPATIBLE" if want else "INCOMPATIBLE", True)
        if v.ok():
            _assert_witness_replays(v, t, scenario)
            batched += any(len(reqs) > 1 for _, reqs in v.witness)
            waived += bool(v.waived)
        kinds.add(v.kind)
    assert kinds == {"COMPATIBLE", "INCOMPATIBLE"} and batched and waived
