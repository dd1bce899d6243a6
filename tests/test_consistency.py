from dataclasses import replace

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
from replisim.cm0 import Condition, db_answer_read, db_perform_write
from replisim.consistency import IncompleteTraceError, _answers_match, _replay_writes, _request_infos
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
    infos = {i.req: i for i in _request_infos(t)}
    flat = s.initial.clone()
    skipped = set(v.waived)
    points = []
    for point, reqs in v.witness:
        points.append(point)
        for req in reqs:
            info = infos[req]
            assert info.lo < point <= info.hi
            if info.kind == "read":
                assert db_answer_read(flat, s.cfg, info.rid, info.body) == info.answer
        for req in reqs:
            info = infos[req]
            if info.kind == "write":
                for k, val in info.body:
                    if (req, k) not in skipped:
                        db_perform_write(flat, s.cfg, info.rid, {k: val})
    assert points == sorted(points)


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
    s = load_scenario("counterexample")
    res = search_schedules(s, "cm2", anomaly_read_stale)
    v = check_view_compatible(res.trace, s, budget=2)
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
    ],
    ids=["two-reqs", "two-resps", "write-answered", "read-acked", "read-other-relation",
         "write-other-relation"],
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
    assert _answers_match(flat, cfg, [replace(info, answer=want)])
    assert not _answers_match(flat, cfg, [replace(info, answer=want | {((9,), (9,))})])
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
