import pytest

from replisim import (
    ConfigError,
    ExplicitSchedule,
    RunDiscarded,
    ScheduleError,
    SeededSchedule,
    Simulation,
    Trace,
    enumerate_traces,
    load_scenario,
    parse_scenario,
    run,
    search_schedules,
)
from replisim.predicates import print_pair
from replisim.trace import REQ, RESP

from corpus import build


def test_same_seed_same_bytes():
    s = load_scenario("intro")
    texts = {run(s, m, SeededSchedule(5)).trace.to_text() for m in ("cm0",)}
    again = run(s, "cm0", SeededSchedule(5)).trace.to_text()
    assert texts == {again}


def test_different_seeds_can_differ():
    s = load_scenario("intro")
    a = run(s, "cm2", SeededSchedule(1)).trace.to_text()
    b = run(s, "cm2", SeededSchedule(2)).trace.to_text()
    assert isinstance(a, str) and isinstance(b, str)  # both complete
    # not asserting inequality: schedules may coincide, determinism is the point


def test_completed_runs_leave_no_inflight_messages():
    for name in ("intro", "counterexample", "anomaly_one_one"):
        s = load_scenario(name)
        for model in ("cm0", "cm1", "cm2"):
            for seed in range(5):
                r = run(s, model, SeededSchedule(seed))
                assert r.completed, (name, model, seed, r.reason)
                assert not r.sim.inflight


def test_client_blocks_between_request_and_response():
    s = load_scenario("intro")
    r = run(s, "cm2", SeededSchedule(3))
    for agent in s.programs:
        events = [e for e in r.trace.events if e.agent == agent and e.kind in (REQ, RESP)]
        kinds = [e.kind for e in sorted(events, key=lambda e: e.idx)]
        assert kinds == ["REQ", "RESP"] * (len(kinds) // 2)


def test_zero_request_scenario_gives_empty_trace():
    s = parse_scenario(
        """
cluster.datacentres = 2
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ALL
""",
        name="empty",
    )
    r = run(s, "cm2", SeededSchedule(0))
    assert r.completed and r.trace.events == ()


def test_trace_text_round_trips():
    s = load_scenario("intro")
    r = run(s, "cm2", SeededSchedule(11))
    text = r.trace.to_text()
    parsed = Trace.from_text(text)
    assert parsed.events == r.trace.events
    assert parsed.to_text().splitlines()[3:] == text.splitlines()[3:]  # meta comments differ


def test_recorded_schedule_replays_identically():
    s = load_scenario("counterexample")
    for model in ("cm0", "cm1", "cm2"):
        r = run(s, model, SeededSchedule(9))
        replay = run(s, model, r.as_explicit_schedule())
        assert replay.trace.events == r.trace.events


def test_cm1_schedule_must_name_policy_compliant_selections():
    # counterexample writes under ALL over copies (1,1) and (2,1); a schedule
    # that writes only (1,1) breaks the policy, as do a non-copy node and a
    # missing fragment group.
    s = load_scenario("counterexample")
    steps = run(s, "cm1", SeededSchedule(9)).schedule_steps

    def rewritten(sel):
        return ExplicitSchedule(tuple(
            tuple(d[:3] + (sel,) if d[0] == "dc" else d for d in step) for step in steps
        ))

    for sel in ((((1, ((1, 1),)),)), ((1, ((1, 1), (2, 1), (3, 1))),), ()):
        with pytest.raises(ScheduleError):
            run(s, "cm1", rewritten(sel))
    full = ((1, ((1, 1), (2, 1))),)
    assert run(s, "cm1", rewritten(full)).completed


def test_cm2_schedule_must_not_name_selections():
    # cm2 data-centre steps pick no replica group; a schedule that names one
    # (here a non-copy node) is refused rather than ignored and echoed.
    s = load_scenario("counterexample")
    steps = run(s, "cm2", SeededSchedule(9)).schedule_steps
    sel = ((1, ((9, 9),)),)
    rewritten = ExplicitSchedule(tuple(
        tuple(d[:3] + (sel,) if d[0] == "dc" else d for d in step) for step in steps
    ))
    assert any(d[0] == "dc" for step in steps for d in step)
    with pytest.raises(ScheduleError, match="takes no selections"):
        run(s, "cm2", rewritten)
    assert run(s, "cm2", ExplicitSchedule(steps)).completed


def test_explicit_schedule_underrun_is_an_error():
    s = load_scenario("counterexample")
    r = run(s, "cm0", SeededSchedule(9))
    truncated = ExplicitSchedule(r.schedule_steps[:-2])
    with pytest.raises(ScheduleError):
        run(s, "cm0", truncated)


def test_an_empty_schedule_step_is_an_error():
    s = load_scenario("counterexample")
    with pytest.raises(ScheduleError, match=r"schedule step 2 \(round 2\) is empty"):
        run(s, "cm0", ExplicitSchedule(((("send", "a1"),), ())))


def seven_copies():
    """Seven copies of x in one data centre: a ONE write has 2**7 - 1 = 127
    compliant selections."""
    return parse_scenario(
        """
cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
cluster.relation.x.datacentres = 1
cluster.relation.x.nodes = 7
cluster.relation.x.replication = 7
policy.read = ONE
policy.write = ONE
agent.a1.home = 1
agent.a1.program = write x {(0) -> (1)}
init.x = (0) -> (0)
""",
        name="seven_copies",
    )


def test_exhaustive_cm1_search_refuses_a_fragment_it_cannot_cover():
    # 127 selections are more than the 64 an exhaustive cm1 search covers,
    # so it would skip some of them
    s = seven_copies()
    with pytest.raises(ConfigError, match="x fragment 1 has more than 64 compliant selections"):
        search_schedules(s, "cm1", lambda trace, scenario: False)
    with pytest.raises(ConfigError, match="x fragment 1 has more than 64"):
        enumerate_traces(s, "cm1")
    assert run(s, "cm1", SeededSchedule(0)).completed  # a seeded run draws from all of them


def test_seeded_cm1_runs_draw_from_every_compliant_selection():
    # smallest first, the first 64 selections are the groups of 1-4 copies
    s = seven_copies()
    sizes = set()
    for seed in range(600):
        steps = run(s, "cm1", SeededSchedule(seed)).schedule_steps
        ((dc,),) = [step for step in steps if step[0][0] == "dc"]
        ((_, group),) = dc[3]
        sizes.add(len(group))
    assert sizes == {1, 2, 3, 4, 5, 6, 7}


def test_conflicting_simultaneous_writes_discard_the_run():
    s = build(
        "conflict",
        [("a1", 1, "write x {(0) -> (1)}"), ("a2", 1, "write x {(0) -> (2)}")],
    )
    sim = Simulation(s, "cm0")
    sim.apply_round(sim.enumerate_moves(False))  # both clients send
    sim.apply_round(sim.enumerate_moves(False))  # both requests delivered
    both = sim.enumerate_moves(False)
    assert len(both) == 2  # two db steps in one batch write the same key
    with pytest.raises(RunDiscarded):
        sim.apply_round(both)


def test_simultaneous_compatible_moves_apply_together():
    s = build(
        "parallel",
        [("a1", 1, "write x {(0) -> (1)}"), ("a2", 1, "read x key=(0)")],
    )
    sim = Simulation(s, "cm0")
    sim.apply_round(sim.enumerate_moves(False))
    sim.apply_round(sim.enumerate_moves(False))
    both = sim.enumerate_moves(False)
    sim.apply_round(both)  # read sees the pre-state, write applies
    resp = [e for e in sim.events if e.kind == RESP]
    assert len(resp) == 2
    answers = {e.req: e.payload for e in resp}
    assert answers["a2#0"] == ("answer", "x", frozenset({((0,), (0,))}))


def test_step_limit_reports_incomplete():
    s = load_scenario("intro")
    r = run(s, "cm2", SeededSchedule(0), step_limit=5)
    assert not r.completed and "step limit" in r.reason


def test_enumerate_traces_contains_seeded_outcomes():
    s = load_scenario("counterexample")
    traces = enumerate_traces(s, "cm0")
    for seed in range(10):
        r = run(s, "cm0", SeededSchedule(seed))
        assert r.trace.normalized() in traces


def test_requests_issued_before_answered():
    s = load_scenario("intro")
    r = run(s, "cm2", SeededSchedule(4))
    for req, (lo, hi) in ((q, r.trace.window(q)) for q in r.trace.requests()):
        assert lo < hi


def test_intro_cm0_never_prints_the_forbidden_pair():
    s = load_scenario("intro")
    for seed in range(200):
        r = run(s, "cm0", SeededSchedule(seed))
        assert r.completed
        assert not print_pair(r.trace, s), seed


def test_intro_cm2_enables_the_forbidden_pair():
    s = load_scenario("intro")
    res = search_schedules(s, "cm2", print_pair, budget=500_000)
    assert res.witness is not None
    replay = run(s, "cm2", res.witness)
    assert print_pair(replay.trace, s)


def test_search_witness_replays_to_the_same_trace():
    s = load_scenario("counterexample")
    from replisim.predicates import anomaly_read_stale

    res = search_schedules(s, "cm2", anomaly_read_stale)
    assert res.witness is not None
    replay = run(s, "cm2", res.witness)
    assert replay.trace.events == res.trace.events


def test_stale_read_unreachable_in_cm1_under_all_one():
    # Exhaustive enumeration: the anomaly that cm2 enables under write ALL /
    # read ONE has no cm1 schedule with the same policies.
    s = load_scenario("counterexample")
    from replisim.predicates import anomaly_read_stale

    res = search_schedules(s, "cm1", anomaly_read_stale)
    assert res.witness is None and res.exhausted


def test_payload_rendering_round_trips_random_terms():
    from hypothesis import given, strategies as st
    from replisim.cm0 import Condition
    from replisim.core import UNDEF
    from replisim.trace import parse_payload, render_payload

    atom = st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=6))
    key = st.tuples(atom)
    value = st.one_of(st.just(UNDEF), st.tuples(atom))

    @given(st.dictionaries(key, value, max_size=3), st.sets(key, max_size=3))
    def roundtrip(pairs, keys):
        from replisim.core import tuple_sort_key

        write = ("write", "x", tuple(sorted(pairs.items(), key=lambda kv: tuple_sort_key(kv[0]))))
        assert parse_payload(render_payload(write)) == write
        read = ("read", "x", Condition.key_in(keys) if keys else Condition.true())
        assert parse_payload(render_payload(read)) == read
        rows = frozenset((k, (0,)) for k in keys)
        answer = ("answer", "x", rows)
        assert parse_payload(render_payload(answer)) == answer

    roundtrip()


def test_freshest_value_guard_fires_on_planted_divergence():
    # White-box: two replicas holding different values at one timestamp is
    # exactly what distinct-offset stamps forbid; the per-step check must
    # catch it if it ever happened.
    from replisim import SimInvariantError
    from replisim.core import Timestamp

    s = load_scenario("counterexample")
    sim = Simulation(s, "cm1")
    t = Timestamp(5, 1, 1)
    sim.replicas.data[("x", 1, 1, 1)] = {(0,): ((1,), t)}
    sim.replicas.data[("x", 1, 2, 1)] = {(0,): ((2,), t)}
    with pytest.raises(SimInvariantError):
        sim._check_invariants([("x", 1, (0,))])


def test_clock_guards_fire_on_planted_faults(monkeypatch):
    # White-box: the engine refuses a clock update that moves backwards,
    # and a data centre still behind a forwarded write after processing it
    # (the message-passing clock condition).
    from replisim import SimInvariantError, cm2

    sim = Simulation(load_scenario("counterexample"), "cm2")
    with pytest.raises(SimInvariantError, match="clock at dc 1 moved backwards"):
        sim._apply_updates({("clock", 1): 1})
    for desc in [("send", "a1"), ("deliver", ("req_write", "a1#0", "a1", "d1"))]:
        sim.apply_round([sim.resolve_descriptor(desc)])
    sim.ticks[1] = 9  # d1 stamps the write (9, d1), ahead of d2's clock
    for desc in [
        ("dc", "d1", ("req_write", "a1#0", "a1", "d1"), None),
        ("deliver", ("fwd", "a1#0", "d1", "d2")),
    ]:
        sim.apply_round([sim.resolve_descriptor(desc)])
    monkeypatch.setattr(cm2, "catch_up", lambda cfg, ticks, d, t: {})
    with pytest.raises(SimInvariantError, match="clock at dc 2 behind"):
        sim.apply_round([sim.resolve_descriptor(("dc", "d2", ("fwd", "a1#0", "d1", "d2"), None))])


def test_local_and_each_quorum_policies_run_end_to_end():
    s = build(
        "localpol",
        [("a1", 1, "write x {(0) -> (1)}"), ("a2", 2, "read x key=(0)")],
        nodes=2,
        replication=2,
        read="LOCAL_ONE(1)",
        write="EACH_QUORUM(1/2)",
    )
    for model in ("cm1", "cm2"):
        for seed in range(4):
            r = run(s, model, SeededSchedule(seed))
            assert r.completed, (model, seed, r.reason)
            answers = [e for e in r.trace.events if e.kind == RESP and e.payload[0] == "answer"]
            assert len(answers) == 1


def test_late_message_to_deleted_delegate_is_dropped():
    # Read policy ONE: the delegate answers after the first local answer and
    # deletes itself; the second data centre still processes the forwarded
    # read, and its reply evaporates at delivery.
    s = load_scenario("counterexample")
    sim = Simulation(s, "cm2")

    def do(desc):
        sim.apply_round([sim.resolve_descriptor(desc)])

    do(("send", "a2"))
    do(("deliver", ("req_read", "a2#0", "a2", "d2")))
    do(("dc", "d2", ("req_read", "a2#0", "a2", "d2"), None))
    do(("deliver", ("local_answer", "a2#0", "d2", "g!a2#0")))
    do(("collect", "g!a2#0", ("local_answer", "a2#0", "d2", "g!a2#0")))
    assert "g!a2#0" not in sim.delegates
    events_before = len(sim.events)
    # the forwarded read is still pending at d1; processing it and delivering
    # the reply to the dead delegate must be a silent no-op
    do(("deliver", ("fwd", "a2#0", "d2", "d1")))
    do(("dc", "d1", ("fwd", "a2#0", "d2", "d1"), None))
    do(("deliver", ("local_answer", "a2#0", "d1", "g!a2#0")))
    assert len(sim.events) == events_before
    assert not sim.mailbox.get("g!a2#0")
    assert sim.enumerate_moves(False) != [] or sim.clients_done() is False


def _cm2_write_with_both_acks_pending():
    """counterexample under cm2 with a1's write delegate holding both local
    acks, and the two collects that consume them.  Under write policy ALL
    over two copies only the second collect answers."""
    sim = Simulation(load_scenario("counterexample"), "cm2")
    for desc in [
        ("send", "a1"),
        ("deliver", ("req_write", "a1#0", "a1", "d1")),
        ("dc", "d1", ("req_write", "a1#0", "a1", "d1"), None),
        ("deliver", ("fwd", "a1#0", "d1", "d2")),
        ("dc", "d2", ("fwd", "a1#0", "d1", "d2"), None),
        ("deliver", ("local_ack", "a1#0", "d1", "g!a1#0")),
        ("deliver", ("local_ack", "a1#0", "d2", "g!a1#0")),
    ]:
        sim.apply_round([sim.resolve_descriptor(desc)])
    return sim, [("collect", "g!a1#0", ("local_ack", "a1#0", d, "g!a1#0")) for d in ("d1", "d2")]


def test_clones_share_delegates_safely():
    # A clone shares the original's delegate objects; a collect on the clone
    # must replace its delegate, never change the shared one.
    sim, collects = _cm2_write_with_both_acks_pending()
    delegate = sim.delegates["g!a1#0"]
    counts_before = dict(delegate.counts.by_fragment_dc)
    key_before = sim.state_key()
    clone = sim.clone()
    assert clone.delegates["g!a1#0"] is delegate
    clone.apply_round([clone.resolve_descriptor(collects[0])])
    assert clone.delegates["g!a1#0"] is not delegate
    assert sim.delegates["g!a1#0"] is delegate
    assert delegate.counts.by_fragment_dc == counts_before and delegate.log == ()
    assert sim.state_key() == key_before
    clone.apply_round([clone.resolve_descriptor(collects[1])])
    assert "g!a1#0" not in clone.delegates and "g!a1#0" in sim.delegates
    for desc in collects:
        sim.apply_round([sim.resolve_descriptor(desc)])
    assert sim.events == clone.events
    assert [e.kind for e in sim.events[-1:]] == [RESP]


def test_two_collects_on_one_delegate_discard_the_run():
    # Each ack alone leaves the write delegate waiting under ALL; with read
    # policy ONE each local answer alone completes the read delegate.  Either
    # way one delegate cannot take two steps in one round.
    sim, collects = _cm2_write_with_both_acks_pending()
    clone = sim.clone()
    with pytest.raises(RunDiscarded):
        clone.apply_round([clone.resolve_descriptor(d) for d in collects])
    with pytest.raises(RunDiscarded):
        sim.apply_round(_cm2_read_with_both_answers_pending(sim, collects))


def _cm2_read_with_both_answers_pending(sim, write_collects):
    """Finish a1's write, then bring a2's read delegate to holding both
    local answers; returns the two collects, each of which answers."""
    for desc in write_collects + [
        ("send", "a2"),
        ("deliver", ("req_read", "a2#0", "a2", "d2")),
        ("dc", "d2", ("req_read", "a2#0", "a2", "d2"), None),
        ("deliver", ("fwd", "a2#0", "d2", "d1")),
        ("dc", "d1", ("fwd", "a2#0", "d2", "d1"), None),
        ("deliver", ("local_answer", "a2#0", "d2", "g!a2#0")),
        ("deliver", ("local_answer", "a2#0", "d1", "g!a2#0")),
    ]:
        sim.apply_round([sim.resolve_descriptor(desc)])
    return [
        sim.resolve_descriptor(("collect", "g!a2#0", ("local_answer", "a2#0", d, "g!a2#0")))
        for d in ("d1", "d2")
    ]


def test_a_discarded_round_leaves_the_simulation_unchanged():
    # The discard checks run before the round counts: conflicting updates
    # (two write-delegate collects), one response sent twice (two
    # read-delegate collects) and one message taken twice (an ack delivered
    # twice).  The error names the refused round.
    sim, collects = _cm2_write_with_both_acks_pending()

    def refused(moves, reason):
        before = (sim.round, list(sim.executed), sim.state_key())
        with pytest.raises(RunDiscarded, match=f"round {sim.round + 1}: {reason}"):
            sim.apply_round(moves)
        assert (sim.round, sim.executed, sim.state_key()) == before

    refused([sim.resolve_descriptor(d) for d in collects], "conflicting updates")
    refused(_cm2_read_with_both_answers_pending(sim, collects), "two moves send the same message")
    ack = sim.resolve_descriptor(("deliver", ("ack", "a1#0", "d1", "a1")))
    refused([ack, ack], "two moves take the same message")
