import pytest
from hypothesis import given, strategies as st

from replisim.cm0 import Condition
from replisim.cm2 import (
    DelegateState,
    collect_respond,
    delegate_external_req,
    handle_locally,
    manage_internal_req,
)
from replisim.core import UNDEF, ReplicaStore, Timestamp, freshest
from replisim.messages import (
    ACK,
    ANSWER,
    FWD,
    LOCAL_ACK,
    LOCAL_ANSWER,
    REQ_READ,
    REQ_WRITE,
    Message,
    StepEffect,
)
from replisim.policies import ALL, ONE, THREE, CountState
from test_cm1 import key_conditions, replica_contents
from test_core import make_cfg


def make_state(cfg, start=2):
    return ReplicaStore(cfg), dict.fromkeys(cfg.offset_ranks, start)


def read_req(req="a1#0", home="d1"):
    return Message(REQ_READ, req, "a1", home, payload=("x", Condition.true()))


def write_req(pairs, req="a1#0", home="d1"):
    return Message(REQ_WRITE, req, "a1", home, payload=("x", tuple(sorted(pairs))))


def fresh_delegate(cfg, kind="read", rid="x"):
    return DelegateState(
        gid="g!a1#0",
        req="a1#0",
        kind=kind,
        rid=rid,
        requestor="a1",
        mediator_dc=1,
        counts=CountState.zero(cfg, rid),
    )


# ---------------------------------------------------------------------------
# home handling
# ---------------------------------------------------------------------------


def test_forwards_go_to_all_other_data_centres():
    cfg = make_cfg(dcs=(1, 2, 3))
    store, ticks = make_state(cfg)
    eff = delegate_external_req(store, ticks, cfg, 1, read_req())
    fwds = [m for m in eff.sends if m.kind == FWD]
    assert sorted(m.receiver for m in fwds) == ["d2", "d3"]


def test_new_delegate_counts_are_zero():
    cfg = make_cfg()
    store, ticks = make_state(cfg)
    eff = delegate_external_req(store, ticks, cfg, 1, read_req())
    delegate = eff.updates[("delegate", "g!a1#0")]
    assert all(v == 0 for v in delegate.counts.by_fragment_dc.values())
    assert delegate.answer == {}


def test_read_request_spawns_read_collector():
    cfg = make_cfg()
    store, ticks = make_state(cfg)
    eff = delegate_external_req(store, ticks, cfg, 1, read_req())
    assert eff.updates[("delegate", "g!a1#0")].kind == "read"
    eff2 = delegate_external_req(store, ticks, cfg, 1, write_req([((0,), (1,))], req="a1#1"))
    assert eff2.updates[("delegate", "g!a1#1")].kind == "write"


def test_home_sends_its_own_local_answer_to_the_delegate():
    cfg = make_cfg()
    store, ticks = make_state(cfg)
    eff = delegate_external_req(store, ticks, cfg, 1, read_req())
    locals_ = [m for m in eff.sends if m.kind == LOCAL_ANSWER]
    assert len(locals_) == 1 and locals_[0].receiver == "g!a1#0"


# ---------------------------------------------------------------------------
# forwarded handling
# ---------------------------------------------------------------------------


def test_forwarded_read_yields_one_local_answer():
    cfg = make_cfg()
    store, ticks = make_state(cfg)
    fwd = Message(FWD, "a1#0", "d1", "d2", payload=(REQ_READ, "x", Condition.true(), Timestamp(2, 1, 1)))
    eff = manage_internal_req(store, ticks, cfg, 2, fwd)
    answers = [m for m in eff.sends if m.kind == LOCAL_ANSWER]
    assert len(answers) == 1
    rid, triples, xs = answers[0].payload
    assert xs == (1,) and triples == frozenset()


def test_forwarded_write_yields_ack_and_adjusts_clock():
    cfg = make_cfg()
    store, ticks = make_state(cfg)
    t_fwd = Timestamp(9, 1, 1)
    fwd = Message(FWD, "a1#0", "d1", "d2", payload=(REQ_WRITE, "x", (((0,), (1,)),), t_fwd))
    eff = manage_internal_req(store, ticks, cfg, 2, fwd)
    acks = [m for m in eff.sends if m.kind == LOCAL_ACK]
    assert len(acks) == 1 and acks[0].payload[1] == (1,)
    assert eff.updates[("clock", 2)] == 9  # (9, d2) >= (9, d1) since rank 2 > rank 1


def test_losing_local_write_still_counted():
    cfg = make_cfg()
    store, ticks = make_state(cfg)
    store.store("x", 1, 2, 1, (0,), (9,), Timestamp(9, 2, 2))
    fwd = Message(FWD, "a1#0", "d1", "d2", payload=(REQ_WRITE, "x", (((0,), (1,)),), Timestamp(2, 1, 1)))
    eff = manage_internal_req(store, ticks, cfg, 2, fwd)
    assert not any(loc[0] == "rep" for loc in eff.updates)  # update lost
    assert [m.payload[1] for m in eff.sends if m.kind == LOCAL_ACK] == [(1,)]


def test_empty_write_set_still_acknowledged():
    cfg = make_cfg()
    store, ticks = make_state(cfg)
    eff = StepEffect()
    handle_locally(store, ticks, cfg, 2, REQ_WRITE, "x", (), "a1#0", Timestamp(5, 1, 1), eff)
    acks = [m for m in eff.sends if m.kind == LOCAL_ACK]
    assert acks and acks[0].payload[1] == (1,)
    assert not any(loc[0] == "rep" for loc in eff.updates)


def test_local_read_includes_tombstone_triples():
    cfg = make_cfg()
    store, ticks = make_state(cfg)
    t = Timestamp(5, 1, 1)
    store.store("x", 1, 1, 1, (0,), UNDEF, t)
    eff = StepEffect()
    handle_locally(store, ticks, cfg, 1, REQ_READ, "x", Condition.true(), "a1#0", None, eff)
    triples = [m.payload[1] for m in eff.sends if m.kind == LOCAL_ANSWER][0]
    assert triples == frozenset({((0,), UNDEF, t)})


def test_local_read_with_no_alive_copies_sends_empty():
    cfg = make_cfg(dcs=(1, 2))
    cfg = type(cfg)(cfg.relations, cfg.offset_ranks, down_nodes=[(2, 1)])
    store, ticks = make_state(cfg)
    eff = StepEffect()
    handle_locally(store, ticks, cfg, 2, REQ_READ, "x", Condition.true(), "a1#0", None, eff)
    rid, triples, xs = [m for m in eff.sends if m.kind == LOCAL_ANSWER][0].payload
    assert triples == frozenset() and xs == (0,)


def test_local_max_timestamp_wins_between_local_copies():
    cfg = make_cfg(nodes=2, replication=2)
    store, ticks = make_state(cfg)
    store.store("x", 1, 1, 1, (0,), (1,), Timestamp(2, 1, 1))
    store.store("x", 1, 1, 2, (0,), (2,), Timestamp(4, 1, 1))
    eff = StepEffect()
    handle_locally(store, ticks, cfg, 1, REQ_READ, "x", Condition.true(), "a1#0", None, eff)
    triples = [m for m in eff.sends if m.kind == LOCAL_ANSWER][0].payload[1]
    assert triples == frozenset({((0,), (2,), Timestamp(4, 1, 1))})


@given(contents=replica_contents(), cond=key_conditions, d=st.sampled_from((1, 2)))
def test_local_key_reads_answer_as_a_scan(contents, cond, d):
    # A local key read looks its keys up; its triples, tombstones included,
    # must be what folding each local fragment whole and filtering gives.
    cfg, store = contents
    ticks = dict.fromkeys(cfg.offset_ranks, 2)
    groups = {
        j: tuple((d2, n) for d2, n in cfg.candidates("x", j) if d2 == d and cfg.alive(d2, n))
        for j in (1, 2)
    }
    scan = frozenset(
        (k, v, t)
        for j, group in groups.items()
        for k, (v, t) in freshest(store.copies("x", j, group)).items()
        if cond.matches(k, cfg, "x")
    )
    eff = StepEffect()
    handle_locally(store, ticks, cfg, d, REQ_READ, "x", cond, "a1#0", None, eff)
    assert [m.payload[1] for m in eff.sends if m.kind == LOCAL_ANSWER] == [scan]


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------


def seen_once(delegate, sender_dc, answer, triples, xs=(1,)):
    """The delegate after one partial answer from ``sender_dc``."""
    return delegate._replace(
        counts=delegate.counts.add(sender_dc, xs),
        answer=answer,
        log=delegate.log + ((sender_dc, xs, triples),),
    )


def local_answer(triples, xs=(1,), sender="d2", req="a1#0"):
    return Message(LOCAL_ANSWER, req, sender, f"g!{req}", payload=("x", frozenset(triples), xs))


def test_merge_keeps_fresher_triple():
    cfg = make_cfg()
    fresher = ((0,), (2,), Timestamp(4, 2, 2))
    delegate = seen_once(fresh_delegate(cfg), 2, {(0,): ((2,), Timestamp(4, 2, 2))}, frozenset({fresher}))
    eff = collect_respond(delegate, cfg, THREE, local_answer([((0,), (1,), Timestamp(2, 1, 1))], sender="d1"))
    assert eff.updates[("delegate", delegate.gid)].answer == delegate.answer  # stale triple ignored
    eff = collect_respond(delegate, cfg, ALL, local_answer([((0,), (1,), Timestamp(2, 1, 1))], sender="d1"))
    answers = [m for m in eff.sends if m.kind == ANSWER]
    assert answers and answers[0].payload[1] == frozenset({((0,), (2,))})


def test_read_one_responds_on_first_answer():
    cfg = make_cfg()
    delegate = fresh_delegate(cfg)
    eff = collect_respond(delegate, cfg, ONE, local_answer([((0,), (5,), Timestamp(2, 1, 1))]))
    answers = [m for m in eff.sends if m.kind == ANSWER]
    assert len(answers) == 1
    assert answers[0].payload[1] == frozenset({((0,), (5,))})
    assert answers[0].sender == "d1" and answers[0].receiver == "a1"
    assert eff.updates[("delegate", delegate.gid)] is None


def test_read_all_waits_for_every_copy():
    cfg = make_cfg()
    delegate = fresh_delegate(cfg)
    eff = collect_respond(delegate, cfg, ALL, local_answer([((0,), (5,), Timestamp(2, 1, 1))]))
    assert not eff.sends  # gamma = 2, one response so far
    assert eff.updates[("delegate", delegate.gid)].counts.by_fragment_dc == {(1, 1): 0, (1, 2): 1}


def test_tombstones_dropped_only_at_respond():
    cfg = make_cfg()
    t_del = Timestamp(7, 2, 2)
    delegate = seen_once(
        fresh_delegate(cfg),
        1,
        {(0,): ((1,), Timestamp(2, 1, 1))},
        frozenset({((0,), (1,), Timestamp(2, 1, 1))}),
    )
    eff = collect_respond(delegate, cfg, ALL, local_answer([((0,), UNDEF, t_del)], sender="d2"))
    answers = [m for m in eff.sends if m.kind == ANSWER]
    assert answers and answers[0].payload[1] == frozenset()  # deletion dominates


def test_write_all_acks_when_counts_reach_gamma():
    cfg = make_cfg()
    delegate = fresh_delegate(cfg, kind="write")
    ack1 = Message(LOCAL_ACK, "a1#0", "d1", "g!a1#0", payload=("x", (1,)))
    eff1 = collect_respond(delegate, cfg, ALL, ack1)
    assert not eff1.sends
    delegate = eff1.updates[("delegate", delegate.gid)]
    ack2 = Message(LOCAL_ACK, "a1#0", "d2", "g!a1#0", payload=("x", (1,)))
    eff2 = collect_respond(delegate, cfg, ALL, ack2)
    assert [m.kind for m in eff2.sends] == [ACK]
    assert eff2.updates[("delegate", delegate.gid)] is None


def test_ack_order_does_not_change_counts():
    cfg = make_cfg()

    def counts_after(order):
        # THREE is not satisfied by two acks, so each step yields a successor
        delegate = fresh_delegate(cfg, kind="write")
        for sender in order:
            msg = Message(LOCAL_ACK, "a1#0", sender, "g!a1#0", payload=("x", (1,)))
            delegate = collect_respond(delegate, cfg, THREE, msg).updates[("delegate", delegate.gid)]
        return dict(delegate.counts.by_fragment_dc)

    assert counts_after(["d1", "d2"]) == counts_after(["d2", "d1"])
    assert counts_after(["d1", "d2"]) == {(1, 1): 1, (1, 2): 1}


def test_wrong_message_kind_rejected():
    cfg = make_cfg()
    delegate = fresh_delegate(cfg, kind="read")
    with pytest.raises(Exception):
        collect_respond(delegate, cfg, ONE, Message(LOCAL_ACK, "a1#0", "d1", "g!a1#0", payload=("x", (1,))))
