from hypothesis import given, strategies as st

from replisim.cm0 import Condition
from replisim.cm1 import answer_read_req, perform_write_req
from replisim.core import UNDEF, ReplicaStore, Timestamp, freshest, hash_fragment, issue
from replisim.messages import ACK, ANSWER, REQ_READ, REQ_WRITE, Message
from test_core import make_cfg


def setup_store(cfg):
    return ReplicaStore(cfg)


def full_selection(cfg, rid="x"):
    rel = cfg.relation(rid)
    return {j: frozenset(cfg.candidates(rid, j)) for j in range(1, rel.fragments + 1)}


def read_msg(cond=None):
    return Message(REQ_READ, "a1#0", "a1", "d1", payload=("x", cond or Condition.true()))


def write_msg(pairs):
    return Message(REQ_WRITE, "a1#0", "a1", "d1", payload=("x", tuple(sorted(pairs))))


def test_unanimous_replicas_answer(capfd=None):
    cfg = make_cfg()
    store = setup_store(cfg)
    t = Timestamp(2, 1, 1)
    for (d, n) in cfg.candidates("x", 1):
        store.store("x", 1, d, n, (0,), (5,), t)
    eff = answer_read_req(store, cfg, 1, read_msg(), full_selection(cfg))
    answer = eff.sends[0]
    assert answer.kind == ANSWER
    assert answer.payload[1] == frozenset({((0,), (5,))})


def test_latest_timestamp_wins():
    cfg = make_cfg()
    store = setup_store(cfg)
    store.store("x", 1, 1, 1, (0,), (1,), Timestamp(2, 1, 1))
    store.store("x", 1, 2, 1, (0,), (2,), Timestamp(3, 2, 2))
    eff = answer_read_req(store, cfg, 1, read_msg(), full_selection(cfg))
    assert eff.sends[0].payload[1] == frozenset({((0,), (2,))})


def test_fresh_tombstone_hides_key():
    cfg = make_cfg()
    store = setup_store(cfg)
    store.store("x", 1, 1, 1, (0,), (1,), Timestamp(2, 1, 1))
    store.store("x", 1, 2, 1, (0,), UNDEF, Timestamp(3, 2, 2))
    eff = answer_read_req(store, cfg, 1, read_msg(), full_selection(cfg))
    assert eff.sends[0].payload[1] == frozenset()


def test_selection_restricts_view():
    cfg = make_cfg()
    store = setup_store(cfg)
    store.store("x", 1, 1, 1, (0,), (1,), Timestamp(2, 1, 1))
    store.store("x", 1, 2, 1, (0,), (9,), Timestamp(3, 2, 2))
    eff = answer_read_req(store, cfg, 1, read_msg(Condition.true()), {1: frozenset({(1, 1)})})
    rows = eff.sends[0].payload[1]
    assert rows == frozenset({((0,), (1,))})


# Keys 0-5 of relation x hash into both fragments of make_cfg(fragments=2);
# key 9 is never stored.
POOL = [(n,) for n in range(6)]


@st.composite
def replica_contents(draw):
    """A store over two fragments with four copies each.  Every pool key has
    a few versions, each a value or a tombstone, and each copy holds one of
    them or lacks the key.  Version ``i`` is stamped tick ``i + 2`` at one
    data centre, so copies at one timestamp agree."""
    cfg = make_cfg(fragments=2, nodes=2, replication=2)
    assert {hash_fragment(cfg, "x", k) for k in POOL} == {1, 2}
    store = ReplicaStore(cfg)
    for k in POOL:
        versions = draw(st.lists(st.one_of(st.just(UNDEF), st.tuples(st.integers(0, 3))),
                                 min_size=1, max_size=3))
        j = hash_fragment(cfg, "x", k)
        for d, node in cfg.candidates("x", j):
            i = draw(st.integers(-1, len(versions) - 1))  # -1: the copy lacks the key
            if i >= 0:
                store.store("x", j, d, node, k, versions[i], Timestamp(i + 2, 1, 1))
    return cfg, store


key_conditions = st.one_of(
    st.sampled_from(POOL + [(9,)]).map(Condition.key_eq),
    st.sets(st.sampled_from(POOL + [(9,)]), max_size=4).map(Condition.key_in),
)


@given(contents=replica_contents(), cond=key_conditions, data=st.data())
def test_key_reads_answer_as_a_scan(contents, cond, data):
    # A key read looks its keys up; it must answer what folding each
    # selected fragment whole and then filtering answers.
    cfg, store = contents
    selections = {
        j: tuple(sorted(data.draw(st.sets(st.sampled_from(cfg.candidates("x", j)), min_size=1))))
        for j in (1, 2)
    }
    scan = frozenset(
        (k, v)
        for j, group in selections.items()
        for k, (v, _) in freshest(store.copies("x", j, group)).items()
        if v is not UNDEF and cond.matches(k, cfg, "x")
    )
    eff = answer_read_req(store, cfg, 1, read_msg(cond), selections)
    assert eff.sends[0].payload[1] == scan


def make_ticks(cfg, start=2):
    return dict.fromkeys(cfg.offset_ranks, start)


def apply_updates(store, ticks, eff):
    for loc, value in eff.updates.items():
        if loc[0] == "rep":
            _, rid, j, d, n, k = loc
            store.store(rid, j, d, n, k, value[0], value[1])
        elif loc[0] == "clock":
            ticks[loc[1]] = value


def test_write_updates_older_replicas():
    cfg = make_cfg()
    store, ticks = setup_store(cfg), make_ticks(cfg, start=5)
    store.store("x", 1, 1, 1, (0,), (0,), Timestamp(1, 1, 1))
    eff = perform_write_req(store, ticks, cfg, 1, write_msg([((0,), (1,))]), full_selection(cfg))
    apply_updates(store, ticks, eff)
    v, t = store.lookup("x", 1, 1, 1, (0,))
    assert v == (1,) and (t.tick, t.dc) == (5, 1)
    assert [(m.kind, m.payload) for m in eff.sends] == [(ACK, ("x",))]


def test_newer_timestamp_rejects_the_write():
    cfg = make_cfg()
    store, ticks = setup_store(cfg), make_ticks(cfg, start=2)
    ahead = Timestamp(9, 2, 2)
    store.store("x", 1, 2, 1, (0,), (9,), ahead)
    eff = perform_write_req(store, ticks, cfg, 1, write_msg([((0,), (1,))]), full_selection(cfg))
    apply_updates(store, ticks, eff)
    assert store.lookup("x", 1, 2, 1, (0,)) == ((9,), ahead)  # lost update
    # the losing write still updated the replica it could reach
    assert store.lookup("x", 1, 1, 1, (0,))[0] == (1,)


def test_write_all_reaches_every_replica():
    cfg = make_cfg(nodes=2, replication=2)
    store, ticks = setup_store(cfg), make_ticks(cfg)
    eff = perform_write_req(store, ticks, cfg, 1, write_msg([((0,), (4,))]), full_selection(cfg))
    apply_updates(store, ticks, eff)
    stamps = set()
    for (d, n) in cfg.candidates("x", 1):
        v, t = store.lookup("x", 1, d, n, (0,))
        assert v == (4,)
        stamps.add(t)
    assert len(stamps) == 1  # one fresh timestamp per request


def test_write_adjusts_lagging_clocks():
    cfg = make_cfg()
    store = setup_store(cfg)
    ticks = make_ticks(cfg)
    ticks[1] = 10  # writer ahead
    ticks[2] = 2
    eff = perform_write_req(store, ticks, cfg, 1, write_msg([((0,), (1,))]), full_selection(cfg))
    apply_updates(store, ticks, eff)
    # the write carried (10, d1); dc2's clock must now be at least that
    assert issue(cfg, ticks, 2)[0] >= Timestamp(10, 1, 1)
    assert ticks[1] == 11


def test_tombstone_write_propagates():
    cfg = make_cfg()
    store, ticks = setup_store(cfg), make_ticks(cfg)
    store.store("x", 1, 1, 1, (0,), (3,), Timestamp(1, 1, 1))
    eff = perform_write_req(store, ticks, cfg, 1, write_msg([((0,), UNDEF)]), full_selection(cfg))
    apply_updates(store, ticks, eff)
    v, t = store.lookup("x", 1, 1, 1, (0,))
    assert v is UNDEF and t.tick == 2
