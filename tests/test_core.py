import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from replisim.core import (
    NEG_INF,
    UNDEF,
    ClusterConfig,
    ConfigError,
    FlatStore,
    RelationConfig,
    ReplicaStore,
    Timestamp,
    atom_sort_key,
    catch_up,
    hash_fragment,
    hash_key,
    issue,
    seed_replicas,
)
from replisim.messages import FWD, REQ_WRITE, Message


def make_cfg(fragments=1, dcs=(1, 2), nodes=1, replication=1, hash_max=255, arity=1):
    width, extra = divmod(hash_max + 1, fragments)
    ranges, lo = [], 0
    for j in range(fragments):
        hi = lo + width - 1 + (1 if j < extra else 0)
        ranges.append((lo, hi))
        lo = hi + 1
    rel = RelationConfig(
        rid="x",
        arity=arity,
        co_arity=1,
        hash_min=0,
        hash_max=hash_max,
        ranges=tuple(ranges),
        data_centres=tuple(dcs),
        nodes=nodes,
        replication=replication,
    )
    return ClusterConfig({"x": rel}, {d: d for d in dcs})


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def test_atom_order_ints_before_texts():
    atoms = ["b", 3, "a", -1]
    assert sorted(atoms, key=atom_sort_key) == [-1, 3, "a", "b"]


def test_atom_rejects_non_atoms():
    with pytest.raises(ConfigError):
        atom_sort_key(1.5)
    with pytest.raises(ConfigError):
        atom_sort_key(True)


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------


def test_neg_inf_is_minimum():
    assert NEG_INF < Timestamp(1, 1, 1)
    assert NEG_INF == NEG_INF


def test_offset_rank_breaks_tick_ties():
    t1 = Timestamp(3, 1, 1)
    t2 = Timestamp(3, 2, 2)
    assert t1 < t2
    assert t2 > t1


def test_tick_dominates_rank():
    assert Timestamp(2, 2, 2) < Timestamp(3, 1, 1)


ts_strategy = st.one_of(
    st.just(NEG_INF),
    st.tuples(st.integers(1, 9), st.sampled_from([1, 2, 3])).map(
        lambda p: Timestamp(p[0], p[1], p[1])
    ),
)


@given(ts_strategy, ts_strategy, ts_strategy)
def test_timestamp_order_is_total(a, b, c):
    assert [a < b, a == b, a > b].count(True) == 1
    if a <= b and b <= c:
        assert a <= c
    if a == b:
        assert a.dc == b.dc and hash(a) == hash(b)


@given(
    st.integers(1, 50),
    st.integers(1, 50),
    st.sampled_from([(1, 1), (2, 2)]),
    st.sampled_from([(1, 1), (2, 2)]),
)
def test_distinct_dcs_never_produce_equal_timestamps(n1, n2, dc1, dc2):
    t1, t2 = Timestamp(n1, *dc1), Timestamp(n2, *dc2)
    if dc1 != dc2:
        assert t1 != t2


def test_timestamps_of_one_configuration_order_and_compare_on_tick_and_rank():
    # ranks run against data-centre order, so (tick, rank) and (tick, dc) disagree
    cfg = ClusterConfig(make_cfg(dcs=(1, 2, 3)).relations, {1: 3, 2: 1, 3: 2})
    seeded = Timestamp(1, cfg.lowest_offset_dc(), 1)
    stamps = [NEG_INF, seeded] + [
        issue(cfg, dict.fromkeys(cfg.offset_ranks, tick), d)[0] for tick in range(2, 5) for d in (1, 2, 3)
    ]
    for a in stamps:
        for b in stamps:
            ka, kb = (a.tick, a.rank), (b.tick, b.rank)
            assert (a < b, a <= b, a == b, a > b) == (ka < kb, ka <= kb, ka == kb, ka > kb), (a, b)
            assert a != b or (a.dc == b.dc and hash(a) == hash(b))
    assert sorted(stamps)[2:5] == [Timestamp(2, 2, 1), Timestamp(2, 3, 2), Timestamp(2, 1, 3)]


def test_copies_and_pickles_keep_a_timestamps_value_hash_and_repr():
    fwd = Message(FWD, "a1#0", "d1", "d2", (REQ_WRITE, "x", (((0,), (1,)),), Timestamp(2, 1, 1)))
    for value in (Timestamp(3, 2, 1), NEG_INF, fwd):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
            assert hash(twin) == hash(value) and repr(twin) == repr(value)
    t = pickle.loads(pickle.dumps(Timestamp(3, 2, 1)))
    assert (t.tick, t.dc, t.rank, repr(t)) == (3, 2, 1, "t(3,d2)")


def test_fresh_timestamp_returns_then_advances():
    t, advance = issue(make_cfg(), {1: 5, 2: 5}, 1)
    assert (t.tick, t.dc) == (5, 1)
    assert advance == {("clock", 1): 6}


def test_fresh_timestamps_strictly_increase_and_stay_distinct():
    cfg, ticks = make_cfg(), {1: 2, 2: 2}
    seen = []
    for _ in range(10):
        for d in (1, 2):
            t, advance = issue(cfg, ticks, d)
            ticks[d] = advance[("clock", d)]
            seen.append(t)
    assert all(a < b for a, b in zip(seen[0::2], seen[2::2]))
    assert len(set(seen)) == len(seen)


def test_fresh_timestamp_unknown_dc():
    with pytest.raises(ConfigError):
        issue(make_cfg(dcs=(1,)), {1: 2}, 9)


def test_adjust_clock_same_dc_allows_equality():
    update = catch_up(make_cfg(dcs=(1,)), {1: 2}, 1, Timestamp(5, 1, 1))
    assert update == {("clock", 1): 5}


def test_adjust_clock_lower_rank_needs_next_tick():
    # Least n <= 7 with (n, d) >= (5, d') and rank(d) < rank(d') is 6,
    # by enumerating all candidates.
    t = Timestamp(5, 2, 2)
    least = min(n for n in range(1, 8) if Timestamp(n, 1, 1) >= t)
    assert least == 6
    update = catch_up(make_cfg(), {1: 2, 2: 2}, 1, t)
    assert update == {("clock", 1): 6}


def test_adjust_clock_no_change_when_ahead():
    assert catch_up(make_cfg(), {1: 9, 2: 9}, 1, Timestamp(5, 2, 2)) == {}


@given(st.integers(1, 12), st.sampled_from([1, 2, 3]), ts_strategy)
def test_catch_up_moves_to_the_least_tick_at_or_past(tick, d, t):
    # Oracle: enumerate every candidate tick for (n, d) >= t.
    least = min(n for n in range(1, t.tick + 2) if Timestamp(n, d, d) >= t)
    update = catch_up(make_cfg(dcs=(1, 2, 3)), {1: tick, 2: tick, 3: tick}, d, t)
    assert update == ({("clock", d): least} if tick < least else {})


# ---------------------------------------------------------------------------
# hashing and fragmentation
# ---------------------------------------------------------------------------


def test_single_range_is_total():
    cfg = make_cfg(fragments=1)
    for k in [(0,), (17,), ("abc",), (-4,)]:
        assert hash_fragment(cfg, "x", k) == 1


def test_hash_fragment_deterministic():
    cfg = make_cfg(fragments=4)
    for k in [(0,), ("zz",), (123456,)]:
        assert hash_fragment(cfg, "x", k) == hash_fragment(cfg, "x", k)


def test_hash_known_values():
    # Pinned from an independent FNV-1a fold (tag byte + big-endian payload,
    # offset basis 14695981039346656037, prime 1099511628211).
    assert hash_key((0,), 0, 255) == 172
    assert hash_key((1,), 0, 255) == 95
    assert hash_key(("a",), 0, 255) == 44
    assert hash_key((42, "xy"), 0, 255) == 123


def _fixture_corpus():
    rng = random.Random(20260808)
    corpus = []
    for _ in range(1000):
        if rng.randrange(2):
            corpus.append((rng.randrange(-(10**6), 10**6),))
        else:
            corpus.append(
                ("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randrange(1, 9))),)
            )
    return corpus


def test_hash_fragment_distribution_fixture():
    # Frozen regression counts for the bundled hash over a fixed 1000-key
    # corpus on [0,255] with 4 equal ranges; every fragment is hit.
    cfg = make_cfg(fragments=4)
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for k in _fixture_corpus():
        counts[hash_fragment(cfg, "x", k)] += 1
    assert counts == {1: 251, 2: 250, 3: 241, 4: 258}
    assert all(c >= 1 for c in counts.values())


def test_hash_fragment_arity_mismatch():
    cfg = make_cfg()
    with pytest.raises(ConfigError):
        hash_fragment(cfg, "x", (1, 2))
    with pytest.raises(ConfigError):
        hash_fragment(cfg, "nope", (1,))


def _fragment_by_range(cfg, k):
    rel = cfg.relation("x")
    v = hash_key(k, rel.hash_min, rel.hash_max)
    return next(j for j, (lo, hi) in enumerate(rel.ranges, start=1) if lo <= v <= hi)


_atoms = st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=4))


@given(keys=st.lists(st.tuples(_atoms, _atoms), min_size=1, max_size=12))
def test_memoised_fragment_agrees_with_hash_and_ranges(keys):
    # A fresh config per example, so the first call of each key misses the
    # memo and the later calls hit it.
    cfg = make_cfg(fragments=3, arity=2)
    first = [hash_fragment(cfg, "x", k) for k in keys]
    assert first == [_fragment_by_range(cfg, k) for k in keys]
    assert [hash_fragment(cfg, "x", k) for k in reversed(keys)] == first[::-1]


@pytest.mark.parametrize(
    "key, rid",
    [
        # equal to (1,) and hashing alike; a plain dict memo returns 1's fragment
        ((True,), "x"),
        ((1.0,), "x"),
        ((1, 1), "x"),
        ((1,), "nope"),
    ],
    ids=["bool", "float", "wrong-arity", "unknown-relation"],
)
def test_memoised_fragment_still_refuses_what_the_fold_refuses(key, rid):
    cfg = make_cfg(fragments=4)
    hash_fragment(cfg, "x", (1,))
    hash_fragment(cfg, "x", (1,))
    with pytest.raises(ConfigError):
        hash_fragment(cfg, rid, key)
    # (1,)'s own location, so only the key itself can be at fault
    with pytest.raises(ConfigError):
        ReplicaStore(cfg).store(rid, hash_fragment(cfg, "x", (1,)), 1, 1, key, (0,), Timestamp(2, 1, 1))


# ---------------------------------------------------------------------------
# cluster config
# ---------------------------------------------------------------------------


def test_copy_table_has_replication_copies_per_dc():
    cfg = make_cfg(fragments=2, nodes=3, replication=2)
    for j in (1, 2):
        for d in (1, 2):
            assert sum(1 for (d2, _) in cfg.candidates("x", j) if d2 == d) == 2


def test_duplicate_offset_ranks_rejected():
    rel = RelationConfig("x", 1, 1, 0, 255, ((0, 255),), (1, 2), 1, 1)
    with pytest.raises(ConfigError):
        ClusterConfig({"x": rel}, {1: 7, 2: 7})


def test_bad_ranges_rejected():
    rel = RelationConfig("x", 1, 1, 0, 255, ((0, 100), (102, 255)), (1, 2), 1, 1)
    with pytest.raises(ConfigError):
        ClusterConfig({"x": rel}, {1: 1, 2: 2})


def test_replication_beyond_nodes_rejected():
    rel = RelationConfig("x", 1, 1, 0, 255, ((0, 255),), (1, 2), 1, 2)
    with pytest.raises(ConfigError):
        ClusterConfig({"x": rel}, {1: 1, 2: 2})


def test_zero_nodes_rejected_before_placement():
    # placement takes each fragment's first node modulo the relation's nodes
    rel = RelationConfig("x", 1, 1, 0, 255, ((0, 255),), (1, 2), 0, 1)
    with pytest.raises(ConfigError, match="x: replication must be within 1..nodes"):
        ClusterConfig({"x": rel}, {1: 1, 2: 2})


def test_data_centre_listed_twice_rejected():
    rel = RelationConfig("x", 1, 1, 0, 255, ((0, 255),), (1, 1), 1, 1)
    with pytest.raises(ConfigError, match="x: a data centre is listed twice"):
        ClusterConfig({"x": rel}, {1: 1, 2: 2})


# ---------------------------------------------------------------------------
# stores
# ---------------------------------------------------------------------------


def test_replica_lookup_absent_reads_undef_neg_inf():
    cfg = make_cfg()
    store = ReplicaStore(cfg)
    assert store.lookup("x", 1, 1, 1, (0,)) == (UNDEF, NEG_INF)


def test_replica_read_your_write():
    cfg = make_cfg()
    store = ReplicaStore(cfg)
    t = Timestamp(2, 1, 1)
    store.store("x", 1, 1, 1, (0,), (5,), t)
    assert store.lookup("x", 1, 1, 1, (0,)) == ((5,), t)


def test_replica_tombstone_is_readable():
    cfg = make_cfg()
    store = ReplicaStore(cfg)
    t = Timestamp(3, 2, 2)
    store.store("x", 1, 2, 1, (0,), UNDEF, t)
    assert store.lookup("x", 1, 2, 1, (0,)) == (UNDEF, t)


def test_replica_lookup_on_non_copy_node_fails():
    cfg = make_cfg()
    store = ReplicaStore(cfg)
    with pytest.raises(ConfigError):
        store.lookup("x", 1, 1, 9, (0,))


def test_replica_store_rejects_wrong_fragment():
    cfg = make_cfg(fragments=4)
    store = ReplicaStore(cfg)
    # key (0,) hashes to 172, which lies in fragment 3 of four equal ranges
    store.store("x", 3, 1, 1, (0,), (1,), Timestamp(2, 1, 1))
    with pytest.raises(ConfigError):
        store.store("x", 1, 1, 1, (0,), (1,), Timestamp(2, 1, 1))


def test_replica_store_rejects_timestamp_regression():
    cfg = make_cfg()
    store = ReplicaStore(cfg)
    store.store("x", 1, 1, 1, (0,), (1,), Timestamp(5, 1, 1))
    with pytest.raises(ConfigError):
        store.store("x", 1, 1, 1, (0,), (2,), Timestamp(4, 1, 1))


def test_flat_store_undef_removes():
    flat = FlatStore()
    flat.set("x", (0,), (1,))
    flat.set("x", (0,), UNDEF)
    assert flat.get("x", (0,)) is UNDEF
    assert flat.data == {}


def test_seed_replicas_puts_initial_record_everywhere():
    cfg = make_cfg(nodes=2, replication=2)
    flat = FlatStore()
    flat.set("x", (0,), (7,))
    store = seed_replicas(cfg, flat)
    for (d, node) in cfg.candidates("x", 1):
        v, t = store.lookup("x", 1, d, node, (0,))
        assert v == (7,)
        assert (t.tick, t.dc) == (1, 1)
