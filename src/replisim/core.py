"""Value types for a replicated key-value memory: atoms, logical timestamps,
cluster layout, hash fragmentation, replica stores and flat stores.

Everything here is either an immutable value or a small mutable container
owned by exactly one simulation instance.  Nothing does I/O.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Union

Atom = Union[int, str]
KeyTuple = tuple  # tuple of atoms, length = relation arity


class _Undef:
    """Marker for an undefined value tuple (missing record / tombstone)."""

    _instance: Optional["_Undef"] = None

    def __new__(cls) -> "_Undef":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEF"

    def __reduce__(self):
        return (_Undef, ())


UNDEF = _Undef()

# A value tuple is either a tuple of atoms (length = co-arity) or UNDEF.
ValueTuple = Union[tuple, _Undef]


class ConfigError(Exception):
    """Invalid cluster configuration or an operation outside its preconditions.

    A check of one relation's layout names the field at fault in ``field``,
    as (relation id, scenario field name), so a scenario file's diagnostic
    can carry the line that sets it."""

    def __init__(self, message: str, field: tuple = ()):
        super().__init__(message)
        self.field = field


class Record:
    """A slotted value record, built without generated code.

    ``_fields`` names a subclass's fields in constructor order, and its
    ``__slots__`` holds them plus any cached value.  Nothing assigns to a
    field after the constructor.  Two records are equal when they are of
    one class with equal fields (never equal to a plain tuple), a record
    hashes as the tuple of its fields, and ``repr`` names the fields.  A
    copy or pickle is rebuilt by the constructor from the fields, so no
    cache travels with it, and ``_replace(field=...)`` derives a changed
    copy, as on a named tuple."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # record -> the tuple of its fields

    def __eq__(self, other):
        return self._values(self) == other._values(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), self._values(self)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))


def atom_sort_key(a: Atom) -> tuple:
    """Total order on atoms: integers first (numerically), then texts."""
    if isinstance(a, bool) or not isinstance(a, (int, str)):
        raise ConfigError(f"not an atom: {a!r}")
    if isinstance(a, int):
        return (0, a, "")
    return (1, 0, a)


def tuple_sort_key(t: tuple) -> tuple:
    return tuple(atom_sort_key(a) for a in t)


def sorted_pairs(pairs) -> tuple:
    """(key, value) pairs in key order, the order writes apply and rows render."""
    return tuple(sorted(pairs, key=lambda kv: tuple_sort_key(kv[0])))


# ---------------------------------------------------------------------------
# Timestamps
# ---------------------------------------------------------------------------


class Timestamp(tuple):
    """Logical time ``tick`` plus the issuing data centre's offset rank.

    Built as ``Timestamp(tick, dc, rank)`` and laid out as the tuple
    ``(tick, rank, dc)``, so it orders, compares and hashes as a tuple does.
    Ranks are injective per data centre (``ClusterConfig._validate``), so
    timestamps of one configuration order and compare on (tick, rank), and
    timestamps issued by distinct data centres are never equal.
    ``NEG_INF`` (tick 0) sits below every issued timestamp.
    """

    __slots__ = ()

    def __new__(cls, tick: int, dc: int, rank: int) -> "Timestamp":
        return tuple.__new__(cls, (tick, rank, dc))

    tick = property(itemgetter(0))
    rank = property(itemgetter(1))
    dc = property(itemgetter(2))

    def __getnewargs__(self) -> tuple:
        return self[0], self[2], self[1]

    def is_neg_inf(self) -> bool:
        return self[0] == 0

    def __repr__(self) -> str:
        if self.is_neg_inf():
            return "-inf"
        return f"t({self.tick},d{self.dc})"


NEG_INF = Timestamp(0, -1, -1)


# ---------------------------------------------------------------------------
# Logical clocks
# ---------------------------------------------------------------------------

# A clock is one tick per data centre (``ticks``: dc -> tick), ranked by
# ``cfg.offset_ranks``.  It advances by one exactly when it issues a
# timestamp, and jumps forward to catch up with a received future
# timestamp.  The functions below only compute updates; the engine applies
# them and checks that ticks never decrease.

START_TICK = 2  # every clock's first tick; seeded replicas carry tick 1


def issue(cfg: "ClusterConfig", ticks: Mapping[int, int], d: int) -> tuple:
    """The timestamp ``d`` issues now, and the update that advances its
    clock by one for having issued it."""
    if d not in ticks:
        raise ConfigError(f"unknown data centre {d}")
    t = Timestamp(ticks[d], d, cfg.offset_ranks[d])
    return t, {("clock", d): t.tick + 1}


def catch_up(cfg: "ClusterConfig", ticks: Mapping[int, int], d: int, t: Timestamp) -> dict:
    """The update that moves ``d``'s clock to the least tick whose timestamp
    at ``d`` is >= ``t``; empty when the clock is there already."""
    if d not in ticks:
        raise ConfigError(f"unknown data centre {d}")
    least = t.tick if cfg.offset_ranks[d] >= t.rank else t.tick + 1
    return {("clock", d): least} if ticks[d] < least else {}


# ---------------------------------------------------------------------------
# Cluster configuration
# ---------------------------------------------------------------------------


class RelationConfig(NamedTuple):
    """Static layout of one replicated relation."""

    rid: str
    arity: int
    co_arity: int
    hash_min: int
    hash_max: int
    ranges: tuple  # ((lo, hi), ...) ascending, partitioning [hash_min, hash_max]
    data_centres: tuple  # sorted dc ids
    nodes: int  # nodes per data centre
    replication: int  # replicas of each fragment per data centre

    @property
    def fragments(self) -> int:
        return len(self.ranges)


class ClusterConfig:
    """Relations plus the copy placement, offsets and liveness tables.

    ``copies[(rid, j)]`` lists the (dc, node) pairs holding fragment ``j`` of
    relation ``rid``, and ``local_groups[(rid, d)]`` maps each fragment to
    its alive copies in data centre ``d``.  Placement is a deterministic
    ring assignment: fragment j occupies ``replication`` consecutive node
    slots starting at node ``1 + (j-1) mod nodes`` in every data centre of
    the relation.  Two memos fill as they are read: ``fragment_memo`` holds
    each (relation, key)'s fragment, and ``selection_memo`` each
    (relation, fragment, policy)'s list of compliant replica selections.
    """

    def __init__(
        self,
        relations: Mapping[str, RelationConfig],
        offset_ranks: Mapping[int, int],
        down_nodes: Iterable[tuple] = (),
    ):
        self.relations = dict(relations)
        self.offset_ranks = dict(offset_ranks)
        self.down_nodes = frozenset(down_nodes)  # (dc, node) pairs
        self.fragment_memo: dict = {}  # (rid, key) -> fragment, filled by hash_fragment
        # (rid, j, policy) -> compliant selections, filled by enumerate_compliant_selections
        self.selection_memo: dict = {}
        self.copies: dict = {}
        self.copy_sets: dict = {}  # (rid, j) -> the same copies as a frozenset, for membership tests
        self.local_groups: dict = {}
        self._validate()  # before placement, which takes slots modulo each relation's nodes
        for rid, rel in self.relations.items():
            for j in range(1, rel.fragments + 1):
                placed = []
                for d in rel.data_centres:
                    start = (j - 1) % rel.nodes
                    for s in range(rel.replication):
                        placed.append((d, 1 + (start + s) % rel.nodes))
                self.copies[(rid, j)] = tuple(sorted(placed))
                self.copy_sets[(rid, j)] = frozenset(placed)
            for d in self.offset_ranks:
                self.local_groups[(rid, d)] = {
                    j: tuple((d, node) for d2, node in self.copies[(rid, j)]
                             if d2 == d and self.alive(d, node))
                    for j in range(1, rel.fragments + 1)
                }

    def _validate(self) -> None:
        ranks = list(self.offset_ranks.values())
        if len(set(ranks)) != len(ranks):
            raise ConfigError("offset ranks must be pairwise distinct")
        for rid, rel in self.relations.items():
            if rel.arity < 1 or rel.co_arity < 1:
                raise ConfigError(f"{rid}: arity and co-arity must be >= 1",
                                  (rid, "arity" if rel.arity < 1 else "coarity"))
            if rel.replication < 1 or rel.replication > rel.nodes:
                raise ConfigError(f"{rid}: replication must be within 1..nodes",
                                  (rid, "nodes" if rel.nodes < 1 else "replication"))
            if len(set(rel.data_centres)) != len(rel.data_centres):
                raise ConfigError(f"{rid}: a data centre is listed twice")
            for d in rel.data_centres:
                if d not in self.offset_ranks:
                    raise ConfigError(f"{rid}: data centre {d} has no offset rank")
            lo_expected = rel.hash_min
            for idx, (lo, hi) in enumerate(rel.ranges):
                if lo != lo_expected or hi < lo:
                    raise ConfigError(
                        f"{rid}: ranges must partition "
                        f"[{rel.hash_min},{rel.hash_max}] in ascending order",
                        (rid, "ranges"),
                    )
                lo_expected = hi + 1
            if lo_expected != rel.hash_max + 1:
                raise ConfigError(f"{rid}: ranges do not cover the hash interval", (rid, "ranges"))

    def relation(self, rid: str) -> RelationConfig:
        try:
            return self.relations[rid]
        except KeyError:
            raise ConfigError(f"unknown relation {rid!r}") from None

    def is_copy(self, rid: str, j: int, d: int, node: int) -> bool:
        return (d, node) in self.copy_sets.get((rid, j), ())

    def candidates(self, rid: str, j: int) -> tuple:
        """All (dc, node) pairs holding a replica of fragment ``j``."""
        return self.copies[(rid, j)]

    def alive(self, d: int, node: int) -> bool:
        return (d, node) not in self.down_nodes

    def lowest_offset_dc(self) -> int:
        return min(self.offset_ranks, key=lambda d: self.offset_ranks[d])

    def all_dcs(self) -> tuple:
        return tuple(sorted(self.offset_ranks))


# ---------------------------------------------------------------------------
# Hash fragmentation
# ---------------------------------------------------------------------------

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


def _atom_bytes(a: Atom) -> bytes:
    # Tag byte plus big-endian payload; fixed so fragment assignment is
    # reproducible across implementations.
    if isinstance(a, bool) or not isinstance(a, (int, str)):
        raise ConfigError(f"not an atom: {a!r}")
    if isinstance(a, int):
        return b"\x01" + (a & _MASK64).to_bytes(8, "big")
    return b"\x02" + a.encode("utf-8")


def hash_key(k: tuple, lo: int, hi: int) -> int:
    """64-bit FNV-1a fold of the key's atoms, reduced into [lo, hi]."""
    h = _FNV_OFFSET
    for a in k:
        for b in _atom_bytes(a):
            h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return lo + h % (hi - lo + 1)


_PLAIN_ATOM_TYPES = frozenset((int, str))


def hash_fragment(cfg: ClusterConfig, rid: str, k: tuple) -> int:
    """Fragment index (1-based) whose range contains the key's hash.

    Each (relation, key) is hashed once per ``ClusterConfig``.  A memo hit
    counts only for a key of plain ints and strs: ``True == 1`` and
    ``1.0 == 1`` hash alike, so ``(True,)`` finds ``(1,)``'s entry and
    must still be refused as no atom.
    """
    try:
        j = cfg.fragment_memo.get((rid, k))
    except TypeError:  # an unhashable key is not remembered; the fold judges it
        return _hash_fragment(cfg, rid, k)
    if j is None or not all(map(_PLAIN_ATOM_TYPES.__contains__, map(type, k))):
        j = cfg.fragment_memo[(rid, k)] = _hash_fragment(cfg, rid, k)
    return j


def _hash_fragment(cfg: ClusterConfig, rid: str, k: tuple) -> int:
    rel = cfg.relation(rid)
    if len(k) != rel.arity:
        raise ConfigError(f"key {k!r} does not match arity {rel.arity} of {rid}")
    v = hash_key(k, rel.hash_min, rel.hash_max)
    for j, (lo, hi) in enumerate(rel.ranges, start=1):
        if lo <= v <= hi:
            return j
    raise ConfigError(f"hash value {v} outside ranges of {rid}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


class ReplicaStore:
    """Family of replica maps: (rid, j, dc, node) -> {key: (value, timestamp)}.

    Absent keys read as (UNDEF, NEG_INF).  Stored timestamps never decrease;
    callers update through :meth:`store`, which enforces that.
    """

    def __init__(self, cfg: ClusterConfig):
        self.cfg = cfg
        self.data: dict = {}  # (rid, j, d, node) -> {k: (v, t)}

    def clone(self) -> "ReplicaStore":
        s = ReplicaStore.__new__(ReplicaStore)
        s.cfg = self.cfg
        s.data = {loc: dict(m) for loc, m in self.data.items()}
        return s

    def _check_loc(self, rid: str, j: int, d: int, node: int) -> None:
        if not self.cfg.is_copy(rid, j, d, node):
            raise ConfigError(f"({d},{node}) holds no replica of {rid}/{j}")

    def lookup(self, rid: str, j: int, d: int, node: int, k: tuple):
        self._check_loc(rid, j, d, node)
        if hash_fragment(self.cfg, rid, k) != j:
            raise ConfigError(f"key {k!r} does not hash into fragment {j} of {rid}")
        return self.data.get((rid, j, d, node), {}).get(k, (UNDEF, NEG_INF))

    def peek(self, rid: str, j: int, d: int, node: int, k: tuple):
        """Like lookup but without precondition checks (engine internal)."""
        return self.data.get((rid, j, d, node), {}).get(k, (UNDEF, NEG_INF))

    def store(self, rid: str, j: int, d: int, node: int, k: tuple, v, t: Timestamp) -> None:
        self._check_loc(rid, j, d, node)
        if hash_fragment(self.cfg, rid, k) != j:
            raise ConfigError(f"key {k!r} does not hash into fragment {j} of {rid}")
        old_v, old_t = self.peek(rid, j, d, node, k)
        if t < old_t:
            raise ConfigError(f"timestamp regression at {(rid, j, d, node, k)}")
        self.data.setdefault((rid, j, d, node), {})[k] = (v, t)

    def copies(self, rid: str, j: int, group: Iterable[tuple]) -> list:
        """The maps key -> (value, timestamp) of the (dc, node) copies in
        ``group`` of fragment ``j``."""
        return [self.data.get((rid, j, d, node), {}) for d, node in group]

    def conditional_write(self, rid: str, groups: Mapping, p: Mapping, t: Timestamp) -> dict:
        """Update set of writing ``p`` at timestamp ``t`` over ``groups``
        (fragment -> (dc, node) copies): each copy takes each key of its
        fragment whose stored timestamp is older than ``t``."""
        fragment = {k: hash_fragment(self.cfg, rid, k) for k in sorted(p, key=tuple_sort_key)}
        return {
            ("rep", rid, j, d, node, k): (p[k], t)
            for j, group in groups.items()
            for d, node in sorted(group)
            for k, jk in fragment.items()
            if jk == j and self.peek(rid, j, d, node, k)[1] < t
        }

    def state_key(self) -> frozenset:
        return frozenset((loc, k, vt) for loc, copy in self.data.items() for k, vt in copy.items())


def freshest(copies: Iterable[Mapping], keys: Optional[Iterable[tuple]] = None) -> dict:
    """Freshest (value, timestamp) per key over a group of copies, each a
    mapping key -> (value, timestamp).  Given ``keys``, only those keys are
    looked up and folded; a key no copy holds stays out of the result.

    Distinct-offset timestamps mean copies holding a key at the same
    timestamp hold the same value; a group where they differ raises.
    """
    best: dict = {}
    for copy in copies:
        items = copy.items() if keys is None else [(k, copy[k]) for k in keys if k in copy]
        for k, (v, t) in items:
            cur = best.get(k)
            if cur is None or cur[1] < t:
                best[k] = (v, t)
            elif cur[1] == t and cur[0] != v:
                raise ConfigError(
                    f"copies of {k!r} hold different values at the maximal timestamp {t}: "
                    f"{cur[0]!r} vs {v!r}"
                )
    return best


class FlatStore:
    """Single-copy store: (rid, key) -> value tuple; UNDEF entries are absent."""

    def __init__(self):
        self.data: dict = {}

    def clone(self) -> "FlatStore":
        s = FlatStore.__new__(FlatStore)
        s.data = dict(self.data)
        return s

    def get(self, rid: str, k: tuple):
        return self.data.get((rid, k), UNDEF)

    def set(self, rid: str, k: tuple, v) -> None:
        if v is UNDEF:
            self.data.pop((rid, k), None)
        else:
            self.data[(rid, k)] = v

    def state_key(self) -> frozenset:
        return frozenset(self.data.items())


def seed_replicas(cfg: ClusterConfig, flat: FlatStore) -> ReplicaStore:
    """Copy initial flat records onto every replica with one shared timestamp.

    The seeding timestamp is tick 1 at the lowest-offset data centre, below
    any timestamp a clock issues (clocks start at ``START_TICK``), so all
    replicas agree on the initial state.
    """
    store = ReplicaStore(cfg)
    d0 = cfg.lowest_offset_dc()
    t0 = Timestamp(1, d0, cfg.offset_ranks[d0])
    for (rid, k), v in flat.data.items():
        j = hash_fragment(cfg, rid, k)
        # a new store, copies of the key's own fragment: nothing to check
        for (d, node) in cfg.candidates(rid, j):
            store.data.setdefault((rid, j, d, node), {})[k] = (v, t0)
    return store
