"""Ground model: one memory agent executes each request atomically on a
single flat store.  The same two operations double as the single-copy oracle
that all trace checkers replay against.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .core import UNDEF, ClusterConfig, ConfigError, FlatStore, hash_fragment, sorted_pairs


class Condition(NamedTuple):
    """Decidable key filter for read requests.

    Kinds: TRUE (every key), KEY_EQ (one key), KEY_IN (a finite key set),
    HASH_RANGE (keys hashing into a given fragment).
    """

    kind: str
    key: Optional[tuple] = None
    keys: Optional[frozenset] = None
    fragment: Optional[int] = None

    @classmethod
    def true(cls) -> "Condition":
        return cls("TRUE")

    @classmethod
    def key_eq(cls, k: tuple) -> "Condition":
        return cls("KEY_EQ", key=tuple(k))

    @classmethod
    def key_in(cls, ks) -> "Condition":
        return cls("KEY_IN", keys=frozenset(tuple(k) for k in ks))

    @classmethod
    def hash_range(cls, j: int) -> "Condition":
        return cls("HASH_RANGE", fragment=j)

    def matches(self, k: tuple, cfg: ClusterConfig, rid: str) -> bool:
        if self.kind == "TRUE":
            return True
        if self.kind == "KEY_EQ":
            return k == self.key
        if self.kind == "KEY_IN":
            return k in self.keys
        if self.kind == "HASH_RANGE":
            return hash_fragment(cfg, rid, k) == self.fragment
        raise ConfigError(f"unknown condition kind {self.kind}")  # pragma: no cover

    def named_keys(self) -> Optional[Iterable[tuple]]:
        """The keys a KEY_EQ or KEY_IN condition names, which a read looks
        up; None for TRUE and HASH_RANGE, which scan."""
        if self.kind == "KEY_EQ":
            return (self.key,)
        if self.kind == "KEY_IN":
            return self.keys
        return None

    def check_arity(self, cfg: ClusterConfig, rid: str) -> None:
        arity = cfg.relation(rid).arity
        for k in self.named_keys() or ():
            if len(k) != arity:
                raise ConfigError(f"condition key {k!r} does not match arity {arity} of {rid}")
        if self.kind == "HASH_RANGE" and not 1 <= self.fragment <= cfg.relation(rid).fragments:
            raise ConfigError(f"fragment {self.fragment} out of range for {rid}")


# A write set maps keys to value tuples; UNDEF requests a deletion.
WriteSet = dict


def check_writeset(p: WriteSet, cfg: ClusterConfig, rid: str) -> None:
    rel = cfg.relation(rid)
    for k, v in p.items():
        if len(k) != rel.arity:
            raise ConfigError(f"write key {k!r} does not match arity {rel.arity} of {rid}")
        if v is not UNDEF and len(v) != rel.co_arity:
            raise ConfigError(f"write value {v!r} does not match co-arity {rel.co_arity} of {rid}")


def db_answer_read(store: FlatStore, cfg: ClusterConfig, rid: str, cond: Condition) -> frozenset:
    """Answer set {(k, v)}: defined records whose key satisfies the condition.
    Key conditions look their keys up; the others scan the relation."""
    cond.check_arity(cfg, rid)
    data = store.data
    keys = cond.named_keys()
    if keys is None:
        return frozenset(
            (k, v) for (r, k), v in data.items() if r == rid and cond.matches(k, cfg, rid)
        )
    return frozenset([(k, v) for k in keys if (v := data.get((rid, k), UNDEF)) is not UNDEF])


def write_pairs(rid: str, pairs) -> tuple:
    """The ((rid, k), v) pairs of a write set's (k, v) pairs, in the order
    ``db_perform_write`` applies them."""
    return tuple(((rid, k), v) for k, v in sorted_pairs(pairs))


def db_perform_write(store: FlatStore, cfg: ClusterConfig, rid: str, p: WriteSet) -> None:
    """Apply the write set in place: UNDEF deletes, anything else upserts."""
    check_writeset(p, cfg, rid)
    for (_, k), v in write_pairs(rid, p.items()):
        store.set(rid, k, v)
