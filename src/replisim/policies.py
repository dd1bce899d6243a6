"""Read/write replication policies.

Two views of the same policy, both judged by one per-fragment rule over
how many of the fragment's copies take part in each data centre:
``complies`` judges an up-front replica selection (used where a data centre
picks the replicas before acting), and ``sufficient`` judges response
counters accumulated after the fact (used where an answer collector decides
when it has heard from enough replicas).
``is_appropriate`` classifies read/write policy pairs that guarantee overlap.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import ClusterConfig, ConfigError, Record, RelationConfig
from .trace import read_int, read_ints

_KINDS = ("ALL", "ONE", "TWO", "THREE", "QUORUM", "EACH_QUORUM", "LOCAL_ONE", "LOCAL_QUORUM")
_LOCAL = ("LOCAL_ONE", "LOCAL_QUORUM")
_MIN_CARD = {"ONE": 1, "TWO": 2, "THREE": 3, "LOCAL_ONE": 1}  # least copies taking part


class Policy(Record):
    _fields = ("kind", "q", "dc")
    __slots__ = _fields

    def __init__(self, kind: str, q: Optional[Fraction] = None, dc: Optional[int] = None):
        if kind not in _KINDS:
            raise ConfigError(f"unknown policy kind {kind}")
        if kind in ("QUORUM", "EACH_QUORUM", "LOCAL_QUORUM"):
            if q is None or not (0 < q < 1):
                raise ConfigError(f"{kind} needs a quorum fraction strictly between 0 and 1")
        if kind in _LOCAL and dc is None:
            raise ConfigError(f"{kind} needs a data centre")
        self.kind, self.q, self.dc = kind, q, dc  # kind: one of _KINDS

    def __str__(self) -> str:
        args = ",".join(str(a) for a in (self.q, self.dc) if a is not None)
        return f"{self.kind}({args})" if args else self.kind


ALL = Policy("ALL")
ONE = Policy("ONE")
TWO = Policy("TWO")
THREE = Policy("THREE")


def quorum(q=Fraction(1, 2)) -> Policy:
    return Policy("QUORUM", q=Fraction(q))


def each_quorum(q=Fraction(1, 2)) -> Policy:
    return Policy("EACH_QUORUM", q=Fraction(q))


def local_one(dc: int) -> Policy:
    return Policy("LOCAL_ONE", dc=dc)


def local_quorum(q, dc: int) -> Policy:
    return Policy("LOCAL_QUORUM", q=Fraction(q), dc=dc)


def parse_policy(text: str) -> Policy:
    """Parse the scenario-file spelling of a policy.

    Accepted forms: ALL, ONE, TWO, THREE, QUORUM(n/d), EACH_QUORUM(n/d),
    LOCAL_ONE(dc), LOCAL_QUORUM(n/d,dc), each number an integer as
    ``trace.read_int`` reads it.
    """
    s = text.strip()
    plain = {"ALL": ALL, "ONE": ONE, "TWO": TWO, "THREE": THREE}
    if s.upper() in plain:
        return plain[s.upper()]
    if "(" not in s or not s.endswith(")"):
        raise ConfigError(f"cannot parse policy {text!r}")
    name, args = s[: s.index("(")].upper(), s[s.index("(") + 1 : -1]
    try:
        if name in ("QUORUM", "EACH_QUORUM"):
            return Policy(name, q=Fraction(*read_ints(args.strip(), "/", 2)))
        if name == "LOCAL_ONE":
            return local_one(read_int(args.strip()))
        if name == "LOCAL_QUORUM":
            frac, dc = args.split(",")
            return local_quorum(Fraction(*read_ints(frac.strip(), "/", 2)), read_int(dc.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse policy {text!r}: {exc}") from None
    raise ConfigError(f"unknown policy {text!r}")


def _enough(policy: Policy, rel: RelationConfig, by_dc: dict) -> bool:
    """The per-fragment rule both views share: do ``by_dc[d]`` of the
    fragment's copies taking part in each data centre ``d`` satisfy the
    policy?  Every data centre of the relation holds ``rel.replication``
    copies of each fragment (``ClusterConfig._validate``)."""
    kind, q, per_dc = policy.kind, policy.q, rel.replication
    if kind == "EACH_QUORUM":
        for d in rel.data_centres:
            if not q * per_dc < by_dc.get(d, 0):
                return False
        return True
    if kind in _LOCAL:  # only the policy's data centre counts
        taking_part, copies = by_dc.get(policy.dc, 0), per_dc
    else:
        taking_part, copies = sum(by_dc.values()), per_dc * len(rel.data_centres)
    if kind == "ALL":
        return taking_part == copies
    if kind in _MIN_CARD:
        return taking_part >= _MIN_CARD[kind]
    return q * copies < taking_part  # QUORUM, LOCAL_QUORUM


def complies(selection, policy: Policy, cfg: ClusterConfig, rid: str, j: int) -> bool:
    """Does the replica selection G for fragment ``j`` satisfy the policy?

    ``selection`` is a collection of (dc, node) pairs drawn from the
    fragment's candidate set.
    """
    g = frozenset(selection)
    candidates = cfg.copy_sets[(rid, j)]
    if not g <= candidates:
        raise ConfigError("selection contains non-copy nodes")
    rel = cfg.relation(rid)
    by_dc: dict = {}
    for d, _ in g:
        by_dc[d] = by_dc.get(d, 0) + 1
    if policy.kind in _LOCAL and by_dc.get(policy.dc, 0) != len(g):
        return False  # a copy outside the policy's data centre takes part
    # The one place cm1 differs from a cm2 delegate: LOCAL_QUORUM's quorum
    # is taken over the whole candidate set C, not over the local copies.
    if policy.kind == "LOCAL_QUORUM" and not policy.q * len(candidates) < len(g):
        return False
    return _enough(policy, rel, by_dc)


class CountState(NamedTuple):
    """Responses seen so far, per (fragment, data centre).

    A value: ``add`` returns the successor and leaves this one as it is."""

    by_fragment_dc: dict  # (j, d) -> int

    @classmethod
    def zero(cls, cfg: ClusterConfig, rid: str) -> "CountState":
        rel = cfg.relation(rid)
        return cls({(j, d): 0 for j in range(1, rel.fragments + 1) for d in rel.data_centres})

    def add(self, d: int, xs) -> "CountState":
        by_jd = dict(self.by_fragment_dc)
        for j, x in enumerate(xs, start=1):
            by_jd[(j, d)] += x
        return CountState(by_jd)


def sufficient(counts: CountState, policy: Policy, cfg: ClusterConfig, rid: str) -> bool:
    """Have enough replicas responded, for every fragment of the relation?"""
    rel = cfg.relation(rid)
    for j in range(1, rel.fragments + 1):
        by_dc = {d: counts.by_fragment_dc[(j, d)] for d in rel.data_centres}
        if not _enough(policy, rel, by_dc):
            return False
    return True


def is_appropriate(read: Policy, write: Policy) -> bool:
    """Policy pairs whose read and write replica sets are guaranteed to overlap."""
    if write.kind == "ALL" or read.kind == "ALL":
        return True
    if write.kind in ("QUORUM", "EACH_QUORUM") and read.kind in ("QUORUM", "EACH_QUORUM"):
        return write.q + read.q >= 1
    return False


def enumerate_compliant_selections(cfg: ClusterConfig, rid: str, j: int, policy: Policy) -> list:
    """Every compliant selection for fragment ``j``, smallest first, then
    lexicographic, each a sorted tuple of (dc, node) pairs.  Built once per
    (relation, fragment, policy) and kept in ``cfg.selection_memo``.

    An empty result means the policy cannot be satisfied on this fragment
    (for example THREE with only two replicas).
    """
    out = cfg.selection_memo.get((rid, j, policy))
    if out is None:
        candidates = sorted(cfg.candidates(rid, j))
        out = cfg.selection_memo[(rid, j, policy)] = [
            combo
            for size in range(1, len(candidates) + 1)
            for combo in itertools.combinations(candidates, size)
            if complies(combo, policy, cfg, rid, j)
        ]
    return out
