"""Read/write replication policies.

Two views of the same policy: ``complies`` judges an up-front replica
selection (used where a data centre picks the replicas before acting), and
``sufficient`` judges response counters accumulated after the fact (used
where an answer collector decides when it has heard from enough replicas).
``is_appropriate`` classifies read/write policy pairs that guarantee overlap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import ClusterConfig, ConfigError


@dataclass(frozen=True)
class Policy:
    kind: str  # ALL | ONE | TWO | THREE | QUORUM | EACH_QUORUM | LOCAL_ONE | LOCAL_QUORUM
    q: Optional[Fraction] = None
    dc: Optional[int] = None

    def __post_init__(self):
        if self.kind in ("QUORUM", "EACH_QUORUM", "LOCAL_QUORUM"):
            if self.q is None or not (0 < self.q < 1):
                raise ConfigError(f"{self.kind} needs a quorum fraction strictly between 0 and 1")
        if self.kind in ("LOCAL_ONE", "LOCAL_QUORUM") and self.dc is None:
            raise ConfigError(f"{self.kind} needs a data centre")

    def __str__(self) -> str:
        if self.kind == "QUORUM":
            return f"QUORUM({self.q})"
        if self.kind == "EACH_QUORUM":
            return f"EACH_QUORUM({self.q})"
        if self.kind == "LOCAL_ONE":
            return f"LOCAL_ONE({self.dc})"
        if self.kind == "LOCAL_QUORUM":
            return f"LOCAL_QUORUM({self.q},{self.dc})"
        return self.kind


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


_MIN_CARD = {"ONE": 1, "TWO": 2, "THREE": 3}


def parse_policy(text: str) -> Policy:
    """Parse the scenario-file spelling of a policy.

    Accepted forms: ALL, ONE, TWO, THREE, QUORUM(n/d), EACH_QUORUM(n/d),
    LOCAL_ONE(dc), LOCAL_QUORUM(n/d,dc).
    """
    s = text.strip()
    plain = {"ALL": ALL, "ONE": ONE, "TWO": TWO, "THREE": THREE}
    if s.upper() in plain:
        return plain[s.upper()]
    if "(" not in s or not s.endswith(")"):
        raise ConfigError(f"cannot parse policy {text!r}")
    name, args = s[: s.index("(")].upper(), s[s.index("(") + 1 : -1]
    try:
        if name == "QUORUM":
            return quorum(Fraction(args.strip()))
        if name == "EACH_QUORUM":
            return each_quorum(Fraction(args.strip()))
        if name == "LOCAL_ONE":
            return local_one(int(args.strip()))
        if name == "LOCAL_QUORUM":
            frac, dc = args.split(",")
            return local_quorum(Fraction(frac.strip()), int(dc.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse policy {text!r}: {exc}") from None
    raise ConfigError(f"unknown policy {text!r}")


def complies(selection, policy: Policy, cfg: ClusterConfig, rid: str, j: int) -> bool:
    """Does the replica selection G for fragment ``j`` satisfy the policy?

    ``selection`` is a collection of (dc, node) pairs drawn from the
    fragment's candidate set.
    """
    g = frozenset(selection)
    candidates = frozenset(cfg.candidates(rid, j))
    if not g <= candidates:
        raise ConfigError("selection contains non-copy nodes")
    kind = policy.kind
    if kind == "ALL":
        return g == candidates
    if kind in _MIN_CARD:
        return len(g) >= _MIN_CARD[kind]
    if kind == "QUORUM":
        return policy.q * len(candidates) < len(g)
    if kind == "EACH_QUORUM":
        dcs = cfg.relation(rid).data_centres
        for d in dcs:
            c_d = sum(1 for (d2, _) in candidates if d2 == d)
            g_d = sum(1 for (d2, _) in g if d2 == d)
            if not policy.q * c_d < g_d:
                return False
        return True
    if kind == "LOCAL_ONE":
        return len(g) >= 1 and all(d2 == policy.dc for (d2, _) in g)
    if kind == "LOCAL_QUORUM":
        # Locality plus the global quorum bound on the full candidate set.
        return all(d2 == policy.dc for (d2, _) in g) and policy.q * len(candidates) < len(g)
    raise ConfigError(f"unknown policy kind {kind}")  # pragma: no cover


@dataclass(frozen=True)
class CountState:
    """Responses seen so far: per fragment, and per fragment and data centre.

    A value: ``add`` returns the successor and leaves this one as it is."""

    by_fragment: dict  # j -> int
    by_fragment_dc: dict  # (j, d) -> int

    @classmethod
    def zero(cls, cfg: ClusterConfig, rid: str) -> "CountState":
        rel = cfg.relation(rid)
        by_j = {j: 0 for j in range(1, rel.fragments + 1)}
        by_jd = {(j, d): 0 for j in by_j for d in rel.data_centres}
        return cls(by_j, by_jd)

    def add(self, d: int, xs) -> "CountState":
        by_j, by_jd = dict(self.by_fragment), dict(self.by_fragment_dc)
        for j, x in enumerate(xs, start=1):
            by_j[j] += x
            by_jd[(j, d)] += x
        return CountState(by_j, by_jd)


def sufficient(counts: CountState, policy: Policy, cfg: ClusterConfig, rid: str) -> bool:
    """Have enough replicas responded, for every fragment of the relation?"""
    rel = cfg.relation(rid)
    kind = policy.kind
    for j in range(1, rel.fragments + 1):
        gamma = len(cfg.candidates(rid, j))
        c = counts.by_fragment[j]
        if kind == "ALL":
            ok = c == gamma
        elif kind in _MIN_CARD:
            ok = c >= _MIN_CARD[kind]
        elif kind == "QUORUM":
            ok = policy.q * gamma < c
        elif kind == "EACH_QUORUM":
            ok = all(
                policy.q * _delta(cfg, rid, j, d) < counts.by_fragment_dc[(j, d)]
                for d in rel.data_centres
            )
        elif kind == "LOCAL_QUORUM":
            ok = policy.q * _delta(cfg, rid, j, policy.dc) < counts.by_fragment_dc.get(
                (j, policy.dc), 0
            )
        elif kind == "LOCAL_ONE":
            ok = counts.by_fragment_dc.get((j, policy.dc), 0) >= 1
        else:  # pragma: no cover
            raise ConfigError(f"unknown policy kind {kind}")
        if not ok:
            return False
    return True


def _delta(cfg: ClusterConfig, rid: str, j: int, d: int) -> int:
    return sum(1 for (d2, _) in cfg.candidates(rid, j) if d2 == d)


def is_appropriate(read: Policy, write: Policy) -> bool:
    """Policy pairs whose read and write replica sets are guaranteed to overlap."""
    if write.kind == "ALL" or read.kind == "ALL":
        return True
    if write.kind in ("QUORUM", "EACH_QUORUM") and read.kind in ("QUORUM", "EACH_QUORUM"):
        return write.q + read.q >= 1
    return False


def enumerate_compliant_selections(
    cfg: ClusterConfig, rid: str, j: int, policy: Policy, bound: Optional[int] = None
) -> list:
    """Up to ``bound`` compliant selections (all of them when ``bound`` is
    None), smallest first, lexicographic.

    An empty result means the policy cannot be satisfied on this fragment
    (for example THREE with only two replicas).
    """
    if bound is not None and bound < 1:
        raise ConfigError("bound must be >= 1")
    candidates = sorted(cfg.candidates(rid, j))
    out = []
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if complies(combo, policy, cfg, rid, j):
                out.append(frozenset(combo))
                if len(out) == bound:
                    return out
    return out
