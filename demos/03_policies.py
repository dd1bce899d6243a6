"""Policy arithmetic: selection-time compliance, collection-time
sufficiency, and which read/write pairs guarantee overlap."""

import itertools
from fractions import Fraction

from replisim import (
    ALL,
    ONE,
    TWO,
    CountState,
    complies,
    each_quorum,
    enumerate_compliant_selections,
    is_appropriate,
    quorum,
    sufficient,
)
from replisim.core import ClusterConfig, RelationConfig

HALF = Fraction(1, 2)

# one relation, two data centres, three copies per data centre
rel = RelationConfig("x", 1, 1, 0, 255, ((0, 255),), (1, 2), 3, 3)
cfg = ClusterConfig({"x": rel}, {1: 1, 2: 2})
candidates = cfg.candidates("x", 1)
print(f"candidate replicas of fragment 1: {candidates}")
print()

print("compliance of selections against QUORUM(1/2) (6 candidates, need > 3):")
for size in range(1, 7):
    g = candidates[:size]
    print(f"   |G|={size}: {complies(g, quorum(HALF), cfg, 'x', 1)}")
print()

print("minimal compliant selections, lexicographic:")
for policy in (ONE, TWO, quorum(HALF), each_quorum(HALF), ALL):
    sels = enumerate_compliant_selections(cfg, "x", 1, policy)[:3]
    show = [sorted(s) for s in sels[:2]]
    print(f"   {str(policy):18} -> {len(sels)}+ options, first {show}")
print()

print("collection-time sufficiency for EACH_QUORUM(1/2) (per-dc majorities):")
for d1_count, d2_count in itertools.product(range(4), repeat=2):
    counts = CountState.zero(cfg, "x").add(1, (d1_count,)).add(2, (d2_count,))
    if sufficient(counts, each_quorum(HALF), cfg, "x"):
        print(f"   counts d1={d1_count} d2={d2_count}: sufficient")
print()

print("appropriate read/write combinations (guaranteed overlap):")
pairs = [
    (ONE, ALL),
    (ALL, ONE),
    (quorum(HALF), quorum(HALF)),
    (each_quorum(HALF), quorum(HALF)),
    (quorum(Fraction(1, 3)), quorum(HALF)),
    (ONE, ONE),
]
for read, write in pairs:
    print(f"   read={str(read):18} write={str(write):18} -> {is_appropriate(read, write)}")
