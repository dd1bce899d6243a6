"""Trace predicates for schedule search.

A predicate takes (trace, scenario) and returns True on traces exhibiting
the behaviour being hunted.  Predicates here read only each agent's own
payload history, in that agent's order: its requests, their answers and its
prints.  ``search_schedules`` de-duplicates on ``Simulation.search_key``,
which fixes exactly that history, and its eager-move reduction keeps each
agent's own events in their order while it shifts their rounds and their
order across agents.  So the search finds a witness for these predicates
whenever some run has one, budget and step limit allowing.  A predicate
that reads raw step indices or the order of events across agents has no
such guarantee.
"""

from __future__ import annotations

import runpy
from typing import Callable

from .cm0 import db_answer_read
from .scenario import Scenario
from .trace import RESP, Trace


def _initial_answer(scenario: Scenario, rid: str, cond) -> frozenset:
    return db_answer_read(scenario.initial, scenario.cfg, rid, cond)


def _read_history(trace: Trace, agent: str) -> list:
    """This agent's read results in order: (rid, cond, rows)."""
    reqs = trace.requests()
    out = []
    for e in sorted(trace.per_agent(agent), key=lambda e: e.idx):
        if e.kind == RESP and e.payload[0] == "answer":
            tag, rid, cond = reqs[e.req].payload
            out.append((rid, cond, e.payload[2]))
    return out


def anomaly_read_stale(trace: Trace, scenario: Scenario) -> bool:
    """Some agent repeats the same read and sees fresh data first, then the
    untouched initial state again."""
    for agent in trace.agents():
        history = _read_history(trace, agent)
        for (r1, c1, rows1), (r2, c2, rows2) in zip(history, history[1:]):
            if (r1, c1) != (r2, c2):
                continue
            initial = _initial_answer(scenario, r1, c1)
            if rows1 != initial and rows2 == initial:
                return True
    return False


def print_pair(trace: Trace, scenario: Scenario) -> bool:
    """Two agents print mutually inverted views: one saw relation X updated
    but Y still initial, the other saw Y updated but X still initial."""
    observations = {}
    reqs = trace.requests()
    for agent in trace.agents():
        pairs = []
        for e in sorted(trace.prints(agent), key=lambda e: e.idx):
            tag, rid, rows = e.payload
            _, _, cond = reqs[e.req].payload
            fresh = rows != _initial_answer(scenario, rid, cond)
            pairs.append((rid, fresh))
        observations[agent] = pairs

    def saw_then(agent: str, fresh_rid: str, stale_rid: str) -> bool:
        pairs = observations[agent]
        for i, (rid_i, fresh_i) in enumerate(pairs):
            if rid_i != fresh_rid or not fresh_i:
                continue
            for rid_j, fresh_j in pairs[i + 1 :]:
                if rid_j == stale_rid and not fresh_j:
                    return True
        return False

    rids = sorted({rid for pairs in observations.values() for rid, _ in pairs})
    for x in rids:
        for y in rids:
            if x == y:
                continue
            for a in observations:
                for b in observations:
                    if a != b and saw_then(a, x, y) and saw_then(b, y, x):
                        return True
    return False


BUILTIN_PREDICATES = {
    "anomaly-read-stale": anomaly_read_stale,
    "print-pair": print_pair,
}


def load_predicate(spec: str) -> Callable[[Trace, Scenario], bool]:
    """Resolve a predicate name: a builtin, or ``custom-file:PATH`` naming a
    Python file that defines ``predicate(trace, scenario)``."""
    if spec in BUILTIN_PREDICATES:
        return BUILTIN_PREDICATES[spec]
    if spec.startswith("custom-file:"):
        path = spec[len("custom-file:") :]
        namespace = runpy.run_path(path)
        fn = namespace.get("predicate")
        if not callable(fn):
            raise ValueError(f"{path} does not define a callable 'predicate'")
        return fn
    raise ValueError(
        f"unknown predicate {spec!r}; use one of {sorted(BUILTIN_PREDICATES)} or custom-file:PATH"
    )
