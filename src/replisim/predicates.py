"""Trace predicates for schedule search.

A predicate takes (trace, scenario) and returns True on traces exhibiting
the behaviour being hunted.  The predicates here read a trace only through
``Trace.histories()``, each agent's own requests, answers and prints in that
agent's order, and ``Trace.requests()``, for the condition of a read whose
answer or print they judge.  ``search_schedules`` de-duplicates on
``Simulation.search_key``, which fixes exactly those histories, and its
eager-move reduction keeps each agent's own events in their order while it
shifts their rounds and their order across agents.  So the search finds a
witness for a predicate that is a function of ``trace.histories()`` and the
scenario whenever some run has one, budget and step limit allowing.  A
predicate that reads step indices or the order of events across agents has
no such guarantee.
"""

from __future__ import annotations

import runpy
from typing import Callable

from .cm0 import db_answer_read
from .scenario import Scenario
from .trace import PRINT, RESP, Trace


def _initial_answer(scenario: Scenario, rid: str, cond) -> frozenset:
    return db_answer_read(scenario.initial, scenario.cfg, rid, cond)


def anomaly_read_stale(trace: Trace, scenario: Scenario) -> bool:
    """Some agent repeats the same read and sees fresh data first, then the
    untouched initial state again."""
    reqs = trace.requests()
    for _, history in trace.histories():
        # each answered read as ((rid, cond), rows), in the agent's order
        reads = [(reqs[req].payload[1:], payload[2]) for kind, req, payload in history
                 if kind == RESP and payload[0] == "answer"]
        for (read1, rows1), (read2, rows2) in zip(reads, reads[1:]):
            if read1 != read2:
                continue
            initial = _initial_answer(scenario, *read1)
            if rows1 != initial and rows2 == initial:
                return True
    return False


def print_pair(trace: Trace, scenario: Scenario) -> bool:
    """Two agents print mutually inverted views: one saw relation X updated
    but Y still initial, the other saw Y updated but X still initial."""
    reqs = trace.requests()
    inverted: dict = {}  # (x, y) -> agents that printed x updated, then y initial
    for agent, history in trace.histories():
        fresh = set()  # the relations this agent has printed updated so far
        for kind, req, payload in history:
            if kind != PRINT:
                continue
            _, rid, rows = payload
            if rows != _initial_answer(scenario, rid, reqs[req].payload[2]):
                fresh.add(rid)
                continue
            for x in fresh - {rid}:
                inverted.setdefault((x, rid), set()).add(agent)
    for (x, y), agents in inverted.items():
        others = inverted.get((y, x))
        if others and len(agents | others) > 1:  # two distinct agents, one from each
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
