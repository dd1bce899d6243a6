"""Trace analysis: view compatibility, serial runs, view equivalence and
view serialisability.

Both checkers replay candidate orders against the single-copy oracle (the
ground-model read/write operations on a flat store) and therefore depend
only on the trace and the scenario's initial data, never on the schedule
that produced the trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cm0 import db_answer_read, db_perform_write
from .core import UNDEF, FlatStore
from .scenario import Scenario
from .trace import REQ, RESP, Trace

COMPATIBLE = "COMPATIBLE"
INCOMPATIBLE = "INCOMPATIBLE"
SERIALISABLE = "SERIALISABLE"
NOT_SERIALISABLE = "NOT_SERIALISABLE"


@dataclass(frozen=True)
class Verdict:
    kind: str
    exhaustive: bool
    witness: tuple = ()
    replays: int = 0
    waived: tuple = ()  # (req, key) write pairs the witness left unapplied

    def ok(self) -> bool:
        return self.kind in (COMPATIBLE, SERIALISABLE)

    def render(self) -> str:
        if self.witness:
            parts = []
            for item in self.witness:
                if isinstance(item, tuple):
                    point, reqs = item
                    parts.append(f"{point}:{'+'.join(reqs)}")
                else:
                    parts.append(str(item))
            witness = ",".join(parts)
        else:
            witness = "NONE"
        return f"verdict={self.kind} exhaustive={str(self.exhaustive).lower()} witness={witness}"


class IncompleteTraceError(Exception):
    pass


@dataclass(frozen=True, eq=False)  # identity: one object per request per check
class _ReqInfo:
    req: str
    kind: str  # "read" | "write"
    rid: str
    body: object  # Condition or write pairs
    answer: object  # frozenset of rows for reads, None for writes
    lo: int  # request issued (exclusive window bound)
    hi: int  # response issued (inclusive window bound)
    index: int  # position in the (hi, lo, req) order


def _request_infos(trace: Trace) -> list:
    """One record per request, in (hi, lo, req) order."""
    if not trace.is_complete():
        raise IncompleteTraceError("checkers need a completed trace (every request answered)")
    reqs, resps = trace.requests(), trace.responses()
    windows = []
    for req in reqs:
        r, a = reqs[req], resps[req]
        if not r.idx < a.idx:
            raise IncompleteTraceError(f"request {req} answered no later than it was issued")
        windows.append((a.idx, r.idx, req))
    infos = []
    for index, (hi, lo, req) in enumerate(sorted(windows)):
        tag, rid, body = reqs[req].payload
        answer = resps[req].payload[2] if tag == "read" else None
        infos.append(_ReqInfo(req, tag, rid, body, answer, lo, hi, index))
    return infos


def _read_values(infos) -> frozenset:
    """Every (relation, key, value) some read answer contains."""
    seen = set()
    for info in infos:
        if info.kind == "read":
            for k, v in info.answer:
                seen.add((info.rid, k, v))
    return frozenset(seen)


def _replay_batch(flat: FlatStore, scenario: Scenario, batch, skipped: frozenset) -> bool:
    """Replay simultaneous requests: reads evaluate against the shared
    pre-state, then all write sets apply together; conflicting simultaneous
    writes reject the candidate (an inconsistent update set would).
    ``skipped`` names (req, key) write pairs left unapplied under the
    unread-value waiver."""
    for info in batch:
        if info.kind == "read":
            rows = db_answer_read(flat, scenario.cfg, info.rid, info.body)
            if rows != info.answer:
                return False
    combined: dict = {}
    for info in batch:
        if info.kind != "write":
            continue
        for k, v in info.body:
            if (info.req, k) in skipped:
                continue
            loc = (info.rid, k)
            if loc in combined and combined[loc] != v:
                return False
            combined[loc] = v
    for (rid, k), v in combined.items():
        db_perform_write(flat, scenario.cfg, rid, {k: v})
    return True


def _waiver_choices(batch, read_values: frozenset):
    """All ways to leave unread write pairs unapplied, the all-applied
    variant first.  A written value that no agent ever reads does not
    constrain the flattening, so the replay may drop it; deletions are never
    read back as values and are always droppable."""
    waivable = []
    for info in batch:
        if info.kind != "write":
            continue
        for k, v in info.body:
            if v is UNDEF or (info.rid, k, v) not in read_values:
                waivable.append((info.req, k))
    for n in range(len(waivable) + 1):
        for combo in itertools.combinations(waivable, n):
            yield frozenset(combo)


_OUT_OF_BUDGET = object()


def _search(root, key, expand, done, budget: int):
    """Depth-first search, with an explicit stack, for a path from ``root``
    to a state where ``done`` holds.

    ``expand(state)`` yields (step, child) pairs in search order; ``key``
    names what a state's subtree depends on.  A state whose subtree held no
    goal is remembered by key for the rest of the call, and a child with a
    remembered key is skipped without being entered.  ``budget`` bounds the
    states entered, root included.  Returns (steps from the root to the
    goal, or None when there is none, or ``_OUT_OF_BUDGET``; states
    entered)."""
    nodes = 1
    if nodes > budget:
        return _OUT_OF_BUDGET, nodes
    if done(root):
        return [], nodes
    failed = set()
    path = []  # the steps to the top frame's state
    stack = [(key(root), expand(root))]
    while stack:
        state_key, children = stack[-1]
        for step, child in children:
            child_key = key(child)
            if child_key not in failed:
                break
        else:
            failed.add(state_key)
            stack.pop()
            if path:
                path.pop()
            continue
        nodes += 1
        if nodes > budget:
            return _OUT_OF_BUDGET, nodes
        path.append(step)
        if done(child):
            return path, nodes
        stack.append((child_key, expand(child)))
    return None, nodes


def check_view_compatible(trace: Trace, scenario: Scenario, budget: int = 1_000_000) -> Verdict:
    """Search for one execution point per request, inside its issue/answer
    window, such that replaying the requests in point order against a single
    flat store reproduces every recorded read answer.

    Writes execute at their points, except that a write pair whose value no
    agent ever reads may be left unapplied (the flattening is free to ignore
    it); the witness records such skips.  Requests may share a point, in
    which case the reads see the shared pre-state.  Returns COMPATIBLE with
    the witness assignment, otherwise INCOMPATIBLE (exhaustive when the
    search space was fully covered).

    A search state is (placed requests as a bitmask over the (hi, lo, req)
    order, flat store, last point); ``budget`` bounds the states entered,
    and ``replays`` reports them.
    """
    infos = _request_infos(trace)
    read_values = _read_values(infos)
    everything = (1 << len(infos)) - 1
    lo_from = [math.inf] * (len(infos) + 1)  # lo_from[n]: the smallest lo in infos[n:]
    for info in reversed(infos):
        lo_from[info.index] = min(info.lo, lo_from[info.index + 1])

    def first_unplaced(placed: int) -> _ReqInfo:
        return infos[(~placed & (placed + 1)).bit_length() - 1]

    def expand(state):
        # The unplaced request with the smallest ``hi`` must be placed in
        # the batch or after it, so a batch holds only requests issued
        # before that bound: any other member would push the point past it.
        placed, flat, last_point = state
        first = first_unplaced(placed)
        bound = first.hi
        order = []
        n = first.index
        while lo_from[n] < bound:
            if not placed >> n & 1 and infos[n].lo < bound:
                order.append(infos[n])
            n += 1
        for size in range(1, len(order) + 1):
            for combo in itertools.combinations(order, size):
                point = max(last_point + 1, max(i.lo + 1 for i in combo))
                if any(point > i.hi for i in combo):
                    continue
                now_placed = placed | sum(1 << i.index for i in combo)
                if now_placed != everything and first_unplaced(now_placed).hi <= point:
                    continue
                for skipped in _waiver_choices(combo, read_values):
                    flat2 = flat.clone()
                    if _replay_batch(flat2, scenario, combo, skipped):
                        yield ((point, tuple(i.req for i in combo)), skipped), (now_placed, flat2, point)

    root = (0, scenario.initial.clone(), 0)
    steps, nodes = _search(
        root,
        key=lambda state: (state[0], state[1].state_key(), state[2]),
        expand=expand,
        done=lambda state: state[0] == everything,
        budget=budget,
    )
    if steps is _OUT_OF_BUDGET:
        return Verdict(INCOMPATIBLE, exhaustive=False, replays=nodes)
    if steps is None:
        return Verdict(INCOMPATIBLE, exhaustive=True, replays=nodes)
    return Verdict(
        COMPATIBLE,
        exhaustive=True,
        witness=tuple(batch for batch, _ in steps),
        replays=nodes,
        waived=tuple(sorted(frozenset().union(*(skipped for _, skipped in steps)))),
    )


def is_serial(trace: Trace) -> bool:
    """A run is serial when nothing falls strictly inside another request's
    issue/answer window except simultaneous companions, and simultaneous
    requests have simultaneous answers."""
    infos = _request_infos(trace)
    events = [e for e in trace.events if e.kind in (REQ, RESP)]
    resp_idx = {i.req: i.hi for i in infos}
    for info in infos:
        for e in events:
            if e.req == info.req:
                continue
            if info.lo <= e.idx <= info.hi:
                if e.idx == info.lo or e.idx == info.hi:
                    continue
                return False
    for a, b in itertools.combinations(infos, 2):
        if a.lo == b.lo and resp_idx[a.req] != resp_idx[b.req]:
            return False
    return True


def view_equivalent(t1: Trace, t2: Trace) -> bool:
    """Same requests and responses (including identical answer sets), and
    the same per-agent order; interleaving across agents is free."""

    def per_agent(trace: Trace) -> dict:
        out: dict = {}
        for e in trace.events:
            if e.kind not in (REQ, RESP):
                continue
            out.setdefault(e.agent, []).append((e.idx, e.kind, e.payload))
        for agent, evs in out.items():
            idxs = [i for i, _, _ in evs]
            if len(set(idxs)) != len(idxs):
                raise IncompleteTraceError(f"agent {agent} has simultaneous events of its own")
            out[agent] = [(k, p) for _, k, p in sorted(evs, key=lambda ev: ev[0])]
        return out

    return per_agent(t1) == per_agent(t2)


def check_view_serialisable(trace: Trace, scenario: Scenario, budget: int = 1_000_000) -> Verdict:
    """Enumerate serial orders of the requests consistent with every agent's
    own order, replaying each through the single-copy oracle; accept when
    all recorded answers are reproduced.

    A search state is (requests done per agent, flat store); ``budget``
    bounds the states entered, and ``replays`` reports them."""
    infos = _request_infos(trace)
    by_agent: dict = {}
    for info in sorted(infos, key=lambda i: i.lo):
        agent = info.req.split("#", 1)[0]
        by_agent.setdefault(agent, []).append(info)
    queues = [by_agent[a] for a in sorted(by_agent)]

    def expand(state):
        progress, flat = state
        for n, queue in enumerate(queues):
            if progress[n] == len(queue):
                continue
            info = queue[progress[n]]
            flat2 = flat.clone()
            if _replay_batch(flat2, scenario, [info], frozenset()):
                yield info.req, (progress[:n] + (progress[n] + 1,) + progress[n + 1:], flat2)

    total = tuple(len(queue) for queue in queues)
    steps, nodes = _search(
        ((0,) * len(queues), scenario.initial.clone()),
        key=lambda state: (state[0], state[1].state_key()),
        expand=expand,
        done=lambda state: state[0] == total,
        budget=budget,
    )
    if steps is _OUT_OF_BUDGET:
        return Verdict(NOT_SERIALISABLE, exhaustive=False, replays=nodes)
    if steps is None:
        return Verdict(NOT_SERIALISABLE, exhaustive=True, replays=nodes)
    return Verdict(SERIALISABLE, exhaustive=True, witness=tuple(steps), replays=nodes)
