"""Trace analysis: view compatibility, serial runs, view equivalence and
view serialisability.

Both checkers replay candidate orders against the single-copy oracle (the
ground-model read/write operations on a flat store) and therefore depend
only on the trace and the scenario's initial data, never on the schedule
that produced the trace.

A check first validates every request against the scenario, once, with
cm0's validators (``Condition.check_arity``, ``check_writeset``): an invalid
request raises ``ConfigError`` before any replay, whatever the budget.  It
compiles each write to its ((relation, key), value) pairs in the order
``db_perform_write`` applies them (``cm0.write_pairs``), and a replay sets
those pairs without validating or sorting them again.  A replay answers
reads with the oracle's own ``db_answer_read``, once per (read, store key)
in a check.  A store that is part of a search state is never written to: a
step that writes clones its parent's store, and a step that writes nothing
shares its parent's store and that store's ``state_key()``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

# db_perform_write is not called here: a replay sets compiled write pairs.
# perfbench/tracing.py patches it by this name, so it stays importable.
from .cm0 import check_writeset, db_answer_read, db_perform_write, write_pairs
from .core import UNDEF, ClusterConfig, FlatStore
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
    """The checkers cannot judge the trace: a request is unanswered or
    answered too early, or its REQ and RESP records do not fit together."""


@dataclass(frozen=True, eq=False)  # identity: one object per request per check
class _ReqInfo:
    req: str
    agent: str  # the REQ event's agent
    kind: str  # "read" | "write"
    rid: str
    body: object  # Condition or write pairs
    answer: object  # frozenset of rows for reads, None for writes
    lo: int  # request issued (exclusive window bound)
    hi: int  # response issued (inclusive window bound)
    index: int  # position in the (hi, lo, req) order
    pairs: tuple  # a write's cm0.write_pairs; () for reads


def _request_infos(trace: Trace, cfg: Optional[ClusterConfig] = None) -> list:
    """One record per request, in (hi, lo, req) order, a write with its
    compiled pairs.  Given ``cfg``, every request is validated against it
    here, once, with cm0's own validators, before any replay."""
    events = {REQ: {}, RESP: {}}
    for e in trace.events:
        seen = events.get(e.kind)
        if seen is None:
            continue
        if e.req in seen:
            raise IncompleteTraceError(f"request {e.req} has two {e.kind} events")
        seen[e.req] = e
    reqs, resps = events[REQ], events[RESP]
    if set(reqs) != set(resps):
        raise IncompleteTraceError("checkers need a completed trace (every request answered)")
    windows = []
    for req in reqs:
        r, a = reqs[req], resps[req]
        if not r.idx < a.idx:
            raise IncompleteTraceError(f"request {req} answered no later than it was issued")
        if r.agent != a.agent:
            raise IncompleteTraceError(f"request {req} of {r.agent} is answered to {a.agent}")
        windows.append((a.idx, r.idx, req))
    infos = []
    for index, (hi, lo, req) in enumerate(sorted(windows)):
        payload, resp = reqs[req].payload, resps[req].payload
        if len(payload) != 3 or payload[0] not in ("read", "write"):
            raise IncompleteTraceError(f"request {req} is neither a read nor a write")
        tag, rid, body = payload
        want, size = ("answer", 3) if tag == "read" else ("ack", 2)
        got = resp[0] if resp else "nothing"
        if got != want:
            raise IncompleteTraceError(f"{tag} request {req} is answered by {got}, not {want}")
        if len(resp) != size:
            raise IncompleteTraceError(f"{tag} request {req} is answered by an {want} of {len(resp)} fields")
        if resp[1] != rid:
            raise IncompleteTraceError(f"request {req} on {rid} is answered on {resp[1]}")
        if tag == "read":
            if cfg is not None:
                body.check_arity(cfg, rid)
            answer, pairs = resp[2], ()
            if not isinstance(answer, (set, frozenset)) or not all(
                    isinstance(row, tuple) and len(row) == 2 for row in answer):
                raise IncompleteTraceError(f"read request {req} is answered by other than a set of (key, value) rows")
        else:
            if cfg is not None:
                for k, v in body:
                    check_writeset({k: v}, cfg, rid)
            answer, pairs = None, write_pairs(rid, body)
        agent = reqs[req].agent
        infos.append(_ReqInfo(req, agent, tag, rid, body, answer, lo, hi, index, pairs))
    return infos


def _read_values(infos) -> frozenset:
    """Every (relation, key, value) some read answer contains."""
    seen = set()
    for info in infos:
        if info.kind == "read":
            for k, v in info.answer:
                seen.add((info.rid, k, v))
    return frozenset(seen)


def _read_memo(cfg: ClusterConfig):
    """``reproduces(info, flat, flat_key)``: whether the read ``info``,
    evaluated against ``flat`` (whose ``state_key()`` is ``flat_key``),
    reproduces its recorded answer.  Each (request index, store key) is
    evaluated once per memo, that is once per check."""
    memo: dict = {}

    def reproduces(info: _ReqInfo, flat: FlatStore, flat_key) -> bool:
        hit = memo.get((info.index, flat_key))
        if hit is None:
            hit = memo[info.index, flat_key] = db_answer_read(flat, cfg, info.rid, info.body) == info.answer
        return hit

    return reproduces


def _replay_writes(flat: FlatStore, batch, skipped: frozenset):
    """The store after the batch's write sets apply together, or None when
    two of them write different values to one location (an inconsistent
    update set).  ``skipped`` names (req, key) write pairs left unapplied
    under the unread-value waiver.  ``flat`` itself is returned when
    nothing is written; otherwise it is cloned, never written to."""
    combined: dict = {}
    for info in batch:
        for loc, v in info.pairs:
            if skipped and (info.req, loc[1]) in skipped:
                continue
            if combined.setdefault(loc, v) != v:
                return None
    if not combined:
        return flat
    flat = flat.clone()
    for (rid, k), v in combined.items():
        flat.set(rid, k, v)
    return flat


def _waiver_choices(batch, read_values: frozenset):
    """All ways to leave unread write pairs unapplied, the all-applied
    variant first.  A written value that no agent ever reads does not
    constrain the flattening, so the replay may drop it; deletions are never
    read back as values and are always droppable."""
    waivable = []
    for info in batch:
        if info.kind != "write":
            continue
        for (rid, k), v in info.pairs:
            if v is UNDEF or (rid, k, v) not in read_values:
                waivable.append((info.req, k))
    for n in range(len(waivable) + 1):
        for combo in itertools.combinations(waivable, n):
            yield frozenset(combo)


_OUT_OF_BUDGET = object()


def _search(root, key, expand, done, budget: int):
    """Depth-first search, with an explicit stack, for a path from ``root``
    to a state where ``done`` holds.

    ``expand(state)`` yields (step, child) pairs in search order; ``key``
    names what a state's subtree depends on: two states with one key either
    both reach a goal or neither does.  A state whose subtree held no goal
    is remembered by key for the rest of the call, and a child with a
    remembered key is skipped without being entered.  A child may share its
    parent's key; when that child fails, the search returns to a frame
    whose own key is remembered, and drops it without expanding its other
    children, which cannot reach a goal either.  Pruning only subtrees
    without a goal, the search returns the first goal path in expansion
    order.  ``budget`` bounds the states entered, root included.  Returns
    (steps from the root to the goal, or None when there is none, or
    ``_OUT_OF_BUDGET``; states entered)."""
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
        if state_key in failed:  # a child with this key has failed
            children = ()
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
    order, flat store, last point, the store's ``state_key()``); ``budget``
    bounds the states entered, and ``replays`` reports them.
    """
    cfg = scenario.cfg
    infos = _request_infos(trace, cfg)
    reproduces = _read_memo(cfg)
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
        placed, flat, last_point, flat_key = state
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
                if not all(reproduces(i, flat, flat_key) for i in combo if i.kind == "read"):
                    continue
                for skipped in _waiver_choices(combo, read_values):
                    flat2 = _replay_writes(flat, combo, skipped)
                    if flat2 is not None:
                        key2 = flat_key if flat2 is flat else flat2.state_key()
                        step = ((point, tuple(i.req for i in combo)), skipped)
                        yield step, (now_placed, flat2, point, key2)

    # Points only grow and each exceeds its request's issue index, so the
    # search starts from the smallest issue index, whatever its sign.
    start = min((i.lo for i in infos), default=0)
    root = (0, scenario.initial, start, scenario.initial.state_key())
    steps, nodes = _search(
        root,
        key=lambda state: (state[0], state[3], state[2]),
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
    all recorded answers are reproduced.  The orders are tried in agent
    order (each state's children by agent name), and the first valid one is
    the witness.

    A search state is (requests done per agent, flat store, the store's
    ``state_key()``, the state's key).  The key is (canonical progress, the
    store's ``state_key()``), where the canonical progress advances each
    agent past its leading reads whose recorded answers the store
    reproduces.  A read writes nothing, so a read that matches now can be
    moved to the front of any completion of the state, and the completion
    stays valid: the store each later request sees is unchanged, and the
    read is its agent's next request.  A state and its canonical form
    therefore either both have a completion or both have none, and the
    failed-state cache stays exact.  Taking a matching read leaves the key
    as it was, so a read child gets its parent's key without recomputing
    it.

    A value a read still needs is never lost (the reads-from argument of
    Gibbons and Korach, "Testing shared memories", 1997): a write child is
    not yielded when the write changes a location from ``old`` while a read
    undone in the child's progress has the row (location, ``old``) in its
    recorded answer, and no undone write that may precede that read writes
    ``old`` back there.  Any other agent's undone write may precede it, but
    one of the reader's own agent only when it is queued before the read.
    Every completion of such a child runs the read on a store without that
    row, so only subtrees without a completion are cut: the search order,
    the first witness and the failed-state cache stay exact.  The root is
    judged by the same rule over every row of every read's answer that the
    initial store does not hold, and a root that fails it has no children.
    The rule then holds at every state entered, for every row an undone
    read needs: a write step changes only the locations it writes, a row it
    stops holding is an ``old`` it checked, and a write it uses up writes a
    row the store now holds.  Per call, each (read, store key) is evaluated
    once and each (write, store key) replayed once.  ``budget`` bounds the
    states entered, ``replays`` reports them."""
    cfg = scenario.cfg
    infos = _request_infos(trace, cfg)
    reproduces = _read_memo(cfg)
    by_agent: dict = {}
    for info in sorted(infos, key=lambda i: i.lo):
        by_agent.setdefault(info.agent, []).append(info)
    queues = [by_agent[a] for a in sorted(by_agent)]
    total = tuple(len(queue) for queue in queues)
    readers: dict = {}  # (location, value) -> (agent, position) of each read whose answer holds it
    writers: dict = {}  # (location, value) -> (agent, position) of each write that writes it
    for n, queue in enumerate(queues):
        for pos, info in enumerate(queue):
            if info.kind == "read":
                for k, v in info.answer:
                    readers.setdefault(((info.rid, k), v), []).append((n, pos))
            else:
                for row in info.pairs:
                    writers.setdefault(row, []).append((n, pos))
    written: dict = {}  # (write index, store key) -> (store, store key) after it, or None
    stores: dict = {}  # store key -> (store, store key), the first store with those contents

    def state_of(progress, flat, flat_key):
        canonical = []
        for queue, done in zip(queues, progress):
            while (done < len(queue) and queue[done].kind == "read"
                   and reproduces(queue[done], flat, flat_key)):
                done += 1
            canonical.append(done)
        return progress, flat, flat_key, (tuple(canonical), flat_key)

    def lost(progress, row) -> bool:
        # A read undone in ``progress`` needs ``row``, which the store does
        # not hold, and no undone write that may precede the read writes it.
        for n, pos in readers.get(row, ()):
            if pos >= progress[n] and not any(
                    wpos >= progress[wn] and (wn != n or wpos < pos) for wn, wpos in writers.get(row, ())):
                return True
        return False

    def expand(state):
        progress, flat, flat_key, key = state
        for n, done in enumerate(progress):
            if done == total[n]:
                continue
            info = queues[n][done]
            now = progress[:n] + (done + 1,) + progress[n + 1:]
            if info.kind == "read":
                if reproduces(info, flat, flat_key):
                    yield info.req, (now, flat, flat_key, key)
                continue
            if any(lost(now, (loc, old)) for loc, v in info.pairs if (old := flat.data.get(loc, UNDEF)) != v):
                continue
            if (info.index, flat_key) not in written:
                after = _replay_writes(flat, (info,), frozenset())
                if after is not None:  # one store per contents, so memo keys match by identity
                    key2 = flat_key if after is flat else after.state_key()
                    after = stores.setdefault(key2, (after, key2))
                written[info.index, flat_key] = after
            if (after := written[info.index, flat_key]) is not None:
                yield info.req, state_of(now, *after)

    start, initial = (0,) * len(queues), scenario.initial
    feasible = not any(initial.data.get(loc, UNDEF) != v and lost(start, (loc, v)) for loc, v in readers)
    steps, nodes = _search(
        state_of(start, initial, initial.state_key()),
        key=lambda state: state[3],
        expand=expand if feasible else lambda state: (),
        done=lambda state: state[0] == total,
        budget=budget,
    )
    if steps is _OUT_OF_BUDGET:
        return Verdict(NOT_SERIALISABLE, exhaustive=False, replays=nodes)
    if steps is None:
        return Verdict(NOT_SERIALISABLE, exhaustive=True, replays=nodes)
    return Verdict(SERIALISABLE, exhaustive=True, witness=tuple(steps), replays=nodes)
