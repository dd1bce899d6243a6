"""Trace analysis: view compatibility, serial runs, view equivalence and
view serialisability.

Both checkers replay candidate orders against the single-copy oracle (the
ground-model read/write operations on a flat store) and therefore depend
only on the trace and the scenario's initial data, never on the schedule
that produced the trace.  They run one placement search (``_Placements``),
and each supplies only the steps out of a state and the state's key.

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
from operator import attrgetter, itemgetter
from typing import NamedTuple, Optional

# db_perform_write is not called here: a replay sets compiled write pairs.
# perfbench/tracing.py patches it by this name, so it stays importable.
from .cm0 import check_writeset, db_answer_read, db_perform_write, write_pairs
from .core import UNDEF, ClusterConfig, FlatStore, Record
from .scenario import Scenario
from .trace import REQ, RESP, Trace

COMPATIBLE = "COMPATIBLE"
INCOMPATIBLE = "INCOMPATIBLE"
SERIALISABLE = "SERIALISABLE"
NOT_SERIALISABLE = "NOT_SERIALISABLE"


class Verdict(NamedTuple):
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


# Identity equality: one object per request per check.  Slotted, for cheap
# building and field reads; nothing assigns to one after _request_infos
# builds it.
class _ReqInfo(Record):
    _fields = ("req", "agent", "kind", "rid", "body", "answer", "lo", "hi", "index", "pairs", "queue", "pos")
    __slots__ = _fields
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, req: str, agent: str, kind: str, rid: str, body, answer, lo: int, hi: int, index: int,
                 pairs: tuple, queue: int, pos: int):
        self.req, self.agent, self.rid = req, agent, rid  # agent: the REQ event's agent
        self.kind = kind  # "read" | "write"
        self.body = body  # Condition or write pairs
        self.answer = answer  # frozenset of rows for reads, None for writes
        self.lo, self.hi = lo, hi  # request issued (exclusive window bound), response issued (inclusive)
        self.index = index  # position in the (hi, lo, req) order
        self.pairs = pairs  # a write's cm0.write_pairs; () for reads
        self.queue = queue  # the agent's position in name order
        self.pos = pos  # position in the agent's own order


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
    queues = {agent: n for n, agent in enumerate(sorted({r.agent for r in reqs.values()}))}
    last: dict = {}  # agent -> its request answered last so far
    infos = []
    for index, (hi, lo, req) in enumerate(sorted(windows)):
        agent = reqs[req].agent
        prev = last.get(agent)
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
        pos = 0 if prev is None else prev.pos + 1
        last[agent] = info = _ReqInfo(req, agent, tag, rid, body, answer, lo, hi, index, pairs, queues[agent], pos)
        infos.append(info)
    return infos


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


def _waiver_choices(batch, readers):
    """All ways to leave unread write pairs unapplied, the all-applied
    variant first.  A written value that no agent ever reads (not in
    ``readers``) does not constrain the flattening, so the replay may drop
    it; deletions are never read back as values and are always droppable."""
    waivable = []
    for info in batch:
        for loc, v in info.pairs:
            if v is UNDEF or (loc, v) not in readers:
                waivable.append((info.req, loc[1]))
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


class _Placements:
    """The search both checkers run.  It places every request, each agent's
    in the agent's own order, and replays each step against one flat store:
    a step places a batch of agents' next requests, whose reads see the
    store before it and whose writes then apply together, less the pairs
    the step waives.  It refuses a trace in which an agent issues a request
    before its previous one is answered, so the requests done per agent
    name every set of placed requests.  A state is (requests done per
    agent, flat store, the store's ``state_key()``, the state's key), and a
    checker supplies only the steps out of a state and the key, which names
    what the state's subtree depends on (``_search``).

    ``write`` drops a step that loses a value an unplaced read needs (the
    reads-from argument of Gibbons and Korach, "Testing shared memories",
    1997): the step changes a location from ``old`` while an unplaced read
    has the row (location, ``old``) in its recorded answer, and no unplaced
    write that may precede that read writes ``old`` back there.  Such a step
    has no completion: a read placed later sees the store the step leaves,
    changed only by writes placed in between, which are other agents' or
    ones the reader's own agent queues before it.  Only subtrees without a
    completion are cut, so the search order, the first witness and the
    failed-state cache stay exact.  The root is judged by the same rule over
    every row of every read's answer that the initial store does not hold,
    and a root that fails it has no children.  The rule then holds at every
    state entered, for every row an unplaced read needs: a step changes only
    the locations it writes, a row it stops holding is an ``old`` it
    checked, and a write it places applies every pair whose value a read
    holds (such a pair is never waived), so the store then holds that row.

    Per check, each (read, store key) is evaluated once and each (batch,
    waiver, store key) replayed once.  Stores with equal contents are one
    object per check, so a memo lookup matches keys by identity."""

    def __init__(self, trace: Trace, scenario: Scenario):
        infos = _request_infos(trace, scenario.cfg)
        self.reproduces = _read_memo(scenario.cfg)
        self.queues = [[] for _ in {info.agent for info in infos}]
        self.readers: dict = {}  # (location, value) -> each read whose answer holds it
        self.writers: dict = {}  # (location, value) -> each write that writes it
        for info in infos:  # answer order
            queue = self.queues[info.queue]
            if queue and info.lo < queue[-1].hi:
                raise IncompleteTraceError(f"agent {info.agent} has requests {queue[-1].req} and {info.req} open at once")
            queue.append(info)
            if info.kind == "read":
                for k, v in info.answer:
                    self.readers.setdefault(((info.rid, k), v), []).append(info)
            for row in info.pairs:
                self.writers.setdefault(row, []).append(info)
        self.total = tuple(map(len, self.queues))
        self.initial = scenario.initial
        self.written: dict = {}  # (batch, waiver, store key) -> (store, store key) after it, or None
        self.stores: dict = {}  # store key -> (store, store key), the first store with those contents

    def lost(self, progress, row) -> bool:
        """Whether ``row``, not in the store, is lost to a read not done in ``progress``."""
        for r in self.readers.get(row, ()):
            if r.pos >= progress[r.queue] and not any(
                    w.pos >= progress[w.queue] and (w.queue != r.queue or w.pos < r.pos)
                    for w in self.writers.get(row, ())):
                return True
        return False

    def write(self, flat: FlatStore, flat_key, batch, progress, skipped: frozenset = frozenset()):
        """(store, store key) once ``batch`` writes its pairs but ``skipped``
        to ``flat``, leaving ``progress`` done; None when two pairs conflict
        or the step loses a value that a read not done needs."""
        for info in batch:
            for loc, v in info.pairs:
                if ((old := flat.data.get(loc, UNDEF)) != v and (not skipped or (info.req, loc[1]) not in skipped)
                        and self.lost(progress, (loc, old))):
                    return None
        memo = (batch, skipped, flat_key)
        if memo not in self.written:
            after = _replay_writes(flat, batch, skipped)
            if after is not None:
                key = flat_key if after is flat else after.state_key()
                after = self.stores.setdefault(key, (after, key))
            self.written[memo] = after
        return self.written[memo]

    def search(self, key_of, children, budget: int, kinds) -> Verdict:
        """The verdict ``kinds[0]``, with the first witness in ``children``
        order and the pairs it waives, or else ``kinds[1]``.  The root is the
        initial store with nothing done, keyed ``key_of(progress, store,
        store key)``.  A step is a witness item, or a (batch, waiver) pair."""
        progress, flat, flat_key = (0,) * len(self.queues), self.initial, self.initial.state_key()
        root = (progress, flat, flat_key, key_of(progress, flat, flat_key))
        feasible = not any(flat.data.get(loc, UNDEF) != v and self.lost(progress, (loc, v)) for loc, v in self.readers)
        steps, nodes = _search(root, itemgetter(3), children if feasible else lambda state: (),
                               lambda state: state[0] == self.total, budget)
        if steps is _OUT_OF_BUDGET or steps is None:
            return Verdict(kinds[1], exhaustive=steps is None, replays=nodes)
        waived = frozenset().union(*(step[1] for step in steps if isinstance(step, tuple)))
        witness = tuple(step[0] if isinstance(step, tuple) else step for step in steps)
        return Verdict(kinds[0], True, witness, nodes, tuple(sorted(waived)))


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

    A step of the placement search (``_Placements``) places a batch at one
    point, after the last point and inside every member's window.  The
    unplaced request answered first must be in the batch or after it, so a
    batch holds only requests issued before that answer, which are agents'
    next requests: an agent issues a request only once its previous one is
    answered.  Batches are tried by size, each size in (hi, lo, req) order,
    and each batch with every waiver of its unread write pairs, the
    all-applied one first.  A state's key is (requests done per agent, the
    store's ``state_key()``, last point).

    A batch that loses a value an unplaced read needs has no completion.
    Every later batch comes at a later point, so a read placed later sees
    the store this batch leaves; a read in the batch saw the store before
    it, and is done, as is every write in the batch.  A waived pair changes
    nothing, and a pair whose value some read holds is never waived, so a
    waiver neither loses such a value nor keeps a write from putting it
    back.  ``budget`` bounds the states entered, ``replays`` reports them."""
    place = _Placements(trace, scenario)
    queues, readers, reproduces, write = place.queues, place.readers, place.reproduces, place.write

    def children(state):
        progress, flat, flat_key, (_, _, last_point) = state
        nexts = [queue[done] for queue, done in zip(queues, progress) if done < len(queue)]
        nexts.sort(key=attrgetter("index"))
        bound = nexts[0].hi
        order = [info for info in nexts if info.lo < bound]
        for size in range(1, len(order) + 1):
            for batch in itertools.combinations(order, size):
                point = max(last_point + 1, max(info.lo for info in batch) + 1)
                if point > bound or point == bound and any(i.hi == bound and i not in batch for i in order):
                    continue
                if not all(reproduces(info, flat, flat_key) for info in batch if info.kind == "read"):
                    continue
                now = list(progress)
                for info in batch:
                    now[info.queue] += 1
                now = tuple(now)
                step = (point, tuple(info.req for info in batch))
                for skipped in _waiver_choices(batch, readers):
                    if (after := write(flat, flat_key, batch, now, skipped)) is not None:
                        yield (step, skipped), (now, *after, (now, after[1], point))

    # Points only grow and each exceeds its request's issue index, so the
    # search starts from the smallest issue index, whatever its sign.
    start = min((queue[0].lo for queue in queues), default=0)
    return place.search(lambda progress, flat, flat_key: (progress, flat_key, start), children, budget,
                        (COMPATIBLE, INCOMPATIBLE))


def is_serial(trace: Trace) -> bool:
    """A run is serial when nothing falls strictly inside another request's
    issue/answer window except simultaneous companions, and simultaneous
    requests have simultaneous answers."""
    infos = _request_infos(trace)
    events = [e for e in trace.events if e.kind in (REQ, RESP)]
    for info in infos:
        if any(e.req != info.req and info.lo < e.idx < info.hi for e in events):
            return False
    for a, b in itertools.combinations(infos, 2):
        if a.lo == b.lo and a.hi != b.hi:
            return False
    return True


def view_equivalent(t1: Trace, t2: Trace) -> bool:
    """Same requests and responses (including identical answer sets), and
    the same per-agent order; interleaving across agents is free.  An
    agent's part is its ``Trace.histories()`` entry without request ids and
    prints.  Two requests or responses of one agent at one index have no
    order, and are refused."""

    def view(trace: Trace) -> dict:
        seen = set()
        for e in trace.events:
            if e.kind in (REQ, RESP):
                if (e.agent, e.idx) in seen:
                    raise IncompleteTraceError(f"agent {e.agent} has simultaneous events of its own")
                seen.add((e.agent, e.idx))
        out = {}
        for agent, history in trace.histories():
            own = [(kind, payload) for kind, _, payload in history if kind in (REQ, RESP)]
            if own:
                out[agent] = own
        return out

    return view(t1) == view(t2)


def check_view_serialisable(trace: Trace, scenario: Scenario, budget: int = 1_000_000) -> Verdict:
    """Enumerate serial orders of the requests consistent with every agent's
    own order, replaying each through the single-copy oracle; accept when
    all recorded answers are reproduced.  The orders are tried in agent
    order (each state's children by agent name), and the first valid one is
    the witness.

    A step of the placement search (``_Placements``) is one agent's next
    request.  A state's key is (canonical progress, the store's
    ``state_key()``), where the canonical progress advances each agent past
    its leading reads whose recorded answers the store reproduces.  A read
    writes nothing, so a read that matches now can be moved to the front of
    any completion of the state, and the completion stays valid: the store
    each later request sees is unchanged, and the read is its agent's next
    request.  A state and its canonical form therefore either both have a
    completion or both have none, and the failed-state cache stays exact.
    Taking a matching read leaves the key as it was, so a read child gets
    its parent's key without recomputing it.  ``budget`` bounds the states
    entered, ``replays`` reports them."""
    place = _Placements(trace, scenario)
    queues, reproduces, write = place.queues, place.reproduces, place.write

    def key_of(progress, flat, flat_key):
        canonical = []
        for queue, done in zip(queues, progress):
            while (done < len(queue) and queue[done].kind == "read"
                   and reproduces(queue[done], flat, flat_key)):
                done += 1
            canonical.append(done)
        return tuple(canonical), flat_key

    def children(state):
        progress, flat, flat_key, key = state
        for n, (queue, done) in enumerate(zip(queues, progress)):
            if done == len(queue):
                continue
            info = queue[done]
            now = progress[:n] + (done + 1,) + progress[n + 1:]
            if info.kind == "read":
                if reproduces(info, flat, flat_key):
                    yield info.req, (now, flat, flat_key, key)
            elif (after := write(flat, flat_key, (info,), now)) is not None:
                yield info.req, (now, *after, key_of(now, *after))

    return place.search(key_of, children, budget, (SERIALISABLE, NOT_SERIALISABLE))
