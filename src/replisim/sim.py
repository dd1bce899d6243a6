"""Deterministic concurrent-run engine.

A run is a sequence of global steps.  At each step the schedule picks one or
more enabled moves (deliver an in-flight message, let a client send or
receive, let a memory agent or delegate process one received message).  A
move's step returns only its update set and the messages it sends.  The
engine merges the update sets, checks them for consistency and applies them
simultaneously; it also moves each move's message (from flight into a
mailbox for a delivery, out of its mailbox for any other move) and records
the round's trace events.

A move is its descriptor plus the message it takes.  The descriptor is the
move's tag and the fields that fix it: the acting agent, the message's
identity and, for a cm1 data-centre step, its replica selection per
fragment as a sorted tuple of (dc, node) pairs.  A schedule yields the
moves of each step: a seeded one draws one move per step from a PRNG, an
explicit one names moves by their descriptors.  The engine records each
round's descriptors, so any run is replayable and printable.

Clients obey the request/reply discipline: after sending a request a client
is blocked until it has received the matching response.  Requests are
identified as ``agent#index`` so identities are stable across schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from . import cm1
from .cm0 import db_answer_read
from .cm2 import collect_respond, delegate_external_req, manage_internal_req
from .core import START_TICK, ClusterConfig, ConfigError, catch_up, freshest, seed_replicas
from .messages import (
    ACK,
    ANSWER,
    FWD,
    LOCAL_ACK,
    LOCAL_ANSWER,
    REQ_READ,
    REQ_WRITE,
    REQUEST_KINDS,
    Message,
    StepEffect,
    dc_agent,
)
from .policies import complies, enumerate_compliant_selections
from .scenario import Scenario
from .trace import PRINT, REQ, RESP, Trace, TraceEvent

MODELS = ("cm0", "cm1", "cm2")
DB_AGENT = "db"
DEFAULT_STEP_LIMIT = 100_000
SEL_BOUND = 64  # compliant selections per fragment an exhaustive cm1 search covers


class SimInvariantError(AssertionError):
    """An internal consistency property of the model was violated."""


class RunDiscarded(Exception):
    """Simultaneous moves built an inconsistent update set."""


class ScheduleError(Exception):
    """An explicit schedule named a move that is not enabled."""


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    """A move: its descriptor, the tag (deliver | send | recv | db | dc |
    collect) and then the fields ``MOVE_KINDS[tag].fields`` lists, and the
    message it takes, if any.  A ``dc`` move's ``sel`` is ``None`` outside
    cm1 and until a seeded schedule draws it."""

    desc: tuple
    msg: Optional[Message] = None

    @property
    def tag(self) -> str:
        return self.desc[0]

    @property
    def agent(self) -> str:
        """The acting agent, for the kinds whose descriptor names one."""
        return self.desc[1] if MOVE_KINDS[self.desc[0]].fields[0] == "agent" else ""

    def descriptor(self) -> tuple:
        return self.desc


def describe_descriptor(desc: tuple) -> str:
    """``tag[field|field...]``, leaving out a ``None`` selection."""
    kind = MOVE_KINDS.get(desc[0])
    if kind is None:
        return repr(desc)
    parts = (_FIELDS[f](v) for f, v in zip(kind.fields, desc[1:]) if v is not None)
    return f"{desc[0]}[{'|'.join(parts)}]"


def _ident_str(ident: tuple) -> str:
    kind, req, sender, receiver = ident
    return f"{kind}:{req}:{sender}>{receiver}"


def _sel_str(sel: tuple) -> str:
    return " ".join("j%d={%s}" % (j, ",".join(f"({d},{n})" for d, n in group)) for j, group in sel)


# Descriptor fields: name -> rendering in describe().
_FIELDS = {"agent": str, "ident": _ident_str, "sel": _sel_str}


@dataclass(frozen=True)
class MoveKind:
    """Everything the engine knows about one kind of move."""

    fields: tuple  # descriptor fields after the tag, from _FIELDS
    find: Callable  # (sim, agent, ident) -> the message, if any; KeyError when not enabled
    run: Callable  # (sim, move) -> StepEffect
    rank: dict  # search rank by message kind; None ranks every other kind
    footprint: Callable  # move -> (tokens written, tokens only read); see independent()


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeededSchedule:
    seed: int

    def rounds(self, sim: "Simulation") -> Iterator[list]:
        """One enabled move per step, drawn from a PRNG; a cm1 ``dc`` move
        draws its selections from it too.  Stops when no move is enabled."""
        rng = random.Random(self.seed)
        while moves := sim.enumerate_moves(with_selections=False):
            move = moves[rng.randrange(len(moves))]
            if move.tag == "dc" and sim.model == "cm1":
                move = sim.attach_selections(move, rng)
            yield [move]

    def describe(self) -> str:
        return f"seed={self.seed}"


@dataclass(frozen=True)
class ExplicitSchedule:
    """A sequence of global steps; each step is a tuple of move descriptors
    executed simultaneously (singletons for an interleaving schedule)."""

    steps: tuple

    def rounds(self, sim: "Simulation") -> Iterator[list]:
        """The moves each step names, resolved in the state it meets."""
        for pos, step in enumerate(self.steps, start=1):
            if not step:
                raise ScheduleError(f"schedule step {pos} (round {sim.round + 1}) is empty")
            yield [sim.resolve_descriptor(d) for d in step]
        raise ScheduleError(
            f"schedule ran out of steps at round {sim.round} with clients still active"
        )

    def describe(self) -> str:
        flat = []
        for step in self.steps:
            flat.append("+".join(describe_descriptor(d) for d in step))
        return ";".join(flat)


# ---------------------------------------------------------------------------
# Simulation state
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    trace: Trace
    sim: "Simulation"
    completed: bool
    reason: str = ""
    schedule_steps: tuple = ()  # executed descriptors up to client completion

    def as_explicit_schedule(self) -> "ExplicitSchedule":
        return ExplicitSchedule(self.schedule_steps)


class Simulation:
    def __init__(self, scenario: Scenario, model: str):
        if model not in MODELS:
            raise ConfigError(f"unknown model {model!r}")
        scenario.validate_for_model(model)
        self.scenario = scenario
        self.model = model
        self.cfg: ClusterConfig = scenario.cfg
        if model == "cm0":
            self.flat = scenario.initial.clone()
            self.replicas = None
            self.ticks = None
        else:
            self.flat = None
            self.replicas = seed_replicas(self.cfg, scenario.initial)
            self.ticks = dict.fromkeys(self.cfg.offset_ranks, START_TICK)  # dc -> clock tick
        self.pc = {a: 0 for a in scenario.programs}
        self.status = {a: ("ready",) for a in scenario.programs}
        self.outs = {a: () for a in scenario.programs}
        self.delegates: dict = {}  # gid -> DelegateState, live delegates only
        self.inflight: dict = {}  # ident -> Message
        self.mailbox: dict = {}  # agent -> {ident: Message}
        self.events: list = []
        self.round = 0
        self.answered: dict = {}  # req -> payload of its RESP event
        self.executed: list = []  # descriptor tuples per round, for replay
        self.options: dict = {}  # (rid, request kind) -> _fragment_options, shared by clones
        if self.replicas is not None:
            self._check_invariants(
                {(rid, j, k) for (rid, j, _, _), copy in self.replicas.data.items() for k in copy}
            )

    # -- plumbing ----------------------------------------------------------

    def clone(self) -> "Simulation":
        s = Simulation.__new__(Simulation)
        s.scenario, s.model, s.cfg = self.scenario, self.model, self.cfg
        s.flat = self.flat.clone() if self.flat is not None else None
        s.replicas = self.replicas.clone() if self.replicas is not None else None
        s.ticks = dict(self.ticks) if self.ticks is not None else None
        s.pc = dict(self.pc)
        s.status = dict(self.status)
        s.outs = dict(self.outs)
        s.delegates = dict(self.delegates)  # delegates are values, shared
        s.inflight = dict(self.inflight)
        s.mailbox = {a: dict(m) for a, m in self.mailbox.items()}
        s.events = list(self.events)
        s.round = self.round
        s.answered = dict(self.answered)
        s.executed = list(self.executed)
        s.options = self.options
        return s

    def home_agent(self, client: str) -> str:
        if self.model == "cm0":
            return DB_AGENT
        return dc_agent(self.scenario.homes[client])

    def req_id(self, client: str, index: int) -> str:
        return f"{client}#{index}"

    def clients_done(self) -> bool:
        return all(
            self.status[a] == ("ready",) and self.pc[a] >= len(self.scenario.programs[a])
            for a in self.scenario.programs
        )

    def trace(self, meta: tuple = ()) -> Trace:
        return Trace(events=tuple(self.events), meta=meta)

    def state_key(self, include_round: bool = True) -> tuple:
        """The state as a tuple of its own hashable values: two states get
        equal keys exactly when they hold the same values.

        The per-agent maps, the ticks and a delegate's counts keep the order
        they were built in (``__init__``, ``CountState.zero``), and steps
        only update existing keys, so they need no sort.  A message's
        receiver is part of its ident, so the mailboxes key as one
        ident-sorted tuple.  A delegate's per-fragment counts are the sums
        of its per-(fragment, dc) counts, so only the latter count.

        ``round`` is not a function of the rest: under ``LOCAL_ONE`` a
        partial answer is either collected (two rounds) or, when the
        delegate has already answered, dropped (one round), and the two
        runs meet one round apart.  So ``search_schedules`` keeps it: the
        traces its predicates see carry real rounds, and a state reached
        past the step limit must not stand for the same state reached
        before it.  ``enumerate_traces`` leaves it out, since it squeezes
        idle rounds out of its traces.
        """
        store = self.flat.state_key() if self.model == "cm0" else self.replicas.state_key()
        boxed = sorted(item for box in self.mailbox.values() for item in box.items())
        return (
            (self.round,) if include_round else (),
            tuple(self.pc.values()),
            tuple(self.status.values()),
            tuple(self.outs.values()),
            tuple(self.ticks.values()) if self.ticks is not None else (),
            store,
            tuple(msg for _, msg in sorted(self.inflight.items())),
            tuple(msg for _, msg in boxed),
            tuple(
                (gid, tuple(d.counts.by_fragment_dc.values()), frozenset(d.answer.items()))
                for gid, d in sorted(self.delegates.items())
            ),
            tuple(sorted(self.answered)),
        )

    def search_key(self) -> tuple:
        """``search_schedules``' de-duplication key: ``state_key()`` plus
        each answered request's RESP payload, sorted by request id.

        ``state_key`` keeps a printed answer (in ``outs``) but not the
        answer to any other request, which a predicate may read
        (``anomaly-read-stale`` does).  A client sends its requests one at a
        time, so the program counters, statuses and answers fix every
        agent's own (kind, req, payload) history.  The answers are keyed by
        request, not in the order they were given: only the order of events
        across agents is left out."""
        return self.state_key(), tuple(sorted(self.answered.items()))

    # -- move enumeration ---------------------------------------------------

    def enumerate_moves(self, with_selections: bool) -> list:
        moves = []
        for ident in sorted(self.inflight):
            moves.append(Move(("deliver", ident), self.inflight[ident]))
        for a in sorted(self.scenario.programs):
            st = self.status[a]
            if st[0] == "ready" and self.pc[a] < len(self.scenario.programs[a]):
                moves.append(Move(("send", a)))
            elif st[0] == "waiting":
                box = self.mailbox.get(a, {})
                for ident in sorted(box):
                    if ident[1] == st[1]:
                        moves.append(Move(("recv", a, ident), box[ident]))
        if self.model == "cm0":
            box = self.mailbox.get(DB_AGENT, {})
            for ident in sorted(box):
                moves.append(Move(("db", ident), box[ident]))
        else:
            for d in self.cfg.all_dcs():
                agent = dc_agent(d)
                box = self.mailbox.get(agent, {})
                for ident in sorted(box):
                    msg = box[ident]
                    if self.model == "cm1" and with_selections:
                        for sel in self.selection_options(msg):
                            moves.append(Move(("dc", agent, ident, sel), msg))
                    else:
                        moves.append(Move(("dc", agent, ident, None), msg))
            for gid in sorted(self.delegates):
                box = self.mailbox.get(gid, {})
                for ident in sorted(box):
                    moves.append(Move(("collect", gid, ident), box[ident]))
        return moves

    def _policy_for(self, kind: str):
        return self.scenario.read_policy if kind == REQ_READ else self.scenario.write_policy

    def _fragment_options(self, msg: Message) -> list:
        """Per fragment of the request's relation, all its compliant
        selections, smallest first, each a sorted tuple of (dc, node) pairs.
        They depend only on the scenario, so they are built once per
        (relation, request kind) and ``Simulation``, and its clones share
        them.  ``validate_for_model`` has made sure there is at least one."""
        rid = msg.payload[0]
        per_fragment = self.options.get((rid, msg.kind))
        if per_fragment is None:
            policy = self._policy_for(msg.kind)
            per_fragment = self.options[rid, msg.kind] = []
            for j in range(1, self.cfg.relation(rid).fragments + 1):
                options = enumerate_compliant_selections(self.cfg, rid, j, policy)
                per_fragment.append((j, [tuple(sorted(g)) for g in options]))
        return per_fragment

    def selection_options(self, msg: Message) -> list:
        """Cartesian product of compliant selections across fragments.  An
        exhaustive search must see every selection, so a fragment with more
        than ``SEL_BOUND`` of them is refused, as is a product too large."""
        combos: list = [()]
        for j, options in self._fragment_options(msg):
            if len(options) > SEL_BOUND:
                raise ConfigError(
                    f"{msg.payload[0]} fragment {j} has more than {SEL_BOUND} compliant "
                    "selections; exhaustive cm1 search enumerates at most that many"
                )
            combos = [c + ((j, g),) for c in combos for g in options]
            if len(combos) > SEL_BOUND * 8:
                raise ConfigError(
                    "selection space too large to enumerate; lower the replica "
                    "count or fragment count of the scenario"
                )
        return combos

    def attach_selections(self, move: Move, rng: random.Random) -> Move:
        """``move``, a cm1 ``dc`` move, with one compliant selection per
        fragment drawn from ``rng``."""
        sel = tuple(
            (j, options[rng.randrange(len(options))])
            for j, options in self._fragment_options(move.msg)
        )
        return Move(move.desc[:3] + (sel,), move.msg)

    def resolve_descriptor(self, desc: tuple) -> Move:
        kind = MOVE_KINDS.get(desc[0])
        if kind is None or len(desc) != 1 + len(kind.fields):
            raise ScheduleError(f"unknown move descriptor {desc!r}")
        fields = dict(zip(kind.fields, desc[1:]))
        try:
            msg = kind.find(self, fields.get("agent", ""), fields.get("ident"))
        except KeyError as exc:
            raise ScheduleError(
                f"move {describe_descriptor(desc)} is not enabled at round {self.round}: {exc}"
            ) from None
        if "sel" in fields:
            desc = desc[:-1] + (self._explicit_selections(desc, msg, fields["sel"]),)
        return Move(desc, msg)

    def _explicit_selections(self, desc: tuple, msg: Message, sel: Optional[tuple]):
        """A named step's replica selections, each group as a sorted tuple.
        cm1 takes one group per fragment, and each group must comply with
        the request's policy; the other models take none."""
        if self.model != "cm1":
            if sel is not None:
                raise ScheduleError(
                    f"{self.model} step {describe_descriptor(desc)} takes no selections"
                )
            return None
        if sel is None:
            raise ScheduleError(f"cm1 step {describe_descriptor(desc)} needs selections")
        sel = tuple((j, tuple(sorted(set(group)))) for j, group in sel)
        rid = msg.payload[0]
        fragments = list(range(1, self.cfg.relation(rid).fragments + 1))
        if sorted(j for j, _ in sel) != fragments:
            raise ScheduleError(
                f"cm1 step {describe_descriptor(desc)} needs one group for each fragment of {rid}"
            )
        policy = self._policy_for(msg.kind)
        for j, group in sel:
            try:
                ok = complies(group, policy, self.cfg, rid, j)
            except ConfigError as exc:
                raise ScheduleError(f"cm1 step {describe_descriptor(desc)}: {exc}") from None
            if not ok:
                raise ScheduleError(
                    f"cm1 step {describe_descriptor(desc)}: group {j} breaks policy {policy}"
                )
        return sel

    # -- step execution ------------------------------------------------------

    def execute_move(self, move: Move) -> StepEffect:
        return MOVE_KINDS[move.tag].run(self, move)

    def _deliver(self, move: Move) -> StepEffect:
        return StepEffect()  # the engine moves the message

    def _client_send(self, move: Move) -> StepEffect:
        a = move.agent
        step = self.scenario.programs[a][self.pc[a]]
        req = self.req_id(a, self.pc[a])
        eff = StepEffect()
        if step.kind == "read":
            msg = Message(REQ_READ, req, a, self.home_agent(a), payload=(step.rid, step.cond))
        else:
            msg = Message(REQ_WRITE, req, a, self.home_agent(a), payload=(step.rid, step.pairs))
        eff.sends.append(msg)
        eff.update(("pc", a), self.pc[a] + 1)
        eff.update(("status", a), ("waiting", req))
        return eff

    def _client_recv(self, move: Move) -> StepEffect:
        a = move.agent
        eff = StepEffect()
        eff.update(("status", a), ("ready",))
        step = self._printing_step(move)
        if step is not None:
            eff.update(("out", a), self.outs[a] + ((step.rid, move.msg.payload[1]),))
        return eff

    def _printing_step(self, move: Move):
        """The read step whose answer a ``recv`` move prints, or None."""
        step = self.scenario.programs[move.agent][int(move.msg.req.split("#", 1)[1])]
        return step if step.kind == "read" and step.print_answer else None

    def _db_step(self, move: Move) -> StepEffect:
        msg = move.msg
        eff = StepEffect()
        rid = msg.payload[0]
        if msg.kind == REQ_READ:
            rows = db_answer_read(self.flat, self.cfg, rid, msg.payload[1])
            eff.sends.append(Message(ANSWER, msg.req, DB_AGENT, msg.sender, payload=(rid, rows)))
        else:
            for k, v in msg.payload[1]:
                eff.update(("flat", rid, k), v)
            eff.sends.append(Message(ACK, msg.req, DB_AGENT, msg.sender, payload=(rid,)))
        return eff

    def _dc_step(self, move: Move) -> StepEffect:
        d = int(move.agent[1:])
        msg = move.msg
        if self.model == "cm1":
            selections = dict(move.desc[3])
            if msg.kind == REQ_READ:
                return cm1.answer_read_req(self.replicas, self.cfg, d, msg, selections)
            return cm1.perform_write_req(self.replicas, self.ticks, self.cfg, d, msg, selections)
        if msg.kind in REQUEST_KINDS:
            return delegate_external_req(self.replicas, self.ticks, self.cfg, d, msg)
        if msg.kind == FWD:
            return manage_internal_req(self.replicas, self.ticks, self.cfg, d, msg)
        raise ConfigError(f"data centre {d} cannot process {msg.kind}")

    def _collect(self, move: Move) -> StepEffect:
        delegate = self.delegates[move.agent]
        policy = self._policy_for(REQ_READ if delegate.kind == "read" else REQ_WRITE)
        return collect_respond(delegate, self.cfg, policy, move.msg)

    # -- applying a global step ----------------------------------------------

    def apply_round(self, moves: list) -> None:
        if not moves:
            raise ConfigError("a global step needs at least one move")
        effects = [self.execute_move(m) for m in moves]
        # a discarded round leaves the state as it was, so check before
        # anything changes
        merged: dict = {}
        for eff in effects:
            for loc, value in eff.updates.items():
                if loc in merged and merged[loc] != value:
                    raise RunDiscarded(
                        f"round {self.round + 1}: conflicting updates at {loc!r}: "
                        f"{merged[loc]!r} vs {value!r}"
                    )
                merged[loc] = value
        if len(moves) > 1:
            taken = [m.msg.ident() for m in moves if m.msg is not None]
            if len(set(taken)) < len(taken):
                raise RunDiscarded(f"round {self.round + 1}: two moves take the same message")
            # e.g. two collects that each complete one delegate: both delete
            # it, so their updates agree, but both send its response
            sent = [msg.ident() for eff in effects for msg in eff.sends]
            if len(set(sent)) < len(sent):
                raise RunDiscarded(f"round {self.round + 1}: two moves send the same message")
        self.round += 1
        self.executed.append(tuple(m.descriptor() for m in moves))
        # messages: taken ones first, then fresh sends
        for move in moves:
            msg = move.msg
            if msg is None:
                continue
            if move.tag == "deliver":
                del self.inflight[msg.ident()]
                # a late message to a deleted delegate is dropped
                if not msg.receiver.startswith("g!") or msg.receiver in self.delegates:
                    self.mailbox.setdefault(msg.receiver, {})[msg.ident()] = msg
            elif self.mailbox.get(msg.receiver, {}).pop(msg.ident(), None) is None:
                raise SimInvariantError(f"consumed message not in mailbox: {msg}")
        for eff in effects:
            for msg in eff.sends:
                if msg.ident() in self.inflight:
                    raise SimInvariantError(f"duplicate in-flight message {msg}")
                self.inflight[msg.ident()] = msg
        self._apply_updates(merged)
        for move, eff in zip(moves, effects):
            event = self._event(move, eff.sends)
            if event is not None:
                if event.kind == RESP:
                    if event.req in self.answered:
                        raise SimInvariantError(f"second response for request {event.req}")
                    self.answered[event.req] = event.payload
                self.events.append(event)
        for move in moves:
            msg = move.msg
            if move.tag == "dc" and msg.kind == FWD and msg.payload[0] == REQ_WRITE:
                # the message-passing clock condition holds after a forwarded write
                d, t = int(move.agent[1:]), msg.payload[3]
                if catch_up(self.cfg, self.ticks, d, t):
                    raise SimInvariantError(
                        f"clock at dc {d} behind {t} after processing its message"
                    )
        self._check_invariants({(loc[1], loc[2], loc[5]) for loc in merged if loc[0] == "rep"})

    def _event(self, move: Move, sends: list) -> Optional[TraceEvent]:
        """The trace event of a move in this round: REQ when a request is
        delivered, RESP when the step sends a client its answer or ack, and
        PRINT when a ``recv`` completes a printing read."""
        msg = move.msg
        if move.tag == "deliver" and msg.kind in REQUEST_KINDS:
            op = "read" if msg.kind == REQ_READ else "write"
            return TraceEvent(self.round, REQ, msg.sender, msg.req, (op,) + msg.payload)
        if move.tag == "recv" and self._printing_step(move) is not None:
            return TraceEvent(self.round, PRINT, move.agent, msg.req, ("print",) + msg.payload)
        for sent in sends:
            if sent.kind in (ANSWER, ACK):
                return TraceEvent(self.round, RESP, sent.receiver, sent.req, (sent.kind,) + sent.payload)
        return None

    def _apply_updates(self, merged: dict) -> None:
        for loc, value in merged.items():
            tag = loc[0]
            if tag == "flat":
                _, rid, k = loc
                self.flat.set(rid, k, value)
            elif tag == "rep":
                _, rid, j, d, node, k = loc
                v, t = value
                self.replicas.store(rid, j, d, node, k, v, t)
            elif tag == "clock":
                _, d = loc
                if value < self.ticks[d]:
                    raise SimInvariantError(f"clock at dc {d} moved backwards")
                self.ticks[d] = value
            elif tag == "pc":
                self.pc[loc[1]] = value
            elif tag == "status":
                self.status[loc[1]] = value
            elif tag == "out":
                self.outs[loc[1]] = value
            elif tag == "delegate":
                gid = loc[1]
                if value is None:  # answered: the delegate and its mailbox go
                    del self.delegates[gid]
                    self.mailbox.pop(gid, None)
                else:
                    self.delegates[gid] = value
            else:  # pragma: no cover
                raise ConfigError(f"unknown update location {loc!r}")

    def _check_invariants(self, keys: Iterable[tuple]) -> None:
        """Copies of each (rid, j, key) in ``keys`` agree on the value at the
        key's maximal timestamp.  Only ``rep`` updates change a replica, so
        a round needs to check only the keys it wrote."""
        for rid, j, k in keys:
            copies = self.replicas.copies(rid, j, self.cfg.candidates(rid, j))
            try:
                freshest({k: copy[k]} for copy in copies if k in copy)
            except ConfigError as exc:
                raise SimInvariantError(f"replicas of {rid}: {exc}") from None

    # -- run loop --------------------------------------------------------------

    def drain(self, step_limit: int) -> bool:
        """Deliver and process all remaining internal traffic, one move per
        step in canonical order.  Effects of the drained moves are
        order-insensitive (conditional timestamped writes and clock joins),
        so this keeps runs deterministic."""
        while True:
            moves = self.enumerate_moves(with_selections=False)
            if not moves:
                return True
            if self.round >= step_limit:
                return False
            self.apply_round([moves[0]])


# ---------------------------------------------------------------------------
# Move kinds
# ---------------------------------------------------------------------------


def _in_flight(sim: Simulation, agent: str, ident: tuple) -> Message:
    return sim.inflight[ident]


def _client_can_send(sim: Simulation, agent: str, ident: None) -> None:
    if sim.status[agent] != ("ready",) or sim.pc[agent] >= len(sim.scenario.programs[agent]):
        raise KeyError("client cannot send now")


def _in_own_box(sim: Simulation, agent: str, ident: tuple) -> Message:
    return sim.mailbox[agent][ident]


def _in_db_box(sim: Simulation, agent: str, ident: tuple) -> Message:
    return sim.mailbox[DB_AGENT][ident]


# Search ranks: client progress and request handling come before internal
# fan-out, pending writes before reads, and forwarded propagation last:
# consistency anomalies live where propagation lags behind answers, so the
# first descents head straight for them.
_DELIVER_RANK = {
    ANSWER: (2,), ACK: (2,), LOCAL_ANSWER: (4,), LOCAL_ACK: (4,),
    REQ_WRITE: (6, 0), REQ_READ: (6, 1), None: (8,),
}
_STORE_RANK = {REQ_WRITE: (5, 0), REQ_READ: (5, 1), None: (7,)}

# Footprint tokens: a message's ident, a client or delegate name, a relation
# as ("rel", rid), and STORE, which stands for the replicas, the clocks and
# the delegate table that every dc and collect move may read and write.
STORE = ("store",)


def _deliver_footprint(move: Move) -> tuple:
    # commutes with a collect that deletes the receiving delegate: delivered
    # first, the message leaves with the delegate's mailbox; after, it is dropped
    return (move.msg.ident(),), ()


def _send_footprint(move: Move) -> tuple:
    return (move.agent,), ()


def _recv_footprint(move: Move) -> tuple:
    return (move.agent, move.msg.ident()), ()


def _db_footprint(move: Move) -> tuple:
    relation = ("rel", move.msg.payload[0])
    if move.msg.kind == REQ_READ:
        return (move.msg.ident(),), (relation,)
    return (move.msg.ident(), relation), ()


def _dc_footprint(move: Move) -> tuple:
    return (move.msg.ident(), STORE), ()


def _collect_footprint(move: Move) -> tuple:
    return (move.msg.ident(), move.agent, STORE), ()


MOVE_KINDS = {
    "deliver": MoveKind(("ident",), _in_flight, Simulation._deliver, _DELIVER_RANK,
                        _deliver_footprint),
    "send": MoveKind(("agent",), _client_can_send, Simulation._client_send, {None: (1,)},
                     _send_footprint),
    "recv": MoveKind(("agent", "ident"), _in_own_box, Simulation._client_recv, {None: (0,)},
                     _recv_footprint),
    "db": MoveKind(("ident",), _in_db_box, Simulation._db_step, _STORE_RANK, _db_footprint),
    "dc": MoveKind(("agent", "ident", "sel"), _in_own_box, Simulation._dc_step, _STORE_RANK,
                   _dc_footprint),
    "collect": MoveKind(("agent", "ident"), _in_own_box, Simulation._collect, {None: (3,)},
                        _collect_footprint),
}


def footprint(move: Move) -> tuple:
    """The tokens ``move`` writes and the tokens it touches, as two frozensets."""
    writes, reads = MOVE_KINDS[move.tag].footprint(move)
    return frozenset(writes), frozenset(writes + reads)


def independent(a: tuple, b: tuple) -> bool:
    """Whether two moves with footprints ``a`` and ``b`` are independent:
    neither writes a token the other touches.  Two independent moves enabled
    in one state stay enabled after each other, and both orders reach states
    with equal ``state_key()`` (``tests/test_independence.py``).  Their
    events may come in either order, which a state key leaves out."""
    return a[0].isdisjoint(b[1]) and b[0].isdisjoint(a[1])


def run(
    scenario: Scenario,
    model: str,
    schedule,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> RunResult:
    """Execute the scenario to completion (or the step limit) and return the
    trace plus the final state."""
    sim = Simulation(scenario, model)
    rounds = schedule.rounds(sim)
    meta = _meta(scenario, model, schedule)
    while not sim.clients_done():
        if sim.round >= step_limit:
            return RunResult(sim.trace(meta), sim, False, "step limit reached")
        moves = next(rounds, None)
        if moves is None:
            return RunResult(sim.trace(meta), sim, False, "no enabled moves")
        sim.apply_round(moves)
    steps = tuple(sim.executed)
    if isinstance(schedule, ExplicitSchedule) and len(schedule.steps) > sim.round:
        # each step is one round
        raise ScheduleError(
            f"{len(schedule.steps) - sim.round} schedule steps left after all clients finished"
        )
    if not sim.drain(step_limit):
        return RunResult(sim.trace(meta), sim, False, "step limit reached in drain", steps)
    if sim.inflight:
        raise SimInvariantError("in-flight messages remain after a completed run")
    return RunResult(sim.trace(meta), sim, True, "completed", steps)


def _meta(scenario: Scenario, model: str, schedule) -> tuple:
    return (
        ("scenario", scenario.name),
        ("model", model),
        ("schedule", schedule.describe()),
    )


# ---------------------------------------------------------------------------
# Schedule search and exhaustive trace enumeration
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    witness: Optional[ExplicitSchedule]
    trace: Optional[Trace]
    exhausted: bool
    explored: int


def _search_priority(move: Move) -> tuple:
    """Exploration order for the schedule search (not part of the schedule
    semantics); see the ranks in MOVE_KINDS."""
    rank = MOVE_KINDS[move.tag].rank
    msg_kind = move.msg.kind if move.msg is not None else None
    return rank.get(msg_kind, rank[None]) + (move.descriptor(),)


def search_schedules(
    scenario: Scenario,
    model: str,
    predicate: Callable[[Trace, Scenario], bool],
    budget: int = 1_000_000,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> SearchResult:
    """Depth-first search over singleton-move schedules for a completed run
    whose trace satisfies the predicate.  The witness is the schedule the
    search executed, so it replays exactly.

    Three reductions cut the search, each after Godefroid (LNCS 1032):

    - Persistent sets.  Where a state has an eager move (``_is_eager``), only
      the first one in ``_search_priority`` order is expanded, by the rule
      ``enumerate_traces`` uses: every completed run from the state has a
      counterpart that takes that move first and emits the same events in
      the same order.  Only moves that emit no event are moved, so every
      agent's own payload history is kept; the rounds of events shift.
    - State caching.  States are de-duplicated on ``Simulation.search_key``:
      the state, round included, plus each request's answer.  Equal keys
      mean equal per-agent payload histories, so a predicate that reads only
      those, as the bundled ones do, answers alike for every run through one
      key.  A predicate that reads the order of events across agents may
      miss a witness.  With the round in the key, a state past the step
      limit does not stand for one before it.
    - Sleep sets.  A state's sleep set holds its parent's sleep set and the
      moves its parent expanded before the move into it, each kept only if
      ``independent`` of that move: both orders reach one key, covered
      below the earlier move.  A sleeping move is not expanded.  Under state
      caching, each visited key stores the sleep set it was expanded with
      (Godefroid, Holzmann & Pirottin, "State-space caching revisited",
      FMSD 7(3), 1995).  A revisit is cut only if the stored set is a subset
      of the current one.  Otherwise it expands the persistent-set moves
      that slept before but not now, and stores the intersection.

    A completed state is keyed like any other and never expanded.  It is
    drained in place, as ``run`` drains it, which runs the invariant checks
    and can trip the step limit; the predicate sees the drained trace.
    ``explored`` counts the states popped from the stack, revisits included:
    the root, and one clone and one applied move for each other state.
    ``budget`` caps it.  ``exhausted`` is True when the search ran out of
    states within budget with no branch cut at the step limit.
    """
    root = Simulation(scenario, model)
    visited: dict = {}  # search key -> sleep set it was expanded with
    explored = 0
    cut = False  # a branch was skipped at the step limit
    stack = [(root, {})]  # (state, sleep set as descriptor -> footprint)
    while stack:
        sim, sleep = stack.pop()
        explored += 1
        if explored > budget:
            return SearchResult(None, None, False, explored)
        key = sim.search_key()
        stored = visited.get(key)
        if stored is None:
            if sim.clients_done():
                visited[key] = {}  # never expanded, so every revisit is cut
                steps = tuple(sim.executed)
                if not sim.drain(step_limit):
                    cut = True
                elif predicate(sim.trace(_meta(scenario, model, ExplicitSchedule(()))), scenario):
                    witness = ExplicitSchedule(steps)
                    return SearchResult(witness, sim.trace(_meta(scenario, model, witness)), False,
                                        explored)
                continue
            if sim.round >= step_limit:
                cut = True
                continue
            visited[key] = sleep
            moves = [m for m in _search_expansion(sim) if m.desc not in sleep]
        elif stored.keys() <= sleep.keys():
            continue
        else:
            moves = [m for m in _search_expansion(sim) if m.desc in stored and m.desc not in sleep]
            sleep = visited[key] = {d: f for d, f in sleep.items() if d in stored}
        children = []
        covered = dict(sleep)  # the sleep set plus the moves expanded before
        for move in moves:
            fp = footprint(move)
            child = sim.clone()
            child.apply_round([move])  # one move's updates cannot conflict
            children.append((child, {d: f for d, f in covered.items() if independent(f, fp)}))
            covered[move.desc] = fp
        stack.extend(reversed(children))
    return SearchResult(None, None, not cut, explored)


def _is_eager(sim: Simulation, move: Move) -> bool:
    """A ``deliver``, ``send`` or ``recv`` that emits no trace event: such a
    move commutes with every other move; see ``enumerate_traces``.  None of
    the three sends an answer or ack, so its event needs no sends."""
    return move.tag in ("deliver", "send", "recv") and sim._event(move, ()) is None


def _persistent_set(sim: Simulation, moves: list) -> list:
    """The moves to expand at ``sim``, given its enabled ``moves``: the
    first eager one alone, or else all of them; see ``enumerate_traces``
    for why one eager move is enough."""
    return next(([move] for move in moves if _is_eager(sim, move)), moves)


def _search_expansion(sim: Simulation) -> list:
    moves = sorted(sim.enumerate_moves(with_selections=True), key=_search_priority)
    return _persistent_set(sim, moves)


def enumerate_traces(
    scenario: Scenario,
    model: str,
    max_states: int = 2_000_000,
) -> frozenset:
    """All completed-run traces reachable under singleton-move schedules,
    with step indices normalized to dense event ranks.

    Scheduler rounds that emit no event are squeezed out, so each returned
    trace stands for every run with the same event order; rank compression
    only narrows request windows, which keeps COMPATIBLE verdicts on these
    traces valid for the runs they stand for.

    Where a state has an *eager* move, only the first one is expanded (a
    persistent set of one move, after Godefroid, LNCS 1032).  Eager moves
    are a ``deliver`` of a message other than a request, a ``send``, and a
    ``recv`` whose program step does not print.  Such a move emits no event
    and touches only its own agent's ``pc``/``status`` or one message's
    place: in flight, then in a mailbox, or dropped at a dead delegate,
    which the delegate's deletion would also do.  No other enabled
    move touches the same, the moves it enables (the message's consumer,
    the client's next step) can only follow it, and nothing disables it.
    So every completed run from the state either contains the move, and
    moving it to the front keeps the run's event sequence, or completes
    without it, and the same run after it gives the same event sequence.
    The returned set is the unreduced one.  The choice depends only on the
    state, so suffixes are memoised by ``state_key``; ``max_states`` counts
    the distinct states of the reduced graph.  The graph is walked with an
    explicit stack, so no recursion limit caps the length of a run.
    """

    memo: dict = {}
    states = 0
    # A frame is (state key, state, moves still to try, suffixes found so
    # far, events of the move into the state, the parent's suffixes).  When
    # its moves are done, its suffix set is memoised and extends the parent's.
    stack: list = []

    def visit(sim: Simulation, emitted: tuple, parent_out: set) -> None:
        nonlocal states
        if sim.clients_done():
            parent_out.add(emitted)
            return
        key = sim.state_key(include_round=False)
        cached = memo.get(key)
        if cached is not None:
            parent_out.update(emitted + suffix for suffix in cached)
            return
        states += 1
        if states > max_states:
            raise ConfigError(f"trace enumeration exceeded {max_states} states")
        moves = _persistent_set(sim, sim.enumerate_moves(with_selections=True))
        stack.append((key, sim, iter(moves), set(), emitted, parent_out))

    bodies: set = set()
    visit(Simulation(scenario, model), (), bodies)
    while stack:
        key, sim, moves, out, emitted, parent_out = stack[-1]
        move = next(moves, None)
        if move is None:
            stack.pop()
            memo[key] = suffixes = frozenset(out)
            parent_out.update(emitted + suffix for suffix in suffixes)
            continue
        child = sim.clone()
        mark = len(child.events)
        child.apply_round([move])  # one move's updates cannot conflict
        visit(child, tuple((e.kind, e.agent, e.req, e.payload) for e in child.events[mark:]), out)

    traces = set()
    for body in bodies:
        events = tuple(
            TraceEvent(i, kind, agent, req, payload)
            for i, (kind, agent, req, payload) in enumerate(body, start=1)
        )
        traces.add(Trace(events=events))
    return frozenset(traces)
