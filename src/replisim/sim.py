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
from functools import cache
from typing import Callable, Iterable, Iterator, Optional

from . import cm1
from .cm0 import db_answer_read
from .cm2 import collect_respond, delegate_external_req, manage_internal_req
from .core import START_TICK, ClusterConfig, ConfigError, catch_up, seed_replicas
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
from .policies import enumerate_compliant_selections
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


def describe_descriptor(desc: tuple) -> str:
    """``tag[field|field...]``, leaving out a ``None`` selection."""
    kind = MOVE_KINDS.get(desc[0])
    if kind is None:
        return repr(desc)
    parts = (_FIELDS[f](v) for f, v in zip(kind.fields, desc[1:]) if v is not None)
    return f"{desc[0]}[{'|'.join(parts)}]"


_SEND_BOX = {None: None}  # every send group's box, shared and never written


def _group_move(prefix: tuple, box: dict, ident: Optional[tuple]) -> Move:
    """The move of ``ident`` in a ``Simulation._move_groups`` group (a send's is None)."""
    if ident is None:
        return Move(prefix)
    return Move(prefix + ((ident, None) if prefix[0] == "dc" else (ident,)), box[ident])


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
    run: Callable  # (sim, move) -> StepEffect
    rank: dict  # search rank by message kind; None ranks every other kind


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
        while move := sim._pick_move(rng.randrange):
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


# ``state_key()``'s components in key order, each built from the state; a
# ``Simulation`` caches them in ``_key`` until a round changes them
_KEY_PARTS = (
    lambda s: tuple(s.pc.values()),
    lambda s: tuple(s.status.values()),
    lambda s: tuple(s.outs.values()),
    lambda s: tuple(s.ticks.values()) if s.ticks is not None else (),
    lambda s: s.flat.state_key() if s.model == "cm0" else s.replicas.state_key(),
    lambda s: tuple([s.inflight[i] for i in sorted(s.inflight)]),
    lambda s: tuple([s.mailbox[i[3]][i] for i in sorted([i for box in s.mailbox.values() for i in box])]),
    lambda s: tuple([s.delegates[gid].key_part for gid in sorted(s.delegates)]),
)
_TICKS, _STORE, _INFLIGHT, _MAILBOX = 3, 4, 5, 6
# the component each update location's tag changes
_PART_OF = {"pc": 0, "status": 1, "out": 2, "clock": 3, "flat": 4, "rep": 4, "delegate": 7}


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
            self.stores = ((("db",), DB_AGENT),)  # (descriptor prefix, agent), in move order
        else:
            self.flat = None
            self.replicas = seed_replicas(self.cfg, scenario.initial)
            self.ticks = dict.fromkeys(self.cfg.offset_ranks, START_TICK)  # dc -> clock tick
            self.stores = tuple((("dc", dc_agent(d)), dc_agent(d)) for d in self.cfg.all_dcs())
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
        # each client in move order with its ``send`` and ``recv`` prefixes, and
        # the program lengths; these and ``stores`` are fixed per scenario and
        # shared by clones
        self.clients = tuple((a, ("send", a), ("recv", a)) for a in sorted(scenario.programs))
        self.lengths = {a: len(scenario.programs[a]) for a, _, _ in self.clients}
        self._key: list = [None] * len(_KEY_PARTS)  # cached components, None once stale
        self._memo: Optional[dict] = None  # a walk's step effects (``_effect``), shared by clones
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
        s.clients, s.lengths, s.stores = self.clients, self.lengths, self.stores
        s._key = list(self._key)  # the components are immutable, so shared
        s._memo = self._memo
        return s

    def home_agent(self, client: str) -> str:
        if self.model == "cm0":
            return DB_AGENT
        return dc_agent(self.scenario.homes[client])

    def req_id(self, client: str, index: int) -> str:
        return f"{client}#{index}"

    def clients_done(self) -> bool:
        for a, n in self.lengths.items():
            if self.pc[a] < n or self.status[a] != ("ready",):
                return False
        return True

    def trace(self, meta: tuple = ()) -> Trace:
        return Trace(events=tuple(self.events), meta=meta)

    def state_key(self) -> tuple:
        """The state as a tuple of its own hashable values: two states get
        equal keys exactly when they hold the same values.

        The per-agent maps, the ticks and a delegate's counts keep the order
        they were built in (``__init__``, ``CountState.zero``), and steps
        only update existing keys, so they need no sort.  A message's
        receiver is part of its ident, so the mailboxes key as one
        ident-sorted tuple.

        ``round`` is how many steps a run took to reach the state, a fact
        about the run: under ``LOCAL_ONE`` two runs meet in one state one
        round apart (``tests/test_state_partition.py``).  ``answered`` is
        fixed by the rest: a request is answered from its RESP until its
        client's ``recv``, while its answer or ack is in flight or in the
        client's mailbox, and after the ``recv`` the client's ``pc`` and
        ``status`` show it.  Neither is in the key.

        Each component (``_KEY_PARTS``) is cached until ``apply_round``
        changes it, so stored keys share the components a round left alone.
        Code that edits a ``Simulation``'s maps directly must reset ``_key``
        to all ``None`` afterwards.
        """
        key = self._key
        if None in key:
            for i, part in enumerate(key):
                if part is None:
                    self._part(i)
        return tuple(key)

    def _part(self, i: int):
        """``state_key()``'s component ``i``, cached in ``_key``."""
        part = self._key[i]
        if part is None:
            part = self._key[i] = _KEY_PARTS[i](self)
        return part

    def search_key(self) -> tuple:
        """``search_schedules``' de-duplication key: ``state_key()`` plus
        each answered request's RESP payload, sorted by request id.

        ``state_key`` keeps a printed answer (in ``outs``) but not the
        answer to any other request, which a predicate may read
        (``anomaly-read-stale`` does).  A client sends its requests one at a
        time, so the program counters, statuses and answers fix every
        agent's own history, ``Trace.histories()``.  The answers are keyed by
        request, not in the order they were given: only the order of events
        across agents, and the round, are left out."""
        return self.state_key(), tuple(sorted(self.answered.items()))

    # -- move enumeration ---------------------------------------------------

    def _move_groups(self) -> list:
        """The enabled moves as non-empty groups, in ``enumerate_moves``
        order: ``(prefix, box)`` stands for ``Move(prefix + (ident,),
        box[ident])`` per ident of ``box`` in sorted order (``_group_move``),
        and a ``send``'s box is ``_SEND_BOX``."""
        groups = [(("deliver",), self.inflight)] if self.inflight else []
        for a, send, recv in self.clients:
            st = self.status[a]
            if st[0] == "ready":
                if self.pc[a] < self.lengths[a]:
                    groups.append((send, _SEND_BOX))
            elif (box := self.mailbox.get(a)) and (box := {i: m for i, m in box.items() if i[1] == st[1]}):
                groups.append((recv, box))
        for prefix, agent in self.stores:
            if box := self.mailbox.get(agent):
                groups.append((prefix, box))
        if self.delegates:
            for gid in sorted(self.delegates):
                if box := self.mailbox.get(gid):
                    groups.append((("collect", gid), box))
        return groups

    def enumerate_moves(self, with_selections: bool, _groups: Optional[list] = None) -> list:
        """Every enabled move; ``_groups`` is this state's ``_move_groups()``, if at hand."""
        moves = []
        for prefix, box in self._move_groups() if _groups is None else _groups:
            for ident in sorted(box):
                if prefix[0] == "dc" and self.model == "cm1" and with_selections:
                    msg = box[ident]
                    moves += [Move(prefix + (ident, sel), msg) for sel in self.selection_options(msg)]
                else:
                    moves.append(_group_move(prefix, box, ident))
        return moves

    def _pick_move(self, pick: Callable[[int], int]) -> Optional[Move]:
        """``enumerate_moves(with_selections=False)[pick(n)]`` for the ``n``
        enabled moves, building only that move; ``None`` when ``n`` is 0."""
        groups = self._move_groups()
        n = 0
        for _, box in groups:
            n += len(box)
        if not n:
            return None
        i = pick(n)
        for prefix, box in groups:
            if i < len(box):
                return _group_move(prefix, box, sorted(box)[i])
            i -= len(box)
        raise IndexError(f"move index {i} past the enabled moves")

    def _policy_for(self, kind: str):
        return self.scenario.read_policy if kind == REQ_READ else self.scenario.write_policy

    def _fragment_options(self, msg: Message) -> list:
        """Per fragment of the request's relation, all its compliant
        selections (``enumerate_compliant_selections``).
        ``validate_for_model`` has made sure there is at least one."""
        rid, policy = msg.payload[0], self._policy_for(msg.kind)
        return [
            (j, enumerate_compliant_selections(self.cfg, rid, j, policy))
            for j in range(1, self.cfg.relation(rid).fragments + 1)
        ]

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
        """The move ``enumerate_moves(with_selections=False)`` lists for
        ``desc``.  A cm1 ``dc`` descriptor matches on its tag, agent and
        ident, and its selection must then be one of the request's compliant
        groups per fragment; the other models take no selection."""
        kind = MOVE_KINDS.get(desc[0])
        if kind is None or len(desc) != 1 + len(kind.fields):
            raise ScheduleError(f"unknown move descriptor {desc!r}")
        sel = desc[3] if desc[0] == "dc" else None
        name = desc if sel is None else desc[:3] + (None,)
        for prefix, box in self._move_groups():  # the group the name starts with, if enabled
            ident = name[len(prefix)] if len(name) > len(prefix) else None
            if name[:len(prefix)] == prefix and ident in list(box):  # a bad ident may not hash
                move = _group_move(prefix, box, ident)
                break
        else:
            raise ScheduleError(
                f"move {describe_descriptor(desc)} is not enabled at round {self.round}"
            )
        if self.model == "cm1" and move.tag == "dc":
            return Move(desc[:3] + (self._explicit_selections(desc, move.msg, sel),), move.msg)
        if sel is not None:
            raise ScheduleError(f"{self.model} step {describe_descriptor(desc)} takes no selections")
        return move

    def _explicit_selections(self, desc: tuple, msg: Message, sel: Optional[tuple]) -> tuple:
        """A named cm1 step's replica selections: one group per fragment,
        each one of the request's compliant selections in
        ``_fragment_options``, as a sorted tuple, in fragment order."""
        if sel is None:
            raise ScheduleError(f"cm1 step {describe_descriptor(desc)} needs selections")
        options = dict(self._fragment_options(msg))
        sel = tuple(sorted((j, tuple(sorted(set(group)))) for j, group in sel))
        if [j for j, _ in sel] != sorted(options):
            raise ScheduleError(
                f"cm1 step {describe_descriptor(desc)} needs one group for each fragment "
                f"of {msg.payload[0]}"
            )
        for j, group in sel:
            if group not in options[j]:
                raise ScheduleError(
                    f"cm1 step {describe_descriptor(desc)}: group {j} is not a selection that "
                    f"complies with policy {self._policy_for(msg.kind)}"
                )
        return sel

    # -- step execution ------------------------------------------------------

    def execute_move(self, move: Move) -> StepEffect:
        return MOVE_KINDS[move.desc[0]].run(self, move)

    def _effect(self, move: Move) -> StepEffect:
        """``execute_move(move)``, or in a walk (``_memo`` set) the effect of
        an earlier step with equal inputs.  A ``db`` or ``dc`` step reads its
        descriptor, its message, the ticks and the store; a ``collect`` its
        descriptor, its message and its delegate's whole value (``key_part``
        leaves out ``log``).  The scenario is fixed within a walk, and the
        engine's own checks in ``apply_round`` still run at every state."""
        tag = move.desc[0]
        if self._memo is None or tag in ("deliver", "send", "recv"):  # cheap steps
            return self.execute_move(move)
        if tag == "collect":
            delegate = self.delegates[move.desc[1]]
            key = move.desc, move.msg, delegate.key_part, delegate.log
        else:
            key = move.desc, move.msg, self._part(_TICKS), self._part(_STORE)
        if (eff := self._memo.get(key)) is None:
            eff = self._memo[key] = self.execute_move(move)
        return eff

    def _deliver(self, move: Move) -> StepEffect:
        return StepEffect()  # the engine moves the message

    def _client_send(self, move: Move) -> StepEffect:
        a = move.agent
        step = self.scenario.programs[a][self.pc[a]]
        req = self.req_id(a, self.pc[a])
        if step.kind == "read":
            msg = Message(REQ_READ, req, a, self.home_agent(a), payload=(step.rid, step.cond))
        else:
            msg = Message(REQ_WRITE, req, a, self.home_agent(a), payload=(step.rid, step.pairs))
        return StepEffect({("pc", a): self.pc[a] + 1, ("status", a): ("waiting", req)}, [msg])

    def _client_recv(self, move: Move) -> StepEffect:
        a = move.agent
        eff = StepEffect({("status", a): ("ready",)})
        step = self._printing_step(a, move.msg.req)
        if step is not None:
            eff.update(("out", a), self.outs[a] + ((step.rid, move.msg.payload[1]),))
        return eff

    def _printing_step(self, agent: str, req: str):
        """The read step whose answer ``agent``'s ``recv`` of ``req``'s reply prints, or None."""
        step = self.scenario.programs[agent][int(req.split("#", 1)[1])]
        return step if step.kind == "read" and step.print_answer else None

    def _db_step(self, move: Move) -> StepEffect:
        msg = move.msg
        rid = msg.payload[0]
        if msg.kind == REQ_READ:
            rows = db_answer_read(self.flat, self.cfg, rid, msg.payload[1])
            return StepEffect(sends=[Message(ANSWER, msg.req, DB_AGENT, msg.sender, payload=(rid, rows))])
        updates = {("flat", rid, k): v for k, v in msg.payload[1]}
        return StepEffect(updates, [Message(ACK, msg.req, DB_AGENT, msg.sender, payload=(rid,))])

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
        effects = [self._effect(m) for m in moves]
        # a discarded round leaves the state as it was, so check before
        # anything changes; one move's updates cannot conflict
        merged: dict = effects[0].updates
        if len(moves) > 1:
            merged = {}
            for eff in effects:
                for loc, value in eff.updates.items():
                    if loc in merged and merged[loc] != value:
                        raise RunDiscarded(
                            f"round {self.round + 1}: conflicting updates at {loc!r}: "
                            f"{merged[loc]!r} vs {value!r}"
                        )
                    merged[loc] = value
            taken = [m.msg.ident() for m in moves if m.msg is not None]
            if len(set(taken)) < len(taken):
                raise RunDiscarded(f"round {self.round + 1}: two moves take the same message")
            # e.g. two collects that each complete one delegate: both delete
            # it, so their updates agree, but both send its response
            sent = [msg.ident() for eff in effects for msg in eff.sends]
            if len(set(sent)) < len(sent):
                raise RunDiscarded(f"round {self.round + 1}: two moves send the same message")
        self.round += 1
        self.executed.append(tuple([m.desc for m in moves]))
        # messages: taken ones first, then fresh sends
        key = self._key
        for move in moves:
            msg = move.msg
            if msg is None:
                continue
            ident = msg.ident()
            key[_MAILBOX] = None
            if move.desc[0] == "deliver":
                del self.inflight[ident]
                key[_INFLIGHT] = None
                # a late message to a deleted delegate is dropped
                if not msg.receiver.startswith("g!") or msg.receiver in self.delegates:
                    if (box := self.mailbox.get(msg.receiver)) is None:
                        box = self.mailbox[msg.receiver] = {}
                    box[ident] = msg
            elif (box := self.mailbox.get(msg.receiver)) is None or box.pop(ident, None) is None:
                raise SimInvariantError(f"consumed message not in mailbox: {msg}")
        for eff in effects:
            for msg in eff.sends:
                ident = msg.ident()
                if ident in self.inflight:
                    raise SimInvariantError(f"duplicate in-flight message {msg}")
                self.inflight[ident] = msg
                key[_INFLIGHT] = None
        if merged:  # a delivery writes nothing
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
            desc, msg = move.desc, move.msg
            if desc[0] == "dc" and msg.kind == FWD and msg.payload[0] == REQ_WRITE:
                # the message-passing clock condition holds after a forwarded write
                d, t = int(desc[1][1:]), msg.payload[3]
                if catch_up(self.cfg, self.ticks, d, t):
                    raise SimInvariantError(
                        f"clock at dc {d} behind {t} after processing its message"
                    )
        if merged and (written := {(loc[1], loc[2], loc[5]) for loc in merged if loc[0] == "rep"}):
            self._check_invariants(written)

    def _own_event(self, move: Move) -> Optional[str]:
        """The event kind ``move`` emits whatever it sends: REQ for a request's
        delivery, PRINT for a ``recv`` that completes a printing read."""
        tag, msg = move.desc[0], move.msg
        if tag == "deliver":
            return REQ if msg.kind in REQUEST_KINDS else None
        return PRINT if tag == "recv" and self._printing_step(move.desc[1], msg.req) is not None else None

    def _event(self, move: Move, sends: list) -> Optional[TraceEvent]:
        """The trace event of a move in this round: its ``_own_event``, or
        else RESP when the step sends a client its answer or ack."""
        msg, own = move.msg, self._own_event(move)
        if own == REQ:
            op = "read" if msg.kind == REQ_READ else "write"
            return TraceEvent(self.round, REQ, msg.sender, msg.req, (op,) + msg.payload)
        if own == PRINT:
            return TraceEvent(self.round, PRINT, move.agent, msg.req, ("print",) + msg.payload)
        for sent in sends:
            if sent.kind in (ANSWER, ACK):
                return TraceEvent(self.round, RESP, sent.receiver, sent.req, (sent.kind,) + sent.payload)
        return None

    def _apply_updates(self, merged: dict) -> None:
        key = self._key
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
                    key[_MAILBOX] = None
                else:
                    self.delegates[gid] = value
            else:  # pragma: no cover
                raise ConfigError(f"unknown update location {loc!r}")
            key[_PART_OF[tag]] = None

    def _check_invariants(self, keys: Iterable[tuple]) -> None:
        """Copies of each (rid, j, key) in ``keys`` agree on the value at the
        key's maximal timestamp.  Only ``rep`` updates change a replica, so
        a round needs to check only the keys it wrote.  Each key's copies
        are read directly and folded as ``core.freshest`` folds them."""
        for rid, j, k in keys:
            best = None
            for d, node in self.cfg.candidates(rid, j):
                vt = self.replicas.data.get((rid, j, d, node), {}).get(k)
                if vt is None:
                    continue
                if best is None or best[1] < vt[1]:
                    best = vt
                elif best[1] == vt[1] and best[0] != vt[0]:
                    raise SimInvariantError(
                        f"replicas of {rid}: copies of {k!r} hold different values at the "
                        f"maximal timestamp {vt[1]}: {best[0]!r} vs {vt[0]!r}"
                    )

    # -- run loop --------------------------------------------------------------

    def drain(self, step_limit: int) -> bool:
        """Deliver and process all remaining internal traffic, one move per
        step in canonical order.  Effects of the drained moves are
        order-insensitive (conditional timestamped writes and clock joins),
        so this keeps runs deterministic."""
        while True:
            move = self._pick_move(lambda n: 0)
            if move is None:
                return True
            if self.round >= step_limit:
                return False
            self.apply_round([move])


# ---------------------------------------------------------------------------
# Move kinds
# ---------------------------------------------------------------------------


# Search ranks: client progress and request handling come before internal
# fan-out, pending writes before reads, and forwarded propagation last:
# consistency anomalies live where propagation lags behind answers, so the
# first descents head straight for them.
_DELIVER_RANK = {
    ANSWER: (2,), ACK: (2,), LOCAL_ANSWER: (4,), LOCAL_ACK: (4,),
    REQ_WRITE: (6, 0), REQ_READ: (6, 1), None: (8,),
}
_STORE_RANK = {REQ_WRITE: (5, 0), REQ_READ: (5, 1), None: (7,)}

MOVE_KINDS = {
    "deliver": MoveKind(("ident",), Simulation._deliver, _DELIVER_RANK),
    "send": MoveKind(("agent",), Simulation._client_send, {None: (1,)}),
    "recv": MoveKind(("agent", "ident"), Simulation._client_recv, {None: (0,)}),
    "db": MoveKind(("ident",), Simulation._db_step, _STORE_RANK),
    "dc": MoveKind(("agent", "ident", "sel"), Simulation._dc_step, _STORE_RANK),
    "collect": MoveKind(("agent", "ident"), Simulation._collect, {None: (3,)}),
}


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


def _search_priority(desc: tuple, msg: Optional[Message]) -> tuple:
    """Exploration order for the schedule search (not part of the schedule
    semantics) of the move ``desc`` that takes ``msg``; see MOVE_KINDS' ranks."""
    rank = MOVE_KINDS[desc[0]].rank
    return rank.get(msg.kind if msg is not None else None, rank[None]) + (desc,)


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

    Two reductions cut the search, each after Godefroid (LNCS 1032):

    - Persistent sets.  ``_expansion`` under its view rule expands only the
      first eager move where a state has one, and every ``deliver``,
      ``send`` and ``recv`` is eager.  Every agent's own (kind, req,
      payload) history is kept; the rounds of events and their order across
      agents shift.  ``enumerate_traces`` keeps the trace rule, which
      reorders only moves that emit no event.
    - State caching.  States are de-duplicated on ``Simulation.search_key``:
      the state plus each request's answer, without the round.  Equal keys
      mean equal ``Trace.histories()``, so a predicate that is a function
      of those, as the bundled ones are, answers alike for every run through
      one key.  A predicate that reads the order of events across agents was
      never safe here and still is not: it may miss a witness.  A key
      reached before the round it was stored at is visited afresh, so the
      step limit cuts no state that is met sooner.

    A completed state is keyed like any other and never expanded.  It is
    drained in place, as ``run`` drains it, which runs the invariant checks
    and can trip the step limit; the predicate sees the drained trace.
    ``explored`` counts the states popped from the stack, revisits included:
    the root, and one of ``_children`` for each other state.  ``budget``
    caps it.  ``exhausted`` is True when the search ran out of states
    within budget with no branch cut at the step limit.
    """
    root = Simulation(scenario, model)
    root._memo = {}  # one per walk, shared by its clones
    visited: dict = {}  # search key -> least round it was expanded at
    explored = 0
    cut = False  # a branch was skipped at the step limit
    stack = [root]
    while stack:
        sim = stack.pop()
        explored += 1
        if explored > budget:
            return SearchResult(None, None, False, explored)
        key = sim.search_key()
        if visited.get(key, sim.round + 1) <= sim.round:
            continue
        if sim.clients_done():
            visited[key] = sim.round  # never expanded: a later revisit is cut
            steps = tuple(sim.executed)
            if not sim.drain(step_limit):
                cut = True
            elif predicate(sim.trace(_meta(scenario, model, ExplicitSchedule(()))), scenario):
                witness = ExplicitSchedule(steps)
                return SearchResult(witness, sim.trace(_meta(scenario, model, witness)), False,
                                    explored)
            continue
        if sim.round >= step_limit:
            cut = True  # not stored, so the key is visited afresh when reached sooner
            continue
        visited[key] = sim.round
        stack.extend(reversed(_children(sim, views=True)))
    return SearchResult(None, None, not cut, explored)


def _children(sim: Simulation, views: bool) -> list:
    """The states after each move of ``_expansion(sim, views)``, in its
    order.  Each is made on a clone of ``sim``, except the last, which is
    ``sim`` itself: no walk reads a state after its last child."""
    moves = _expansion(sim, views)
    children = [sim.clone() for _ in moves[1:]] + [sim] if moves else []
    for child, move in zip(children, moves):
        child.apply_round([move])  # one move's updates cannot conflict
    return children


def _expansion(sim: Simulation, views: bool) -> list:
    """The moves to expand at ``sim``: the first *eager* move in
    ``_search_priority`` order alone, or else every enabled move (a
    persistent set, after Godefroid, LNCS 1032).  ``views`` picks the rule
    of eagerness: the view rule for ``search_schedules``, the trace rule
    for ``_trace_automaton``.

    A ``deliver``, ``send`` or ``recv`` touches only its agent's
    ``pc``/``status``/``outs`` or one message's place (in flight, in a
    mailbox, or dropped at a dead delegate, as the delegate's deletion
    would drop it).  No other enabled move touches the same, so it commutes
    with each of them: each stays enabled after the other, and both orders
    reach equal ``search_key()`` (``tests/test_independence.py``).  The
    moves it enables can only follow it, and nothing disables it, so it
    stays enabled until it is taken.  So every completed run from the
    state either contains it, and can take it first, or completes without
    it, and the same run after it completes too.  Only a move that emits no
    event can be left out: a completed client has had each of its requests
    delivered and each reply received.

    Under the trace rule only such a move that emits no event is eager
    (none of them sends an answer or ack, so ``_own_event`` decides), and
    taking it first keeps every run's events in their order.  Under the
    view rule every such move is eager.  The event a request's delivery
    (REQ) or a printing ``recv`` (PRINT) emits belongs to its own agent,
    which is blocked until the move is taken and whose earlier events all
    came before it.  Taking the move first keeps that agent's own event
    order and payloads, and shifts only rounds and the order of events
    across agents, which ``search_key()`` and the bundled predicates leave
    out.  Any eager move will do.

    Candidates are ranked straight from those three groups of
    ``_move_groups()``, and only the move picked is built; the full list,
    with its cm1 selections, is built only where none is eager.
    """
    groups = sim._move_groups()
    best = None  # (priority, prefix, box, ident) of the eager move that comes first so far
    for prefix, box in groups:
        tag = prefix[0]
        if not views and tag == "recv" and sim._printing_step(prefix[1], next(iter(box))[1]) is not None:
            continue  # the box holds replies to the one request its client waits for
        if tag in ("deliver", "send", "recv"):
            for ident, msg in box.items():
                if views or tag != "deliver" or msg.kind not in REQUEST_KINDS:
                    priority = _search_priority(prefix if ident is None else prefix + (ident,), msg)
                    if best is None or priority < best[0]:
                        best = priority, prefix, box, ident
    if best is not None:
        return [_group_move(*best[1:])]
    return sorted(sim.enumerate_moves(True, _groups=groups), key=lambda m: _search_priority(m.desc, m.msg))


def _trace_automaton(scenario: Scenario, model: str, max_states: int) -> tuple:
    """(start, transitions): ``enumerate_traces``' traces as a deterministic
    automaton whose edges are events (kind, agent, req, payload).  It walks
    the reduced state graph once, keyed on ``state_key()``, each edge
    labelled with its move's event or ``None``, and every completed state is
    node 0.  The key holds no round, so runs that meet one state at two
    rounds share their suffixes, as rank compression makes their traces
    alike.  Subset construction determinises that graph: a state
    is a set of nodes closed over ``None`` edges, accepting if it holds node
    0, and ``transitions(q)`` lists its (event, state) pairs, built once.
    """
    ids: dict = {}  # state key -> node
    edges: list = [{}]  # node -> {event or None: [node]}

    def closure(nodes: list) -> frozenset:
        closed = set(nodes)
        while nodes:
            for m in edges[nodes.pop()].get(None, ()):
                if m not in closed:
                    closed.add(m)
                    nodes.append(m)
        return frozenset(closed)

    first = Simulation(scenario, model)
    first._memo = {}  # one per walk, shared by its clones
    root = 0 if first.clients_done() else 1
    stack = [(first, None, None)]  # (state, its parent's node, the event of the edge to it)
    while stack:
        sim, parent, event = stack.pop()
        n = 0 if sim.clients_done() else ids.setdefault(sim.state_key(), len(edges))
        if parent is not None:
            edges[parent].setdefault(event, []).append(n)
        if n < len(edges):
            continue  # completed, or expanded already
        if n > max_states:
            raise ConfigError(f"trace enumeration exceeded {max_states} states")
        edges.append({})
        seen = len(sim.events)
        for child in reversed(_children(sim, views=False)):
            e = child.events[-1] if len(child.events) > seen else None  # one move, at most one event
            stack.append((child, n, e and (e.kind, e.agent, e.req, e.payload)))

    @cache
    def transitions(q: frozenset) -> list:
        targets: dict = {}
        for n in q:
            for event, ms in edges[n].items():
                targets.setdefault(event, []).extend(ms)
        targets.pop(None, None)  # already in the closure
        return [(event, closure(ms)) for event, ms in targets.items()]

    return closure([root]), transitions


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

    Each trace is an accepted path of ``_trace_automaton``; its graph expands
    only an eager move where a state has one (``_expansion``), and the set
    is the unreduced one.  ``max_states`` caps the incomplete states of that
    graph.  No walk recurses, so no recursion limit caps a run's length.
    The automaton is deterministic, so distinct paths are distinct traces.
    Each (rank, event) is built once, as one ``TraceEvent`` every path shares.
    """
    start, transitions = _trace_automaton(scenario, model, max_states)
    traces = []
    shared: dict = {}  # (rank, event) -> its TraceEvent
    stack = [(start, ())]  # (state, trace events of the path to it)
    while stack:
        q, path = stack.pop()
        if 0 in q:
            traces.append(Trace(events=path))
        idx = len(path) + 1
        for event, r in transitions(q):
            e = shared.get((idx, event)) or shared.setdefault((idx, event), TraceEvent(idx, *event))
            stack.append((r, path + (e,)))
    return frozenset(traces)


def count_traces(scenario: Scenario, model: str, max_states: int = 2_000_000) -> int:
    """``len(enumerate_traces(scenario, model, max_states))``, without
    building a trace: the accepted paths of ``_trace_automaton``, counted
    backwards from its accepting states."""
    start, transitions = _trace_automaton(scenario, model, max_states)
    counts: dict = {}
    stack = [start]
    while stack:
        q = stack.pop()
        todo = [r for _, r in transitions(q) if r not in counts]
        if todo:
            stack += [q, *todo]  # q again, once its successors are counted
        else:
            counts[q] = (0 in q) + sum(counts[r] for _, r in transitions(q))
    return counts[start]
