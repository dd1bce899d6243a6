"""Second refinement: the home data centre handles a request locally,
forwards it to the other data centres, and spawns a delegate that collects
the partial answers until the policy's sufficiency predicate holds, then
responds to the client and deletes itself.

Unlike the atomic refinement there is no up-front replica selection: every
data centre always consults all of its alive copies, and the policy is
enforced by the delegate counting responses.  Delivery order of the internal
messages is the only nondeterminism, and the only source of anomalies.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    UNDEF,
    ClusterConfig,
    ConfigError,
    Record,
    ReplicaStore,
    Timestamp,
    catch_up,
    freshest,
    issue,
)
from .messages import (
    ACK,
    ANSWER,
    FWD,
    LOCAL_ACK,
    LOCAL_ANSWER,
    REQ_READ,
    Message,
    StepEffect,
    dc_agent,
    delegate_agent,
)
from .policies import CountState, Policy, sufficient


class DelegateState(Record):
    """Per-request answer collector, scheduled like any other agent.

    A delegate is a value: each ``collect`` step replaces it with its
    successor, and the step that answers deletes it.  So its part of a
    simulation's state key is built once per value, by ``key_part``."""

    _fields = ("gid", "req", "kind", "rid", "requestor", "mediator_dc", "counts", "answer", "log")
    __slots__ = _fields + ("_key_part",)

    def __init__(self, gid: str, req: str, kind: str, rid: str, requestor: str, mediator_dc: int,
                 counts: CountState, answer: Optional[dict] = None, log: tuple = ()):
        self.gid, self.req, self.rid, self.requestor, self.mediator_dc = gid, req, rid, requestor, mediator_dc
        self.kind = kind  # "read" | "write"
        self.counts = counts
        self.answer = {} if answer is None else answer  # key -> (value, timestamp)
        self.log = log  # ((sender_dc, xs, triples), ...) for audit checks

    @property
    def key_part(self) -> tuple:
        try:
            return self._key_part
        except AttributeError:
            part = self.gid, tuple(self.counts.by_fragment_dc.values()), frozenset(self.answer.items())
            self._key_part = part
            return part


def handle_locally(
    replicas: ReplicaStore,
    ticks: dict,
    cfg: ClusterConfig,
    d: int,
    kind: str,
    rid: str,
    body,
    req: str,
    t_write: Timestamp,
    eff: StepEffect,
) -> None:
    """Handle a request over all alive local copies and report to the
    delegate, with the per-fragment count of those copies.

    A read sends the local freshest triples.  The local maximum may not be
    the global one, so timestamps travel with the triples; tombstones are
    included so a fresher deletion can beat an older value during collection.
    A key condition folds only the keys it names.

    A write conditionally updates the copies at ``t_write`` and is
    acknowledged even where the update lost against a newer timestamp.
    """
    groups = cfg.local_groups[(rid, d)]
    xs = tuple(len(group) for group in groups.values())
    if kind == REQ_READ:
        keys = body.named_keys()
        triples = frozenset(
            (k, v, t)
            for j, group in groups.items()
            for k, (v, t) in freshest(replicas.copies(rid, j, group), keys).items()
            if body.matches(k, cfg, rid)
        )
        local_kind, payload = LOCAL_ANSWER, (rid, triples, xs)
    else:
        eff.updates.update(catch_up(cfg, ticks, d, t_write))
        eff.updates.update(replicas.conditional_write(rid, groups, dict(body), t_write))
        local_kind, payload = LOCAL_ACK, (rid, xs)
    eff.sends.append(Message(local_kind, req, dc_agent(d), delegate_agent(req), payload=payload))


def delegate_external_req(
    replicas: ReplicaStore,
    ticks: dict,
    cfg: ClusterConfig,
    d: int,
    msg: Message,
) -> StepEffect:
    """Home data centre step: draw a timestamp, spawn the delegate, handle
    the request locally and forward it to every other data centre."""
    t_current, advance = issue(cfg, ticks, d)
    eff = StepEffect(advance)
    is_read = msg.kind == REQ_READ
    rid = msg.payload[0]
    body = msg.payload[1]
    gid = delegate_agent(msg.req)
    delegate = DelegateState(
        gid=gid,
        req=msg.req,
        kind="read" if is_read else "write",
        rid=rid,
        requestor=msg.sender,
        mediator_dc=d,
        counts=CountState.zero(cfg, rid),
    )
    eff.update(("delegate", gid), delegate)
    handle_locally(replicas, ticks, cfg, d, msg.kind, rid, body, msg.req, t_current, eff)
    for d2 in cfg.relation(rid).data_centres:
        if d2 != d:
            eff.sends.append(
                Message(
                    FWD,
                    msg.req,
                    dc_agent(d),
                    dc_agent(d2),
                    payload=(msg.kind, rid, body, t_current),
                )
            )
    return eff


def manage_internal_req(
    replicas: ReplicaStore,
    ticks: dict,
    cfg: ClusterConfig,
    d: int,
    msg: Message,
) -> StepEffect:
    """Forwarded-request step at a non-home data centre."""
    inner_kind, rid, body, t_fwd = msg.payload
    eff = StepEffect()
    handle_locally(replicas, ticks, cfg, d, inner_kind, rid, body, msg.req, t_fwd, eff)
    return eff


def _answer_map(triples) -> dict:
    return {k: (v, t) for k, v, t in triples}


def _audit(delegate: DelegateState, counts: CountState, merged: dict, log: tuple) -> None:
    # Each (fragment, dc) count must equal the sum of the vectors that data
    # centre reported, and each collected key must carry the maximum
    # timestamp seen for it so far.
    sums = dict.fromkeys(counts.by_fragment_dc, 0)
    for (d, xs, _) in log:
        for j, x in enumerate(xs, start=1):
            sums[(j, d)] += x
    if sums != counts.by_fragment_dc:
        raise ConfigError(f"delegate {delegate.gid}: counts diverged from its log")
    if merged != freshest(_answer_map(triples) for (_, _, triples) in log):
        raise ConfigError(f"delegate {delegate.gid}: stale triple survived a merge")


def collect_respond(
    delegate: DelegateState,
    cfg: ClusterConfig,
    policy: Policy,
    msg: Message,
) -> StepEffect:
    """One delegate step: fold in a partial answer, and respond and delete
    the delegate as soon as the policy is satisfied.  The step writes the
    delegate's successor, or None once it has answered."""
    eff = StepEffect()
    sender_dc = int(msg.sender[1:])
    if delegate.kind == "read":
        if msg.kind != LOCAL_ANSWER:
            raise ConfigError(f"read delegate {delegate.gid} got {msg.kind}")
        rid, triples, xs = msg.payload
        merged = freshest([delegate.answer, _answer_map(triples)])
    else:
        if msg.kind != LOCAL_ACK:
            raise ConfigError(f"write delegate {delegate.gid} got {msg.kind}")
        rid, xs = msg.payload
        triples = frozenset()
        merged = delegate.answer
    counts = delegate.counts.add(sender_dc, xs)
    log = delegate.log + ((sender_dc, xs, triples),)
    if sufficient(counts, policy, cfg, delegate.rid):
        _audit(delegate, counts, merged, log)
        mediator = dc_agent(delegate.mediator_dc)
        if delegate.kind == "read":
            rows = frozenset(
                (k, tuple(v)) for k, (v, _) in merged.items() if v is not UNDEF
            )
            eff.sends.append(
                Message(ANSWER, delegate.req, mediator, delegate.requestor, payload=(delegate.rid, rows))
            )
        else:
            eff.sends.append(
                Message(ACK, delegate.req, mediator, delegate.requestor, payload=(delegate.rid,))
            )
        eff.update(("delegate", delegate.gid), None)
    else:
        eff.update(("delegate", delegate.gid), delegate._replace(counts=counts, answer=merged, log=log))
    return eff
