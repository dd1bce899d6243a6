"""First refinement: each data centre answers a request in one atomic step
over a policy-compliant replica selection per fragment.

The selection itself is a scheduling choice; these rules receive it already
made (``selections`` maps fragment index to a set of (dc, node) pairs) and
are deterministic given that choice.
"""

from __future__ import annotations

from .cm0 import check_writeset
from .core import UNDEF, ClockBank, ClusterConfig, ReplicaStore, freshest, smallest_tick_at_least
from .messages import ACK, ANSWER, Message, StepEffect, dc_agent


def answer_read_req(
    replicas: ReplicaStore,
    cfg: ClusterConfig,
    d: int,
    msg: Message,
    selections: dict,
) -> StepEffect:
    """Answer with the freshest value of every matching key over each
    fragment's selected replicas; tombstones are dropped."""
    rid, cond = msg.payload
    cond.check_arity(cfg, rid)
    rows = frozenset(
        (k, v)
        for j, group in selections.items()
        for k, (v, _) in freshest(replicas.copies(rid, j, group)).items()
        if v is not UNDEF and cond.matches(k, cfg, rid)
    )
    eff = StepEffect()
    eff.consumes.append(msg)
    eff.sends.append(
        Message(ANSWER, msg.req, dc_agent(d), msg.sender, payload=(rid, rows))
    )
    eff.events.append(("RESP", msg.sender, msg.req, ("answer", rid, rows)))
    return eff


def perform_write_req(
    replicas: ReplicaStore,
    clocks: ClockBank,
    cfg: ClusterConfig,
    d: int,
    msg: Message,
    selections: dict,
) -> StepEffect:
    rid, pairs = msg.payload
    p = dict(pairs)
    check_writeset(p, cfg, rid)
    eff = StepEffect()
    t_current = clocks.now(d)  # one timestamp per request
    eff.update(("clock", d), t_current.tick + 1)
    eff.updates.update(replicas.conditional_write(rid, selections, p, t_current))
    for d2 in sorted({d2 for group in selections.values() for d2, _ in group}):
        if clocks.now(d2) < t_current:
            eff.update(
                ("clock", d2),
                smallest_tick_at_least(d2, clocks.ranks[d2], t_current),
            )
    eff.consumes.append(msg)
    eff.sends.append(Message(ACK, msg.req, dc_agent(d), msg.sender, payload=(rid,)))
    eff.events.append(("RESP", msg.sender, msg.req, ("ack", rid)))
    return eff
