"""First refinement: each data centre answers a request in one atomic step
over a policy-compliant replica selection per fragment.

The selection itself is a scheduling choice; these rules receive it already
made (``selections`` maps fragment index to a sorted tuple of (dc, node)
pairs) and are deterministic given that choice.
"""

from __future__ import annotations

from .core import UNDEF, ClusterConfig, ReplicaStore, catch_up, freshest, issue
from .messages import ACK, ANSWER, Message, StepEffect, dc_agent


def answer_read_req(
    replicas: ReplicaStore,
    cfg: ClusterConfig,
    d: int,
    msg: Message,
    selections: dict,
) -> StepEffect:
    """Answer with the freshest value of every matching key over each
    fragment's selected replicas; tombstones are dropped.  A key condition
    folds only the keys it names."""
    rid, cond = msg.payload
    keys = cond.named_keys()
    rows = frozenset(
        (k, v)
        for j, group in selections.items()
        for k, (v, _) in freshest(replicas.copies(rid, j, group), keys).items()
        if v is not UNDEF and cond.matches(k, cfg, rid)
    )
    return StepEffect(sends=[Message(ANSWER, msg.req, dc_agent(d), msg.sender, payload=(rid, rows))])


def perform_write_req(
    replicas: ReplicaStore,
    ticks: dict,
    cfg: ClusterConfig,
    d: int,
    msg: Message,
    selections: dict,
) -> StepEffect:
    rid, pairs = msg.payload
    t_current, advance = issue(cfg, ticks, d)  # one timestamp per request
    eff = StepEffect(advance)
    eff.updates.update(replicas.conditional_write(rid, selections, dict(pairs), t_current))
    for d2 in sorted({d2 for group in selections.values() for d2, _ in group}):
        eff.updates.update(catch_up(cfg, ticks, d2, t_current))
    eff.sends.append(Message(ACK, msg.req, dc_agent(d), msg.sender, payload=(rid,)))
    return eff
