"""Message vocabulary and the staged effect of one agent step.

A message's identity is (kind, req, sender, receiver); at most one live
message with a given identity exists at any moment, which makes schedules
replayable by naming messages instead of opaque ids.

A step never mutates shared state directly: it returns a ``StepEffect``
holding its update set (location -> value) and the messages it sends.  The
engine merges the effects of simultaneous steps, rejects inconsistent update
sets, moves the messages the steps took and records the trace events.
"""

from __future__ import annotations

from typing import Optional

from .core import Record

# Message kinds
REQ_READ = "req_read"
REQ_WRITE = "req_write"
ANSWER = "answer"
ACK = "ack"
FWD = "fwd"
LOCAL_ANSWER = "local_answer"
LOCAL_ACK = "local_ack"

REQUEST_KINDS = (REQ_READ, REQ_WRITE)


class Message(Record):
    """A message value.  Its ``ident``, (kind, req, sender, receiver), is
    built once, with the message: the engine keeps every box of messages in
    ident order.  Its hash, ``hash((kind, req, sender, receiver,
    payload))``, is kept in ``_hash`` from first use: every state key a walk
    stores hashes its messages.  A copy or pickle is built from the fields."""

    _fields = ("kind", "req", "sender", "receiver", "payload")
    __slots__ = _fields + ("ident", "_hash")

    def __init__(self, kind: str, req: str, sender: str, receiver: str, payload: tuple = ()):
        self.kind = kind
        self.req = req  # originating request id, e.g. "a1#0"
        self.sender = sender
        self.receiver = receiver
        self.payload = payload
        self.ident = (kind, req, sender, receiver)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.kind, self.req, self.sender, self.receiver, self.payload))
            return h


def dc_agent(d: int) -> str:
    return f"d{d}"


def delegate_agent(req: str) -> str:
    return f"g!{req}"


class StepEffect:
    """A step's update set and sends.  Once returned, an effect is a value:
    the engine only reads it, and a walk's memo (``Simulation._effect``)
    shares one effect among the steps with equal inputs."""

    __slots__ = ("updates", "sends")

    def __init__(self, updates: Optional[dict] = None, sends: Optional[list] = None):
        self.updates = {} if updates is None else updates  # location -> value
        self.sends = [] if sends is None else sends  # Message

    def update(self, loc: tuple, value) -> None:
        self.updates[loc] = value
