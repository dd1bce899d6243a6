"""Run traces: ordered request/response/print records plus a line-oriented
text format that round-trips losslessly (canonical rendering, diffable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cm0 import Condition
from .core import UNDEF, tuple_sort_key


class TraceError(Exception):
    pass


# ---------------------------------------------------------------------------
# Canonical terms
# ---------------------------------------------------------------------------


def render_atom(a) -> str:
    if isinstance(a, int):
        return str(a)
    escaped = a.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_tuple(t) -> str:
    if t is UNDEF:
        return "undef"
    return "(" + " ".join(render_atom(a) for a in t) + ")"


def render_rows(rows) -> str:
    ordered = sorted(rows, key=lambda kv: tuple_sort_key(kv[0]))
    return " ".join(f"({render_tuple(k)} {render_tuple(v)})" for k, v in ordered)


def render_cond(cond: Condition) -> str:
    if cond.kind == "TRUE":
        return "(true)"
    if cond.kind == "KEY_EQ":
        return f"(key-eq {render_tuple(cond.key)})"
    if cond.kind == "KEY_IN":
        keys = sorted(cond.keys, key=tuple_sort_key)
        return "(key-in " + " ".join(render_tuple(k) for k in keys) + ")"
    if cond.kind == "HASH_RANGE":
        return f"(hash-range {cond.fragment})"
    raise TraceError(f"cannot render condition {cond!r}")


def render_payload(payload: tuple) -> str:
    tag = payload[0]
    if tag == "read":
        return f"(read {payload[1]} {render_cond(payload[2])})"
    if tag == "write":
        body = " ".join(
            f"({render_tuple(k)} {render_tuple(v)})" for k, v in payload[2]
        )
        return f"(write {payload[1]}{' ' if body else ''}{body})"
    if tag == "answer":
        body = render_rows(payload[2])
        return f"(answer {payload[1]}{' ' if body else ''}{body})"
    if tag == "ack":
        return f"(ack {payload[1]})"
    if tag == "print":
        body = render_rows(payload[2])
        return f"(print {payload[1]}{' ' if body else ''}{body})"
    raise TraceError(f"cannot render payload {payload!r}")


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append(c)
            i += 1
        elif c == '"':
            out = []
            i += 1
            while i < len(text) and text[i] != '"':
                if text[i] == "\\" and i + 1 < len(text):
                    out.append(text[i + 1])
                    i += 2
                else:
                    out.append(text[i])
                    i += 1
            if i >= len(text):
                raise TraceError(f"unterminated string in {text!r}")
            tokens.append(("str", "".join(out)))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            word = text[i:j]
            if word.lstrip("-").isdigit():
                tokens.append(("int", int(word)))
            else:
                tokens.append(("sym", word))
            i = j
    return tokens


def _parse_sexpr(tokens: list, pos: int):
    if pos >= len(tokens):
        raise TraceError("unexpected end of term")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _parse_sexpr(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise TraceError("missing closing parenthesis")
        return tuple(items), pos + 1
    if tok == ")":
        raise TraceError("unbalanced parenthesis")
    return tok, pos + 1


def parse_term(text: str):
    tokens = _tokenize(text)
    term, pos = _parse_sexpr(tokens, 0)
    if pos != len(tokens):
        raise TraceError(f"trailing tokens in {text!r}")
    return term


def _as_tuple(node):
    if node == ("sym", "undef"):
        return UNDEF
    if not isinstance(node, tuple) or (node and isinstance(node[0], str) and node[0] in ("sym", "int", "str")):
        raise TraceError(f"expected tuple, got {node!r}")
    return tuple(_as_atom(a) for a in node)


def _as_atom(node):
    if isinstance(node, tuple) and len(node) == 2 and node[0] in ("int", "str"):
        return node[1]
    raise TraceError(f"expected atom, got {node!r}")


def _as_sym(node) -> str:
    if isinstance(node, tuple) and len(node) == 2 and node[0] == "sym":
        return node[1]
    raise TraceError(f"expected symbol, got {node!r}")


def _parse_cond(node) -> Condition:
    tag = _as_sym(node[0])
    if tag == "true":
        return Condition.true()
    if tag == "key-eq":
        return Condition.key_eq(_as_tuple(node[1]))
    if tag == "key-in":
        return Condition.key_in(_as_tuple(n) for n in node[1:])
    if tag == "hash-range":
        return Condition.hash_range(_as_atom(node[1]))
    raise TraceError(f"unknown condition tag {tag!r}")


def parse_payload(text: str) -> tuple:
    node = parse_term(text)
    tag = _as_sym(node[0])
    if tag == "read":
        return ("read", _as_sym(node[1]), _parse_cond(node[2]))
    if tag == "write":
        pairs = tuple((_as_tuple(p[0]), _as_tuple(p[1])) for p in node[2:])
        return ("write", _as_sym(node[1]), pairs)
    if tag == "answer":
        rows = frozenset((_as_tuple(p[0]), _as_tuple(p[1])) for p in node[2:])
        return ("answer", _as_sym(node[1]), rows)
    if tag == "ack":
        return ("ack", _as_sym(node[1]))
    if tag == "print":
        rows = frozenset((_as_tuple(p[0]), _as_tuple(p[1])) for p in node[2:])
        return ("print", _as_sym(node[1]), rows)
    raise TraceError(f"unknown payload tag {tag!r}")


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

REQ, RESP, PRINT = "REQ", "RESP", "PRINT"


@dataclass(frozen=True)
class TraceEvent:
    idx: int  # global step index at which the event was issued
    kind: str  # REQ | RESP | PRINT
    agent: str  # requesting agent
    req: str  # request id, e.g. "a1#0"
    payload: tuple

    def render(self) -> str:
        return (
            f"idx={self.idx} kind={self.kind} agent={self.agent} "
            f"req={self.req} payload={render_payload(self.payload)}"
        )


@dataclass(frozen=True)
class Trace:
    events: tuple
    meta: tuple = ()

    def requests(self) -> dict:
        return {e.req: e for e in self.events if e.kind == REQ}

    def responses(self) -> dict:
        return {e.req: e for e in self.events if e.kind == RESP}

    def is_complete(self) -> bool:
        reqs, resps = self.requests(), self.responses()
        return set(reqs) == set(resps)

    def window(self, req: str) -> tuple:
        """Half-open index window (issue, answer] of one request."""
        r, a = self.requests()[req], self.responses()[req]
        return (r.idx, a.idx)

    def per_agent(self, agent: str) -> tuple:
        return tuple(e for e in self.events if e.agent == agent)

    def agents(self) -> tuple:
        return tuple(sorted({e.agent for e in self.events}))

    def prints(self, agent: Optional[str] = None) -> tuple:
        evs = [e for e in self.events if e.kind == PRINT]
        if agent is not None:
            evs = [e for e in evs if e.agent == agent]
        return tuple(evs)

    def to_text(self) -> str:
        lines = ["# replisim-trace v1"]
        for key, value in self.meta:
            lines.append(f"# {key}={value}")
        lines.extend(e.render() for e in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Trace":
        events = []
        meta = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body and not body.startswith("replisim-trace"):
                    k, v = body.split("=", 1)
                    meta.append((k, v))
                continue
            try:
                fields = {}
                rest = line
                for name in ("idx", "kind", "agent", "req"):
                    if not rest.startswith(f"{name}="):
                        raise TraceError(f"expected {name}=")
                    rest = rest[len(name) + 1 :]
                    cut = rest.index(" ")
                    fields[name] = rest[:cut]
                    rest = rest[cut + 1 :]
                if not rest.startswith("payload="):
                    raise TraceError("expected payload=")
                payload = parse_payload(rest[len("payload=") :])
                events.append(
                    TraceEvent(
                        idx=int(fields["idx"]),
                        kind=fields["kind"],
                        agent=fields["agent"],
                        req=fields["req"],
                        payload=payload,
                    )
                )
            except (TraceError, ValueError, IndexError) as exc:
                raise TraceError(f"line {lineno}: cannot parse {line!r}: {exc}") from None
        return cls(events=tuple(events), meta=tuple(meta))

    def normalized(self) -> "Trace":
        """Same events with indices compressed to dense ranks.

        Events sharing an index keep sharing one.  Useful for de-duplicating
        traces that differ only in idle scheduler rounds; note that rank
        compression narrows request windows, so a COMPATIBLE verdict on the
        normalized trace carries over to the original but an INCOMPATIBLE
        one need not.
        """
        ranks = {idx: n for n, idx in enumerate(sorted({e.idx for e in self.events}), start=1)}
        return Trace(
            events=tuple(
                TraceEvent(ranks[e.idx], e.kind, e.agent, e.req, e.payload)
                for e in self.events
            ),
        )
