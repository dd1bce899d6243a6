r"""Run traces: ordered request/response/print records plus a line-oriented
text format that round-trips losslessly (canonical rendering, diffable).

An event line is ``idx=<n> kind=<REQ|RESP|PRINT> agent=<id> req=<id>
payload=<term>``; a payload term is written by ``render_payload`` and read
back by ``parse_payload``.  ``TOKEN_RE`` is the one tokenizer for trace text
and for scenario values (``scenario.py``): reading a token is the inverse of
``render_atom``, so a string atom is quoted and only ``\\`` and ``\"`` are
escapes, an integer is written in ASCII digits (``[0-9]``, never another
script's), and two atoms or names are kept apart by whitespace or
punctuation.
The readers raise ``TraceError`` on any other escape, atoms that touch, an
unterminated string, unbalanced parentheses, tokens after the term, an
unknown payload or condition tag, a name where an atom is expected (or the
reverse), a hash-range fragment that is not an integer, a write that names
one key twice, and an event kind other than REQ, RESP or PRINT.  The writer
refuses a field whose text holds a line break, which would split its line,
and meta that would read back changed: a key that holds ``=``, starts with
whitespace or with ``replisim-trace``, or a value that ends with whitespace.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .cm0 import Condition
from .core import UNDEF, sorted_pairs, tuple_sort_key


class TraceError(ValueError):
    """Malformed trace or scenario text; scenario.py reports it as a diagnostic."""


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
    return " ".join(f"({render_tuple(k)} {render_tuple(v)})" for k, v in sorted_pairs(rows))


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
    if tag in ("write", "answer", "print"):
        body = render_rows(payload[2])
        return f"({tag} {payload[1]}{' ' if body else ''}{body})"
    if tag == "ack":
        return f"(ack {payload[1]})"
    raise TraceError(f"cannot render payload {payload!r}")


_INT = r"-?[0-9]+"  # read_int's rule
# One token of trace or scenario text, the inverse of render_atom: an arrow
# or other punctuation, a quoted string in which only \\ and \" are escapes,
# an integer, a name such as x or key-eq, or any other single character,
# which every reader refuses where it finds it.
TOKEN_RE = re.compile(
    r'->|[(){};,=]|"(?:[^"\\]|\\["\\])*"|' + _INT
    + r"|[A-Za-z_][A-Za-z0-9_/]*(?:-[A-Za-z0-9_]+)*|\S"
)
_PUNCT = frozenset(("->", "(", ")", "{", "}", ";", ",", "="))
# Each token with the whitespace after it, so one findall reads them all.  The
# space is taken after the token, not before: a leading (\s*) would backtrack
# over a run of trailing spaces once per space.
_SPACED_TOKEN_RE = re.compile("(" + TOKEN_RE.pattern + r")(\s*)")


def read_tokens(text: str) -> list:
    """TOKEN_RE's tokens of text.  Two tokens that are not punctuation must
    be apart, so ``12-3`` or ``1"a"`` is refused, not read as two atoms."""
    tokens, apart = [], True
    for tok, space in _SPACED_TOKEN_RE.findall(text):
        if not apart and tok not in _PUNCT:
            raise TraceError(f"no space between {tokens[-1]!r} and {tok!r}")
        tokens.append(tok)
        apart = space or tok in _PUNCT
    return tokens


def _shown(node) -> str:
    # Never repr a nested term: its depth is the reader's input.
    return repr(node) if isinstance(node, str) else "a parenthesized term"


def read_atom(tok):
    """The atom a token spells: an integer in ASCII digits, or a string with
    its escapes undone."""
    if isinstance(tok, str):
        if tok[0] == '"':
            if len(tok) == 1:
                raise TraceError('unterminated string, or an escape other than \\\\ and \\"')
            return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        if tok.isascii():  # int() would also take other scripts' digits
            try:
                return int(tok)
            except ValueError:
                pass
    raise TraceError(f"expected an atom, got {_shown(tok)}")


def read_int(text: str) -> int:
    """An integer as ``TOKEN_RE`` reads one: ASCII digits after an optional
    ``-``.  Another script's digits, a ``+`` or a ``_`` separator, all of
    which ``int()`` takes, are refused."""
    if re.fullmatch(_INT, text) is None:
        raise TraceError(f"expected an integer, got {text!r}")
    return int(text)


def read_ints(text: str, sep: Optional[str] = None, count: Optional[int] = None) -> tuple:
    """The integers (``read_int``) ``text`` holds apart by ``sep``, or by
    whitespace, and exactly ``count`` of them if it is given."""
    ints = tuple(read_int(part) for part in text.split(sep))
    if count is not None and len(ints) != count:
        raise TraceError(f"expected {count} integers, got {text!r}")
    return ints


def read_name(tok) -> str:
    """A name token, such as a relation, a tag or a scenario keyword."""
    if isinstance(tok, str) and (tok[0] == "_" or tok[0].isascii() and tok[0].isalpha()):
        return tok
    raise TraceError(f"expected a name, got {_shown(tok)}")


def read_fragment(tok) -> int:
    """A hash-range fragment: an integer atom, never a string."""
    fragment = read_atom(tok)
    if not isinstance(fragment, int):
        raise TraceError("a hash range fragment is an integer")
    return fragment


def checked_write_set(pairs) -> tuple:
    """A write set's (key, value) pairs in key order; a key named twice is refused."""
    ordered = sorted_pairs(pairs)
    if len({k for k, _ in ordered}) != len(ordered):
        raise TraceError("duplicate key in write set")
    return ordered


def _read_term(text: str) -> tuple:
    """One parenthesized term, as nested tuples whose leaves are raw tokens."""
    top, outer = [], []
    for tok in read_tokens(text):
        if tok == "(":
            outer.append(top)
            top = []
        elif tok == ")":
            if not outer:
                raise TraceError("unbalanced parenthesis")
            term, top = tuple(top), outer.pop()
            top.append(term)
        else:
            top.append(tok)
    if outer:
        raise TraceError("missing closing parenthesis")
    if len(top) != 1 or not isinstance(top[0], tuple):
        raise TraceError("expected one parenthesized term and nothing after it")
    return top[0]


def _as_tuple(node) -> tuple:
    if not isinstance(node, tuple):
        raise TraceError(f"expected a tuple, got {_shown(node)}")
    return tuple(map(read_atom, node))


def _as_pair(node) -> tuple:
    if not isinstance(node, tuple) or len(node) != 2:
        raise TraceError(f"expected a (key value) pair, got {_shown(node)}")
    return (_as_tuple(node[0]), UNDEF if node[1] == "undef" else _as_tuple(node[1]))


def _as_cond(node) -> Condition:
    if not isinstance(node, tuple) or not node:
        raise TraceError(f"expected a condition, got {_shown(node)}")
    tag, args = node[0], node[1:]
    if tag == "true" and not args:
        return Condition.true()
    if tag == "key-eq" and len(args) == 1:
        return Condition.key_eq(_as_tuple(args[0]))
    if tag == "key-in":
        return Condition.key_in(map(_as_tuple, args))
    if tag == "hash-range" and len(args) == 1:
        return Condition.hash_range(read_fragment(args[0]))
    raise TraceError(f"unknown condition tag {_shown(tag)}, or wrong number of arguments")


def parse_payload(text: str) -> tuple:
    node = _read_term(text)
    if len(node) < 2:
        raise TraceError("a payload names its tag and its relation")
    tag, rid, body = node[0], read_name(node[1]), node[2:]
    if tag == "read" and len(body) == 1:
        return ("read", rid, _as_cond(body[0]))
    if tag == "write":
        return ("write", rid, checked_write_set(map(_as_pair, body)))
    if tag in ("answer", "print"):
        return (tag, rid, frozenset(map(_as_pair, body)))
    if tag == "ack" and not body:
        return ("ack", rid)
    raise TraceError(f"unknown payload tag {_shown(tag)}, or wrong number of fields")


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

REQ, RESP, PRINT = "REQ", "RESP", "PRINT"

_EVENT_RE = re.compile(r"idx=(-?[0-9]+) kind=(\S+) agent=(\S+) req=(\S+) payload=(.*)")


# Both records are tuples: building one sets no attribute, and each hashes
# and compares as the plain tuple of its fields.
class TraceEvent(NamedTuple):
    idx: int  # global step index at which the event was issued
    kind: str  # REQ | RESP | PRINT
    agent: str  # requesting agent
    req: str  # request id, e.g. "a1#0"
    payload: tuple

    def render(self) -> str:
        idx, kind, agent, req, payload = self  # one unpack, not five field reads
        return f"idx={idx} kind={kind} agent={agent} req={req} payload={render_payload(payload)}"


class Trace(NamedTuple):
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

    def histories(self) -> tuple:
        """What each agent observes of the run: ``((agent, ((kind, req,
        payload), ...)), ...)``, agents by name and each agent's own events
        in index order.  Indices and the order of events across agents are
        left out.  The sort is stable, so events that share an index keep
        their order in the trace."""
        by_agent: dict = {}
        for e in sorted(self.events, key=lambda e: e.idx):
            by_agent.setdefault(e.agent, []).append((e.kind, e.req, e.payload))
        return tuple((agent, tuple(by_agent[agent])) for agent in sorted(by_agent))

    def to_text(self) -> str:
        lines = ["# replisim-trace v1"]
        for key, value in self.meta:
            lines.append(f"# {key}={value}")
        lines.extend(e.render() for e in self.events)
        text = "\n".join(lines) + "\n"
        # A str.splitlines separator in a field would split its line on
        # reading; a "\r" would also merge with the "\n" that follows it.
        if "\r" in text or len(text.splitlines()) != len(lines):
            n = next(n for n, line in enumerate(lines) if line.splitlines() != [line]) - 1
            field = (f"meta {self.meta[n][0]!r}" if n < len(self.meta)
                     else f"the event of request {self.events[n - len(self.meta)].req!r}")
            raise TraceError(f"cannot write {field}: it holds a line break")
        for key, value in self.meta:  # from_text strips each line and splits it at its first "="
            fault = ("its key holds '='" if "=" in key
                     else "its key starts with whitespace" if key[:1].isspace()
                     else "its key starts with 'replisim-trace'" if key.startswith("replisim-trace")
                     else "its value ends with whitespace" if value[-1:].isspace() else None)
            if fault:
                raise TraceError(f"cannot write meta {key!r}: {fault}")
        return text

    @classmethod
    def from_text(cls, text: str) -> "Trace":
        events = []
        meta = []
        payloads = {}  # each distinct payload text is parsed once
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
                m = _EVENT_RE.fullmatch(line)
                if m is None:
                    raise TraceError("expected idx=, kind=, agent=, req= and payload=")
                idx, kind, agent, req, payload = m.groups()
                if kind not in (REQ, RESP, PRINT):
                    raise TraceError(f"unknown event kind {kind!r}")
                value = payloads.get(payload)
                if value is None:
                    value = payloads[payload] = parse_payload(payload)
                events.append(TraceEvent(int(idx), kind, agent, req, value))
            except TraceError as exc:
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
