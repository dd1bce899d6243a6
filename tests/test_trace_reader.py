"""The trace reader: one regex pass per text, one parse per distinct payload,
and a writer that never writes what the reader cannot read back.

``read_tokens`` takes each token with the whitespace after it from one
``findall``; it must still give exactly the tokens and the errors of the
plain loop over ``TOKEN_RE.finditer`` kept below.  ``Trace.from_text`` parses
each distinct payload text once per call.  Integers are ASCII digits only,
and trace events and traces are tuples of their fields.
"""

import copy
import pickle
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from replisim import trace as trace_module
from replisim.cm0 import Condition
from replisim.trace import (
    REQ,
    RESP,
    TOKEN_RE,
    Trace,
    TraceError,
    TraceEvent,
    _PUNCT,
    parse_payload,
    read_tokens,
)

LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def reference_tokens(text: str) -> list:
    """The plain rule: every ``TOKEN_RE`` match, refusing two non-punctuation
    tokens that touch."""
    tokens, end = [], -1
    for m in TOKEN_RE.finditer(text):
        tok = m.group()
        if m.start() == end and tok not in _PUNCT and tokens[-1] not in _PUNCT:
            raise TraceError(f"no space between {tokens[-1]!r} and {tok!r}")
        tokens.append(tok)
        end = m.end()
    return tokens


def outcome(read, text):
    try:
        return ("tokens", read(text))
    except TraceError as exc:
        return ("error", str(exc))


PIECES = st.one_of(
    st.sampled_from(list('()"\\-=;,{}>_/')),
    st.sampled_from(["key-eq", "key-in", "hash-range", "undef", "x", "a1#0", "->", "-3", '\\"', "\\\\"]),
    st.text("0123456789", min_size=1, max_size=3),
    st.text("abcXYZ_/09", min_size=1, max_size=4),
    st.sampled_from([" ", "  ", "\t", "\x0c", "\u2028", "\n", "\r\n", "\xa0"]),
    st.characters(),
)


@settings(max_examples=1500, deadline=None)
@given(st.lists(PIECES, max_size=24).map("".join))
def test_tokens_and_errors_match_the_finditer_loop(text):
    assert outcome(read_tokens, text) == outcome(reference_tokens, text)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(" " * 200_000, id="spaces-only"),
        pytest.param(" " * 200_000 + "(ack x)", id="leading-spaces"),
        pytest.param("(ack x)" + " " * 200_000, id="trailing-spaces"),
        pytest.param("(ack" + " \t" * 100_000 + "x)", id="inner-spaces"),
    ],
)
def test_tokenizing_runs_of_whitespace_takes_linear_time(text):
    start = time.perf_counter()
    tokens = read_tokens(text)
    assert time.perf_counter() - start < 0.5
    assert tokens == reference_tokens(text)


# ---------------------------------------------------------------------------
# The payload memo in Trace.from_text
# ---------------------------------------------------------------------------

WRITE = "(write x ((0) (1)) ((2) undef))"
ACK = "(ack x)"


def _line(idx: int, kind: str, req: str, payload: str) -> str:
    return f"idx={idx} kind={kind} agent=a1 req={req} payload={payload}"


def test_a_repeated_payload_reads_as_the_unmemoised_parse():
    rows = [(n, REQ if n % 2 else RESP, f"a1#{n // 2}", WRITE if n % 2 else ACK) for n in range(1, 41)]
    text = "\n".join(_line(*row) for row in rows)
    want = tuple(TraceEvent(idx, kind, "a1", req, parse_payload(p)) for idx, kind, req, p in rows)
    assert Trace.from_text(text).events == want


def test_a_malformed_payload_is_reported_at_its_first_line():
    bad = "(write x ((12-3) (1)))"
    lines = [_line(1, REQ, "a1#0", WRITE), _line(1, RESP, "a1#0", ACK), _line(2, REQ, "a1#1", bad),
             _line(3, RESP, "a1#1", ACK), _line(4, REQ, "a1#2", bad)]
    with pytest.raises(TraceError) as err:
        Trace.from_text("\n".join(lines))
    assert str(err.value) == f"line 3: cannot parse {lines[2]!r}: no space between '12' and '-3'"


def test_the_memo_holds_only_parsed_payloads_and_lives_for_one_call(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_payload(text)

    monkeypatch.setattr(trace_module, "parse_payload", counted)
    good = "\n".join(_line(n, REQ, f"a1#{n}", WRITE if n % 3 else ACK) for n in range(9))
    Trace.from_text(good)
    assert sorted(calls) == sorted([ACK, WRITE])
    Trace.from_text(good)
    assert len(calls) == 4

    # A payload that fails leaves nothing behind: the next read parses it
    # again and fails the same way.
    bad = good + "\n" + _line(9, REQ, "a1#9", "(frob x)")
    del calls[:]
    errors = []
    for _ in range(2):
        with pytest.raises(TraceError) as err:
            Trace.from_text(bad)
        errors.append(str(err.value))
    assert calls.count("(frob x)") == 2 and errors[0] == errors[1]
    assert errors[0].startswith("line 10: ")


# ---------------------------------------------------------------------------
# Trace.to_text refuses what from_text cannot read back
# ---------------------------------------------------------------------------


def _write_event(atom: str) -> TraceEvent:
    return TraceEvent(1, REQ, "a1", "a1#0", ("write", "x", (((atom,), (1,)),)))


@pytest.mark.parametrize("sep", list(LINE_BREAKS), ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
def test_to_text_refuses_a_line_break_in_a_string_atom(sep):
    trace = Trace(events=(TraceEvent(0, REQ, "a1", "a1#7", ("ack", "x")), _write_event(f"a{sep}b")))
    with pytest.raises(TraceError, match="request 'a1#0'"):
        trace.to_text()


@pytest.mark.parametrize("sep", list(LINE_BREAKS), ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
@pytest.mark.parametrize("value", ["a{}b", "ab{}"])
def test_to_text_refuses_a_line_break_in_a_meta_value(sep, value):
    trace = Trace(events=(_write_event("a"),), meta=(("model", "cm2"), ("scenario", value.format(sep))))
    with pytest.raises(TraceError, match="meta 'scenario'"):
        trace.to_text()


@pytest.mark.parametrize("key, value, fault", [
    ("k=1", "v", "its key holds '='"),
    (" k", "v", "its key starts with whitespace"),
    ("\tk", "v", "its key starts with whitespace"),
    ("replisim-trace", "v2", "its key starts with 'replisim-trace'"),
    ("replisim-trace-note", "v", "its key starts with 'replisim-trace'"),
    ("scenario", "sp ace ", "its value ends with whitespace"),
    ("scenario", "a\t", "its value ends with whitespace"),
], ids=("equals-in-key", "space-before-key", "tab-before-key", "header-key", "header-prefix-key",
        "space-after-value", "tab-after-value"))
def test_to_text_refuses_meta_that_would_read_back_changed(key, value, fault):
    trace = Trace(events=(_write_event("a"),), meta=(("model", "cm2"), (key, value)))
    with pytest.raises(TraceError, match=re.escape(f"cannot write meta {key!r}: {fault}")):
        trace.to_text()


def test_meta_that_reads_back_unchanged_is_kept():
    meta = (("k ", "v"), ("k", " v"), ("k", "a=b"), ("", ""), ("x-replisim-trace", "v"), ("s", "a\tb"))
    trace = Trace(events=(_write_event("a"),), meta=meta)
    assert Trace.from_text(trace.to_text()) == trace


def test_a_tab_round_trips():
    trace = Trace(
        events=(_write_event("a\tb"), TraceEvent(2, RESP, "a1", "a1#0", ("ack", "x")),
                TraceEvent(3, REQ, "a1", "a1#1", ("read", "x", Condition.key_eq(("\t",))))),
        meta=(("scenario", "a\tb"),),
    )
    assert Trace.from_text(trace.to_text()) == trace


# ---------------------------------------------------------------------------
# Integers are ASCII digits
# ---------------------------------------------------------------------------

ARABIC_INDIC_THREE = "٣"


@pytest.mark.parametrize("payload", [
    f"(read x (key-eq ({ARABIC_INDIC_THREE})))",
    f"(write x (({ARABIC_INDIC_THREE}) (1)))",
    f"(read x (hash-range {ARABIC_INDIC_THREE}))",
], ids=("key", "write-key", "fragment"))
def test_a_payload_integer_in_other_digits_is_refused(payload):
    with pytest.raises(TraceError, match=re.escape(f"expected an atom, got {ARABIC_INDIC_THREE!r}")):
        parse_payload(payload)


def test_a_quoted_string_of_other_digits_is_a_string():
    assert parse_payload(f'(read x (key-eq ("{ARABIC_INDIC_THREE}")))')[2] == Condition.key_eq((ARABIC_INDIC_THREE,))


def test_an_index_in_other_digits_is_refused():
    with pytest.raises(TraceError, match="line 1: .*expected idx="):
        Trace.from_text(f"idx={ARABIC_INDIC_THREE} kind=REQ agent=a1 req=a1#0 payload=(ack x)")


# ---------------------------------------------------------------------------
# TraceEvent and Trace are tuples of their fields
# ---------------------------------------------------------------------------

EVENT = TraceEvent(4, REQ, "a1", "a1#0", ("read", "x", Condition.key_in([(1,), (0,)])))
TRACE = Trace(events=(EVENT, TraceEvent(6, RESP, "a1", "a1#0", ("answer", "x", frozenset({((0,), (2,))})))),
              meta=(("scenario", "s"),))


@pytest.mark.parametrize("record", [EVENT, TRACE], ids=("event", "trace"))
def test_a_record_hashes_and_equals_the_tuple_of_its_fields(record):
    fields = tuple(getattr(record, name) for name in record._fields)
    assert hash(record) == hash(fields)  # a frozen dataclass's hash, so set order and digests hold
    assert record == fields and fields == record


@pytest.mark.parametrize("record", [EVENT, TRACE], ids=("event", "trace"))
def test_a_record_keeps_its_value_through_repr_copy_and_pickle(record):
    namespace = {"TraceEvent": TraceEvent, "Trace": Trace, "Condition": Condition}
    assert eval(repr(record), namespace) == record
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and hash(clone) == hash(record)


def test_record_reprs_name_their_fields():
    assert repr(EVENT).startswith("TraceEvent(idx=4, kind='REQ', agent='a1', req='a1#0', payload=(")
    assert repr(Trace(events=())) == "Trace(events=(), meta=())"
