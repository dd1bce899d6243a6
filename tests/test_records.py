"""Value semantics of the package's records.

Most records are named tuples: they equal and hash as the plain tuple of
their fields.  ``Message``, ``Policy``, ``DelegateState`` and the checkers'
``_ReqInfo`` are slotted ``core.Record`` classes: equal only to a record of
their own class with equal fields (``_ReqInfo`` only to itself), rebuilt by
their constructor when copied or pickled.  Every record derives a changed
copy with ``_replace``.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from replisim import load_scenario
from replisim.cm0 import Condition
from replisim.cm2 import DelegateState
from replisim.consistency import SERIALISABLE, Verdict, _request_infos
from replisim.core import ConfigError, RelationConfig, Timestamp
from replisim.messages import ANSWER, Message
from replisim.policies import ALL, ONE, CountState, Policy, local_quorum
from replisim.scenario import ClientStep
from replisim.sim import ExplicitSchedule, Move, SearchResult, SeededSchedule, run
from replisim.trace import Trace, TraceEvent

# name -> (a builder of a fresh record, whether the type hashes)
RECORDS = {
    "Condition": (lambda: Condition.key_in([(1,), (0,)]), True),
    "ClientStep": (lambda: ClientStep("read", "x", cond=Condition.true(), print_answer=True), True),
    "RelationConfig": (lambda: RelationConfig("x", 1, 1, 0, 255, ((0, 127), (128, 255)), (1, 2), 2, 1), True),
    "Verdict": (lambda: Verdict(SERIALISABLE, True, ("a1#0", (3, ("a2#0",))), 4), True),
    "Policy": (lambda: local_quorum(Fraction(1, 2), 1), True),
    "CountState": (lambda: CountState({(1, 1): 0, (1, 2): 1}), False),
    "Message": (lambda: Message(ANSWER, "a1#0", "d1", "a1", ("x", frozenset({((0,), (1,))}))), True),
    "DelegateState": (lambda: DelegateState("g!a1#0", "a1#0", "read", "x", "a1", 1, CountState({(1, 1): 1}),
                                            {(0,): ((1,), Timestamp(2, 1, 1))}, ((1, (1,), frozenset()),)), False),
    "Move": (lambda: Move(("recv", "a1", (ANSWER, "a1#0", "d1", "a1")), Message(ANSWER, "a1#0", "d1", "a1")), True),
    "SeededSchedule": (lambda: SeededSchedule(3), True),
    "ExplicitSchedule": (lambda: ExplicitSchedule(((("send", "a1"),),)), True),
    "SearchResult": (lambda: SearchResult(ExplicitSchedule(()), Trace(()), True, 12), True),
}
SLOTTED = ("Policy", "Message", "DelegateState")


@pytest.mark.parametrize("name", RECORDS)
def test_records_with_equal_fields_are_equal_and_hash_alike(name):
    make, hashable = RECORDS[name]
    a, b = make(), make()
    fields = tuple(getattr(a, f) for f in a._fields)
    assert a is not b and a == b and not a != b
    assert a._replace() == a and a._replace() is not a
    if hashable:
        # the hash of the plain tuple of the fields, as each record hashed before
        assert hash(a) == hash(b) == hash(fields)
    else:
        with pytest.raises(TypeError):
            hash(a)
    # a named tuple equals that plain tuple; a slotted record equals no tuple
    assert (a == fields) is (name not in SLOTTED)


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_names_its_fields(name):
    a = RECORDS[name][0]()
    assert repr(a) == f"{name}({', '.join(f'{f}={getattr(a, f)!r}' for f in a._fields)})"


@pytest.mark.parametrize("name", RECORDS)
def test_record_survives_copy_and_pickle(name):
    a, hashable = RECORDS[name][0](), RECORDS[name][1]
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a) and clone == a
        assert not hashable or hash(clone) == hash(a)


def test_a_slotted_record_differs_from_one_with_a_field_changed():
    policy, message, delegate = (RECORDS[name][0]() for name in SLOTTED)
    moved = policy._replace(dc=2)
    assert policy != moved and hash(moved) == hash(("LOCAL_QUORUM", Fraction(1, 2), 2))
    assert message != message._replace(sender="d2")
    assert delegate != delegate._replace(log=())
    with pytest.raises(TypeError):
        message._replace(hops=1)  # no such field


def test_a_delegate_builds_its_key_part_from_its_own_fields():
    delegate = RECORDS["DelegateState"][0]()
    part = delegate.key_part
    assert part == ("g!a1#0", (1,), frozenset({((0,), ((1,), Timestamp(2, 1, 1)))}))
    assert delegate.key_part is part  # built once per value
    successor = delegate._replace(counts=delegate.counts.add(1, (1,)), answer={})
    assert successor.key_part == ("g!a1#0", (2,), frozenset())
    for clone in (copy.copy(delegate), pickle.loads(pickle.dumps(delegate))):
        assert clone.key_part == part


def test_request_records_equal_only_themselves():
    payload = ("read", "x", Condition.true())
    trace = Trace((TraceEvent(1, "REQ", "a1", "a1#0", payload),
                   TraceEvent(2, "RESP", "a1", "a1#0", ("answer", "x", frozenset()))))
    info, twin = _request_infos(trace)[0], _request_infos(trace)[0]
    assert info == info and info != twin and hash(info) != hash(twin)
    assert repr(info).startswith("_ReqInfo(req='a1#0', agent='a1', kind='read', rid='x', body=Condition(")
    changed = info._replace(answer=frozenset({((0,), (1,))}))
    assert changed.answer == frozenset({((0,), (1,))}) and info.answer == frozenset()
    for clone in (changed, copy.copy(info), pickle.loads(pickle.dumps(info))):
        assert type(clone) is type(info) and clone != info
        assert [getattr(clone, f) for f in info._fields if f != "answer"] == \
            [getattr(info, f) for f in info._fields if f != "answer"]


@pytest.mark.parametrize("kind, q, dc, message", [
    ("MOST", None, None, "unknown policy kind MOST"),
    ("QUORUM", None, None, "QUORUM needs a quorum fraction strictly between 0 and 1"),
    ("EACH_QUORUM", Fraction(3, 2), None, "EACH_QUORUM needs a quorum fraction strictly between 0 and 1"),
    ("LOCAL_QUORUM", Fraction(0), 1, "LOCAL_QUORUM needs a quorum fraction strictly between 0 and 1"),
    ("LOCAL_QUORUM", Fraction(1, 2), None, "LOCAL_QUORUM needs a data centre"),
    ("LOCAL_ONE", None, None, "LOCAL_ONE needs a data centre"),
])
def test_a_policy_is_checked_when_built_and_when_replaced(kind, q, dc, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        Policy(kind, q, dc)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        local_quorum(Fraction(1, 2), 1)._replace(kind=kind, q=q, dc=dc)


def test_with_policies_leaves_the_original_scenario_as_it_was():
    intro = load_scenario("intro")
    changed = intro.with_policies(ALL, ONE)
    assert (intro.read_policy, intro.write_policy) == (ONE, ONE)
    assert (changed.read_policy, changed.write_policy) == (ALL, ONE)
    assert changed._replace(read_policy=ONE) == intro and changed != intro
    assert all(getattr(changed, f) is getattr(intro, f) for f in intro._fields if not f.endswith("_policy"))


def test_a_run_result_is_a_record_of_its_run():
    intro = load_scenario("intro")
    result = run(intro, "cm0", SeededSchedule(0))
    assert result.completed and result == (result.trace, result.sim, True, result.reason, result.schedule_steps)
    assert repr(result).startswith("RunResult(trace=Trace(events=(")
    assert result.as_explicit_schedule() == ExplicitSchedule(result.schedule_steps)


def test_importing_the_package_loads_no_dataclasses():
    # each dataclass decoration runs generated code, and the module pulls in
    # inspect, dis and ast: a start-up cost every CLI call would pay
    code = "import sys; before = set(sys.modules); import replisim; print(*set(sys.modules) - before)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "replisim.sim" in loaded and "dataclasses" not in loaded
