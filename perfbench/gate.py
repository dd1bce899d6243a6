"""Correctness gate: the expected-output record, and cross-checks against
results of the paper that do not depend on the code under test.

The record (``expected/<workload>.json``) pins, per recorded seed and
operation, one summary line: the sha256 of each ``run`` trace, the size and
sorted-text digest of each ``enumerate_traces`` set, the ``render()`` line
of each checker verdict, and the verdict kind of each search.  A search
pins its verdict, not its witness, because a reordered search may find
another witness.

Cross-checks run on every seed, recorded or not:

- cm0 traces, and cm1 traces under an appropriate policy pair, are
  view-compatible; cm0 traces are view-serialisable.
- The counterexample's single-writer stale-read witness is INCOMPATIBLE.
- ``counterexample`` has no stale-read witness under cm0 or cm1, and
  ``intro`` has no print-pair witness under cm0.
- A search witness satisfies its predicate and replays byte-identically
  from its ``ExplicitSchedule``; a seeded run replays byte-identically from
  the schedule it executed.
- Every COMPATIBLE or SERIALISABLE witness replays through the single-copy
  oracle (``cm0.db_answer_read`` / ``cm0.db_perform_write``).
"""

from __future__ import annotations

import json
import os

from replisim import cm0, consistency, sim
from replisim.core import UNDEF

from workloads import APPROPRIATE


def is_undecided(summary: str) -> bool:
    """Does a summary line record an incomplete answer (budget or state cap
    exhausted, or an exception)?"""
    return (
        summary.startswith("raised ")
        or "exhaustive=false" in summary
        or "completed=false" in summary
    )


class Gate:
    def __init__(self, record_path: str, seed: int):
        self.expected = None  # op id -> summary line, or None when the seed is not recorded
        self.recorded_seeds: list = []
        if os.path.exists(record_path):
            with open(record_path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            self.recorded_seeds = sorted(int(s) for s in record["seeds"])
            self.expected = record["seeds"].get(str(seed))

    def compare(self, op_id: str, summary: str) -> list:
        """Problems with one operation's summary against the record.

        An operation recorded as undecided that now returns a complete
        answer is accepted; its cross-checks still apply."""
        if self.expected is None:
            return []
        want = self.expected.get(op_id)
        if want is None:
            return [f"{op_id}: no expected record for this operation"]
        if summary == want or (is_undecided(want) and not is_undecided(summary)):
            return []
        return [f"{op_id}: expected {want!r}, got {summary!r}"]

    # -- cross-checks ---------------------------------------------------------

    def check_enumeration(self, scenario, model: str, traces) -> list:
        problems = []
        for seed in (0, 1):
            trace = sim.run(scenario, model, sim.SeededSchedule(seed)).trace.normalized()
            if trace not in traces:
                problems.append(f"seeded run {seed} is missing from the enumerated trace set")
        pair = (scenario.read_policy.kind, scenario.write_policy.kind)
        if model in ("cm0", "cm1") and pair in APPROPRIATE:
            for trace in traces:
                verdict = consistency.check_view_compatible(trace, scenario)
                problems += self.check_verdict(scenario, trace, "compat", "compatible", verdict)
        return problems

    def check_search(self, scenario, model: str, predicate, paper: str, result) -> list:
        if result.witness is None:
            if paper == "WITNESS" and result.exhausted:
                return ["exhaustive search found no witness where the paper has one"]
            return []
        problems = []
        if paper == "NO_WITNESS":
            problems.append("search found a witness where the paper has none")
        if not predicate(result.trace, scenario):
            problems.append("witness trace does not satisfy the predicate")
        replay = sim.run(scenario, model, result.witness).trace
        if replay.to_text() != result.trace.to_text():
            problems.append("witness schedule does not replay byte-identically")
        return problems

    def check_verdict(self, scenario, trace, prop: str, paper: str, verdict) -> list:
        problems = []
        decided_no = verdict.exhaustive and not verdict.ok()
        if prop == "compat":
            if paper.startswith("compatible") and decided_no:
                problems.append("trace the paper calls compatible was judged INCOMPATIBLE")
            if paper == "incompatible" and verdict.ok():
                problems.append("stale-read witness was judged COMPATIBLE")
            if verdict.ok():
                problems += replay_compatible(scenario, trace, verdict)
        else:
            if paper == "compatible+serialisable" and decided_no:
                problems.append("cm0 trace was judged NOT_SERIALISABLE")
            if verdict.ok():
                problems += replay_serial(scenario, trace, verdict)
        return problems

    def check_run(self, scenario, model: str, result) -> list:
        if not result.completed:
            return [f"run did not complete: {result.reason}"]
        problems = []
        replay = sim.run(scenario, model, result.as_explicit_schedule()).trace
        if [e.render() for e in replay.events] != [e.render() for e in result.trace.events]:
            problems.append("executed schedule does not replay byte-identically")
        pair = (scenario.read_policy.kind, scenario.write_policy.kind)
        if model == "cm0" or (model == "cm1" and pair in APPROPRIATE):
            problems += replay_in_response_order(scenario, result.trace)
        return problems


# ---------------------------------------------------------------------------
# Oracle replays
# ---------------------------------------------------------------------------


def _requests(trace) -> dict:
    """req -> (issue idx, response idx, kind, rid, body, answer)."""
    reqs, resps = trace.requests(), trace.responses()
    out = {}
    for req, r in reqs.items():
        a = resps[req]
        kind, rid, body = r.payload
        out[req] = (r.idx, a.idx, kind, rid, body, a.payload[2] if kind == "read" else None)
    return out


def _replay_batch(scenario, flat, infos: list, waived=frozenset()) -> list:
    """Reads see the shared pre-state, then the writes apply together."""
    problems = []
    for req, (_, _, kind, rid, body, answer) in infos:
        if kind == "read" and cm0.db_answer_read(flat, scenario.cfg, rid, body) != answer:
            problems.append(f"oracle replay of {req} does not reproduce its answer")
    combined: dict = {}
    for req, (_, _, kind, rid, body, _) in infos:
        if kind != "write":
            continue
        for k, v in body:
            if (req, k) in waived:
                continue
            if combined.get((rid, k), v) != v:
                problems.append(f"conflicting simultaneous writes at {rid}{k!r}")
            combined[(rid, k)] = v
    for (rid, k), v in sorted(combined.items(), key=repr):
        cm0.db_perform_write(flat, scenario.cfg, rid, {k: v})
    return problems


def replay_compatible(scenario, trace, verdict) -> list:
    """Replay a COMPATIBLE witness: one point per request inside its
    (issue, response] window, points strictly increasing, unread write pairs
    the only ones waived."""
    infos = _requests(trace)
    read_values = {
        (rid, k, v) for (_, _, kind, rid, _, answer) in infos.values() if kind == "read"
        for k, v in answer
    }
    waived = frozenset(verdict.waived)
    problems = []
    for req, k in waived:
        _, _, kind, rid, body, _ = infos[req]
        pairs = dict(body) if kind == "write" else {}
        if k not in pairs or (pairs[k] is not UNDEF and (rid, k, pairs[k]) in read_values):
            problems.append(f"witness waives {req} {k!r}, which is not an unread write")
    flat = scenario.initial.clone()
    placed, last = [], 0
    for point, reqs in verdict.witness:
        if point <= last:
            problems.append("witness points are not increasing")
        last = point
        for req in reqs:
            lo, hi = infos[req][0], infos[req][1]
            if not lo < point <= hi:
                problems.append(f"witness point {point} is outside the window of {req}")
        placed += reqs
        problems += _replay_batch(scenario, flat, [(r, infos[r]) for r in reqs], waived)
    if sorted(placed) != sorted(infos):
        problems.append("witness does not place every request exactly once")
    return problems


def replay_serial(scenario, trace, verdict) -> list:
    """Replay a SERIALISABLE witness: a total order of the requests that
    keeps every agent's own order."""
    infos = _requests(trace)
    order = list(verdict.witness)
    problems = []
    if sorted(order) != sorted(infos):
        problems.append("serial witness does not list every request exactly once")
        return problems
    last_issue: dict = {}
    flat = scenario.initial.clone()
    for req in order:
        agent = req.split("#", 1)[0]
        if infos[req][0] < last_issue.get(agent, -1):
            problems.append(f"serial witness reorders the requests of {agent}")
        last_issue[agent] = infos[req][0]
        problems += _replay_batch(scenario, flat, [(req, infos[req])])
    return problems


def replay_in_response_order(scenario, trace) -> list:
    """An atomic model answers each request in one step, which is the
    request's execution point: replaying requests in response order through
    the oracle must reproduce every read."""
    infos = _requests(trace)
    flat = scenario.initial.clone()
    problems = []
    for req in sorted(infos, key=lambda r: infos[r][1]):
        problems += _replay_batch(scenario, flat, [(req, infos[req])])
    return problems

