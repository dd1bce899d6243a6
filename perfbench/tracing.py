"""Spans taken from outside the program.

The traced run patches public callables of the program at the names their
callers look up (``replisim.sim.enumerate_compliant_selections``,
``replisim.consistency.db_answer_read``, ``Simulation.clone``, ...), because
modules import these by name.  Nothing inside ``src/`` is changed.

A span is (name, start, end, parent span, operation index); spans are kept
in compact arrays in memory and written out when the run ends.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict

from replisim import consistency, scenario as scenario_mod, sim
from replisim.core import FlatStore
from replisim.trace import Trace

SETUP_OP = -1
MOVE_TAGS = ("deliver", "send", "recv", "db", "dc", "collect")

# (metric name, unit, better); the traced run reports exactly these.
PER_LAYER = (
    [
        ("sim.state_key.calls", "count", "lower"),
        ("sim.state_key.self_s", "s", "lower"),
        ("sim.distinct_states", "count", "lower"),
        ("sim.dedup_hit_ratio", "ratio", "higher"),
        ("sim.clone.calls", "count", "lower"),
        ("sim.clone.self_s", "s", "lower"),
        ("sim.enumerate_moves.calls", "count", "lower"),
        ("sim.enumerate_moves.self_s", "s", "lower"),
        ("sim.enumerate_moves.moves", "count", "lower"),
    ]
    + [
        (f"sim.execute_move.{tag}.{field}", unit, "lower")
        for tag in MOVE_TAGS
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("sim.apply_round.calls", "count", "lower"),
        ("sim.apply_round.self_s", "s", "lower"),
        ("policies.selections.calls", "count", "lower"),
        ("policies.selections.self_s", "s", "lower"),
        ("search.explored", "count", "lower"),
        ("search.predicate.calls", "count", "lower"),
        ("search.predicate.self_s", "s", "lower"),
        ("enum.traces", "count", "higher"),
        ("run.rounds", "count", "lower"),
        ("run.us_per_round", "us", "lower"),
        ("check.compat.calls", "count", "lower"),
        ("check.compat.self_s", "s", "lower"),
        ("check.compat.nodes", "count", "lower"),
        ("check.compat.s_per_node", "s", "lower"),
        ("check.serial.calls", "count", "lower"),
        ("check.serial.self_s", "s", "lower"),
        ("check.serial.nodes", "count", "lower"),
        ("check.undecided", "count", "lower"),
        ("check.oracle.read.calls", "count", "lower"),
        ("check.oracle.read.self_s", "s", "lower"),
        ("check.oracle.write.calls", "count", "lower"),
        ("check.oracle.write.self_s", "s", "lower"),
        ("check.flat_clone.calls", "count", "lower"),
        ("trace.from_text.calls", "count", "lower"),
        ("trace.from_text.self_s", "s", "lower"),
        ("trace.to_text.calls", "count", "lower"),
        ("trace.to_text.self_s", "s", "lower"),
        ("scenario.parse.calls", "count", "lower"),
        ("scenario.parse.self_s", "s", "lower"),
        ("tracing.overhead_share", "ratio", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = SETUP_OP
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op_index = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counts: dict = defaultdict(int)  # (operation index, counter name) -> total
        self.state_keys: dict = defaultdict(set)  # operation index -> hashes of state keys
        self.check_depth = 0
        self._patches: list = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_index.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None, checker: bool = False):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of the
        call's arguments; ``after(args, result)`` runs outside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name if isinstance(name, str) else name(args))
            tracer.check_depth += checker
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.check_depth -= checker
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, after=None, checker: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, after, checker))
        else:
            replacement = self.wrap(original, name, after, checker)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def count_when_checking(self, owner, attr: str, counter: str) -> None:
        """Count calls made inside a checker span, without opening a span."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if tracer.enabled and tracer.check_depth:
                tracer.add(counter, 1)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def add(self, counter: str, n: int) -> None:
        self.counts[(self.op, counter)] += n

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def table(self) -> dict:
        """(operation index, name) -> [calls, self seconds, inclusive seconds]."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(self.self_times()):
            row = out[(self.op_index[i], self.names[self.name_id[i]])]
            row[0] += 1
            row[1] += s
            row[2] += self.end[i] - self.start[i]
        return out

    def write(self, path: str, op_ids: list) -> None:
        """Spans as gzip'd tab-separated lines: name, start, end, parent
        span, operation id (``setup`` for set-up)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                op = self.op_index[i]
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{op_ids[op] if op >= 0 else 'setup'}\n"
                )


def install(tracer: Tracer) -> None:
    """Patch the program's layer boundaries."""
    sim_cls = sim.Simulation
    tracer.patch(sim_cls, "state_key", "sim.state_key",
                 after=lambda args, key: tracer.state_keys[tracer.op].add(hash(key)))
    tracer.patch(sim_cls, "clone", "sim.clone")
    tracer.patch(sim_cls, "enumerate_moves", "sim.enumerate_moves",
                 after=lambda args, moves: tracer.add("sim.enumerate_moves.moves", len(moves)))
    tracer.patch(sim_cls, "execute_move", lambda args: f"sim.execute_move.{args[1].tag}")
    tracer.patch(sim_cls, "apply_round", "sim.apply_round")
    tracer.patch(sim, "enumerate_compliant_selections", "policies.selections")
    tracer.patch(scenario_mod, "enumerate_compliant_selections", "policies.selections")
    tracer.patch(scenario_mod, "parse_scenario", "scenario.parse")
    tracer.patch(consistency, "db_answer_read", "check.oracle.read")
    tracer.patch(consistency, "db_perform_write", "check.oracle.write")
    for attr, name in (("check_view_compatible", "check.compat"),
                       ("check_view_serialisable", "check.serial")):
        tracer.patch(consistency, attr, name, checker=True,
                     after=lambda args, v, name=name: _count_verdict(tracer, name, v))
    tracer.count_when_checking(FlatStore, "clone", "check.flat_clone.calls")
    tracer.patch(Trace, "to_text", "trace.to_text")
    tracer.patch(Trace, "from_text", "trace.from_text")


def _count_verdict(tracer: Tracer, name: str, verdict) -> None:
    tracer.add(f"{name}.nodes", verdict.replays)
    tracer.add("check.undecided", not verdict.exhaustive)


def _sum(table: dict, ops: set) -> dict:
    out: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for (op, name), row in table.items():
        if op in ops:
            out[name] = [a + b for a, b in zip(out[name], row)]
    return out


def layer_metrics(tracer: Tracer, ops: list, results: list, untraced_durations: list,
                  traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``results`` are the traced pass's operation results (None where an
    operation raised); ``untraced_durations`` are per-operation mean seconds
    over the untraced passes, used for the per-round cost."""
    pass_ops = set(range(len(ops)))
    table = tracer.table()
    totals = _sum(table, pass_ops)
    parse = _sum(table, {SETUP_OP} | pass_ops)["scenario.parse"]
    counts = defaultdict(int)
    for (op, name), n in tracer.counts.items():
        if op in pass_ops:
            counts[name] += n
    m: dict = {}

    def span(name: str) -> None:
        m[f"{name}.calls"], m[f"{name}.self_s"], _ = totals[name]

    span("sim.state_key")
    calls = m["sim.state_key.calls"]
    distinct = sum(len(keys) for op, keys in tracer.state_keys.items() if op in pass_ops)
    m["sim.distinct_states"] = distinct
    m["sim.dedup_hit_ratio"] = (calls - distinct) / calls if calls else 0.0
    span("sim.clone")
    span("sim.enumerate_moves")
    m["sim.enumerate_moves.moves"] = counts["sim.enumerate_moves.moves"]
    for tag in MOVE_TAGS:
        span(f"sim.execute_move.{tag}")
    span("sim.apply_round")
    span("policies.selections")
    m["search.explored"] = sum(r.explored for op, r in zip(ops, results)
                               if op.kind == "search" and r is not None)
    span("search.predicate")
    m["enum.traces"] = sum(len(r) for op, r in zip(ops, results)
                           if op.kind == "enum" and r is not None)
    run_ops = {i for i, op in enumerate(ops) if op.kind == "run"}
    rounds = _sum(table, run_ops)["sim.apply_round"][0]
    m["run.rounds"] = rounds
    run_seconds = sum(untraced_durations[i] for i in run_ops)
    m["run.us_per_round"] = run_seconds / rounds * 1e6 if rounds else 0.0
    for short in ("compat", "serial"):
        span(f"check.{short}")
        m[f"check.{short}.nodes"] = counts[f"check.{short}.nodes"]
    nodes = m["check.compat.nodes"]
    m["check.compat.s_per_node"] = totals["check.compat"][2] / nodes if nodes else 0.0
    m["check.undecided"] = counts["check.undecided"]
    span("check.oracle.read")
    span("check.oracle.write")
    m["check.flat_clone.calls"] = counts["check.flat_clone.calls"]
    span("trace.from_text")
    span("trace.to_text")
    m["scenario.parse.calls"] = parse[0]
    m["scenario.parse.self_s"] = parse[1]
    m["tracing.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    return m
