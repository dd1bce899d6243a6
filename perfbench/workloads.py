"""Workload generators and operation lists.

Three workloads, ``explore``, ``check`` and ``run``, each a fixed list of
operations whose shapes are constant: agents, homes, request kinds and read
conditions, which key slot each request touches, store sizes, policies,
budgets and schedule seeds.  The workload seed chooses the contents: the
key atoms behind the slots and every value.  Two seeds therefore give
scenarios that differ by a relabelling: the seed moves the outputs (trace
digests) but not the amount of work, so run-to-run spread is the host's
alone.  Each operation is one call a user would make (``replisim run``,
``search``, ``check``, or a library call to ``enumerate_traces``), timed on
its own.

The program modules are reached through their module objects
(``sim.run``, ``consistency.check_view_compatible``, ...) so that the traced
run can patch them at the names callers look up.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from replisim import consistency, predicates, scenario as scenario_mod, sim
from replisim.trace import Trace

SEARCH_BUDGET = 1_000_000  # the CLI default
COMPAT_BUDGET = 2_000
SERIAL_BUDGET = 20_000

# explore: 2 data centres, one copy per data centre, <= 4 requests.
# cm1 shapes have 3 agents; cm2 shapes 2 agents (a third agent multiplies the
# cm2 state space by ~10 and one enumeration would outlast a whole pass).
# Each agent is (home, step codes); see ``_step``.
EXPLORE_CM1_SHAPES = (
    ("w_w_rr", ((1, ("w0",)), (2, ("w1",)), (1, ("r0", "r1")))),
    ("ww_r_r", ((1, ("w0", "w1")), (2, ("ri",)), (1, ("r0",)))),
    ("wr_w_r", ((1, ("w0", "rt")), (2, ("w0",)), (2, ("r0",)))),
)
EXPLORE_CM2_SHAPES = (
    ("w_rr", ((1, ("w0",)), (2, ("r0", "r0")))),
    ("ww_r", ((1, ("w0", "w1")), (2, ("rt",)))),
)
EXPLORE_SEARCHES = (
    # (bundled scenario, model, predicate, the paper's answer)
    ("counterexample", "cm2", "anomaly-read-stale", "WITNESS"),
    ("counterexample", "cm1", "anomaly-read-stale", "NO_WITNESS"),
    ("counterexample", "cm0", "anomaly-read-stale", "NO_WITNESS"),
    ("intro", "cm0", "print-pair", "NO_WITNESS"),
)

# check: 4 agents, homes alternate between the 2 data centres, 2 relations.
CHECK_HOMES = (1, 2, 1, 2)
CHECK_CONFIGS = (
    # (label, model, read policy, write policy, requests per agent)
    ("cm0", "cm0", "ONE", "ALL", 5),
    ("cm1-ONE-ALL", "cm1", "ONE", "ALL", 6),
    ("cm2-ALL-ALL", "cm2", "ALL", "ALL", 5),
    ("cm2-ONE-ONE", "cm2", "ONE", "ONE", 5),
)
CHECK_TRACES_PER_CONFIG = 4

# run: 3 data centres, 2 relations x 2 fragments, 2 nodes x replication 2.
RUN_HOMES = (1, 2, 3, 1)
RUN_REQUESTS_PER_AGENT = 12
RUN_STORE_SIZES = (16, 64, 256)
RUN_MODELS = ("cm0", "cm1", "cm2")

# Read/write policy pairs the paper calls appropriate (ALL on either side, so
# every read meets every write) keep cm0 and cm1 traces view-compatible; the
# gate uses this to cross-check verdicts.
APPROPRIATE = {("ONE", "ALL"), ("ALL", "ONE"), ("ALL", "ALL")}


@dataclass
class Op:
    """One timed operation.

    ``call`` is the timed region.  ``summary`` turns its result into the
    line the expected record pins, ``decided`` says whether the result is a
    complete answer, and ``cross_check`` returns a list of problems found
    against facts that do not depend on the code under test.
    """

    id: str
    kind: str  # enum | search | check | run
    call: Callable[[], object]
    summary: Callable[[object], str]
    decided: Callable[[object], bool]
    cross_check: Callable[[object], list]


# ---------------------------------------------------------------------------
# Scenario text
# ---------------------------------------------------------------------------


def _relation_lines(rid: str, dcs: tuple, fragments: int, nodes: int, replication: int) -> str:
    return (
        f"cluster.relation.{rid}.arity = 1\n"
        f"cluster.relation.{rid}.coarity = 1\n"
        f"cluster.relation.{rid}.hash = 0 255\n"
        f"cluster.relation.{rid}.fragments = {fragments}\n"
        f"cluster.relation.{rid}.datacentres = {' '.join(map(str, dcs))}\n"
        f"cluster.relation.{rid}.nodes = {nodes}\n"
        f"cluster.relation.{rid}.replication = {replication}\n"
    )


def _scenario_text(dcs: int, relations: str, read: str, write: str, programs: list, init: dict,
                   fragments: int = 1, nodes: int = 1, replication: int = 1) -> str:
    """``programs`` is a list of (home, [step text, ...]); ``init`` maps a
    relation to its initial (key, value) integer pairs."""
    all_dcs = tuple(range(1, dcs + 1))
    parts = [f"cluster.datacentres = {dcs}\n"]
    parts += [_relation_lines(rid, all_dcs, fragments, nodes, replication) for rid in relations]
    parts.append(f"policy.read = {read}\npolicy.write = {write}\n")
    for i, (home, steps) in enumerate(programs, start=1):
        parts.append(f"agent.a{i}.home = {home}\nagent.a{i}.program = {'; '.join(steps)}\n")
    for rid, records in init.items():
        parts.append(f"init.{rid} = " + ", ".join(f"({k}) -> ({v})" for k, v in records) + "\n")
    return "".join(parts)


def _shape(workload: str, *parts) -> random.Random:
    """Fixed per operation: which key slots requests touch, schedule seeds."""
    # A string seed is hashed with SHA-512, so this does not depend on
    # PYTHONHASHSEED.
    return random.Random(":".join(map(str, ("shape", workload) + parts)))


def _contents(workload: str, seed: int, *parts) -> random.Random:
    """Chosen by the workload seed: key atoms and values."""
    return random.Random(":".join(map(str, ("contents", workload, seed) + parts)))


def _distinct(rng: random.Random, n: int) -> list:
    return rng.sample(range(1_000_000), n)


def _step(code: str, rid: str, keys: list, values) -> str:
    """``w<slot>`` writes a fresh value to a key slot, ``r<slot>`` reads one
    key, ``ri`` reads slots 0 and 1 with key_in, ``rt`` reads everything."""
    if code[0] == "w":
        return f"write {rid} {{({keys[int(code[1:])]}) -> ({next(values)})}}"
    if code == "rt":
        return f"read {rid} true"
    if code == "ri":
        return f"read {rid} key_in{{({keys[0]}) ({keys[1]})}}"
    return f"read {rid} key=({keys[int(code[1:])]})"


def explore_scenarios(seed: int) -> list:
    """(model, name, scenario text) for the enumerations of ``explore``."""
    out = []
    for model, shapes in (("cm1", EXPLORE_CM1_SHAPES), ("cm2", EXPLORE_CM2_SHAPES)):
        for name, agents in shapes:
            rng = _contents("explore", seed, model, name)
            keys = _distinct(rng, 2)
            values = iter(_distinct(rng, 8))
            init = {"x": [(k, next(values)) for k in keys]}
            programs = [(home, [_step(code, "x", keys, values) for code in codes])
                        for home, codes in agents]
            out.append((model, name, _scenario_text(2, "x", "ONE", "ALL", programs, init)))
    return out


def check_scenarios(seed: int) -> list:
    """(label, model, index, schedule seed, scenario text) for ``check``.
    Agents alternate writes and reads over relations x and y; the shape
    picks one of two key slots per request."""
    out = []
    for label, model, read, write, per_agent in CHECK_CONFIGS:
        for t in range(CHECK_TRACES_PER_CONFIG):
            shape = _shape("check", label, t)
            rng = _contents("check", seed, label, t)
            keys = {rid: _distinct(rng, 2) for rid in "xy"}
            values = iter(_distinct(rng, 4 + len(CHECK_HOMES) * per_agent))
            init = {rid: [(k, next(values)) for k in keys[rid]] for rid in "xy"}
            programs = []
            for i, home in enumerate(CHECK_HOMES, start=1):
                steps = []
                for n in range(per_agent):
                    rid = "xy"[((i + n) // 2) % 2]
                    code = ("w" if (i + n) % 2 == 0 else "r") + str(shape.randrange(2))
                    steps.append(_step(code, rid, keys[rid], values))
                programs.append((home, steps))
            text = _scenario_text(2, "xy", read, write, programs, init)
            out.append((label, model, t, shape.randrange(1 << 30), text))
    return out


def run_scenarios(seed: int) -> list:
    """(model, store size, schedule seed, scenario text) for ``run``.  Every
    key is in the initial store; half of the requests write."""
    out = []
    for model in RUN_MODELS:
        for size in RUN_STORE_SIZES:
            shape = _shape("run", model, size)
            rng = _contents("run", seed, model, size)
            per_rel = size // 2
            keys = {rid: _distinct(rng, per_rel) for rid in "xy"}
            values = iter(_distinct(rng, size + len(RUN_HOMES) * RUN_REQUESTS_PER_AGENT))
            init = {rid: [(k, next(values)) for k in keys[rid]] for rid in "xy"}
            programs = []
            for i, home in enumerate(RUN_HOMES, start=1):
                steps = []
                for n in range(RUN_REQUESTS_PER_AGENT):
                    rid = shape.choice("xy")
                    code = ("w" if (i + n) % 2 == 0 else "r") + str(shape.randrange(per_rel))
                    steps.append(_step(code, rid, keys[rid], values))
                programs.append((home, steps))
            text = _scenario_text(3, "xy", "ONE", "ALL", programs, init,
                                  fragments=2, nodes=2, replication=2)
            out.append((model, size, shape.randrange(1 << 30), text))
    return out


# ---------------------------------------------------------------------------
# Operation lists
# ---------------------------------------------------------------------------


def _parse(text: str, name: str):
    return scenario_mod.parse_scenario(text, name=name)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def explore_ops(seed: int, gate, wrap_predicate=lambda fn: fn) -> list:
    ops = []
    for model, name, text in explore_scenarios(seed):
        scenario = _parse(text, f"explore_{name}")
        ops.append(Op(
            id=f"enum/{model}/{name}",
            kind="enum",
            call=lambda s=scenario, m=model: sim.enumerate_traces(s, m),
            summary=lambda traces: "traces=%d sha256=%s" % (
                len(traces), _sha("".join(sorted(t.to_text() for t in traces)))),
            decided=lambda traces: True,
            cross_check=lambda traces, s=scenario, m=model: gate.check_enumeration(s, m, traces),
        ))
    for name, model, pred_name, paper in EXPLORE_SEARCHES:
        scenario = scenario_mod.load_scenario(name)
        predicate = predicates.BUILTIN_PREDICATES[pred_name]
        traced_predicate = wrap_predicate(predicate)
        ops.append(Op(
            id=f"search/{name}/{model}/{pred_name}",
            kind="search",
            call=lambda s=scenario, m=model, p=traced_predicate: sim.search_schedules(
                s, m, p, budget=SEARCH_BUDGET),
            summary=_search_summary,
            decided=lambda r: r.witness is not None or r.exhausted,
            cross_check=lambda r, s=scenario, m=model, p=predicate, want=paper:
                gate.check_search(s, m, p, want, r),
        ))
    return ops


def _search_summary(result) -> str:
    if result.witness is not None:
        return "verdict=WITNESS"
    return f"verdict=NO_WITNESS exhaustive={str(result.exhausted).lower()}"


def produce_check_inputs(seed: int) -> list:
    """Scenarios and trace texts for ``check``: seeded runs of the generated
    scenarios, plus the bundled counterexample's stale-read witness.
    Returns (label, scenario, trace text, paper expectation) tuples."""
    inputs = []
    for label, model, t, schedule_seed, text in check_scenarios(seed):
        scenario = _parse(text, f"check_{label}_{t}")
        trace = sim.run(scenario, model, sim.SeededSchedule(schedule_seed)).trace
        pair = (scenario.read_policy.kind, scenario.write_policy.kind)
        if model == "cm0":
            paper = "compatible+serialisable"
        elif model == "cm1" and pair in APPROPRIATE:
            paper = "compatible"
        else:
            paper = ""
        inputs.append((f"{label}/t{t}", scenario, trace.to_text(), paper))
    counterexample = scenario_mod.load_scenario("counterexample")
    found = sim.search_schedules(
        counterexample, "cm2", predicates.anomaly_read_stale, budget=SEARCH_BUDGET)
    if found.trace is None:
        raise RuntimeError("no stale-read witness for the counterexample scenario")
    inputs.append(("counterexample/witness", counterexample, found.trace.to_text(), "incompatible"))
    return inputs


def check_ops(gate, inputs: list) -> list:
    ops = []
    for label, scenario, text, paper in inputs:
        for prop, checker, budget in (
            ("compat", "check_view_compatible", COMPAT_BUDGET),
            ("serial", "check_view_serialisable", SERIAL_BUDGET),
        ):
            ops.append(Op(
                id=f"check/{label}/{prop}",
                kind="check",
                call=lambda s=scenario, x=text, c=checker, b=budget: getattr(consistency, c)(
                    Trace.from_text(x), s, budget=b),
                summary=lambda v: v.render(),
                decided=lambda v: v.exhaustive,
                cross_check=lambda v, s=scenario, x=text, p=prop, want=paper:
                    gate.check_verdict(s, Trace.from_text(x), p, want, v),
            ))
    return ops


def run_ops(seed: int, gate) -> list:
    ops = []
    for model, size, schedule_seed, text in run_scenarios(seed):
        scenario = _parse(text, f"run_{model}_{size}")
        ops.append(Op(
            id=f"run/{model}/k{size}",
            kind="run",
            call=lambda s=scenario, m=model, r=schedule_seed: _run_to_text(s, m, r),
            summary=lambda out: "completed=%s sha256=%s" % (
                str(out[0].completed).lower(), _sha(out[1])),
            decided=lambda out: out[0].completed,
            cross_check=lambda out, s=scenario, m=model: gate.check_run(s, m, out[0]),
        ))
    return ops


def _run_to_text(scenario, model: str, schedule_seed: int) -> tuple:
    # ``replisim run`` renders the trace it writes, so rendering is timed.
    result = sim.run(scenario, model, sim.SeededSchedule(schedule_seed))
    return result, result.trace.to_text()
