"""Self-tests of the benchmark: generators, the correctness gate and span
accounting.  Run with ``python3 -m pytest perfbench -q`` from the checkout
root."""

import json
import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import refclock  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gate import Gate, replay_compatible  # noqa: E402
from replisim import (  # noqa: E402
    SeededSchedule,
    check_view_compatible,
    load_scenario,
    run,
    search_schedules,
)
from replisim.consistency import Verdict  # noqa: E402
from replisim.predicates import anomaly_read_stale  # noqa: E402


@pytest.mark.parametrize("generate", [
    workloads.explore_scenarios, workloads.check_scenarios, workloads.run_scenarios])
def test_generators_are_deterministic_and_seed_only_changes_contents(generate):
    assert generate(7) == generate(7)
    a, b = generate(7), generate(8)
    assert a != b
    # Same shape: identical text once every key and value is masked.
    mask = lambda rows: [re.sub(r"\(\d+\)", "(N)", str(row)) for row in rows]  # noqa: E731
    assert mask(a) == mask(b)


def _gate(tmp_path, entries: dict) -> Gate:
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"seeds": {"3": entries}}))
    return Gate(str(path), 3)


def test_gate_rejects_a_corrupted_digest(tmp_path):
    good = "completed=true sha256=" + "ab" * 32
    gate = _gate(tmp_path, {"run/cm2/k16": good})
    assert gate.compare("run/cm2/k16", good) == []
    assert gate.compare("run/cm2/k16", "completed=true sha256=" + "ac" + "ab" * 31)
    assert gate.compare("run/cm2/k64", good), "an operation missing from the record fails"


def test_gate_rejects_a_flipped_verdict_but_accepts_newly_decided(tmp_path):
    gate = _gate(tmp_path, {
        "c": "verdict=COMPATIBLE exhaustive=true witness=2:a1#0",
        "u": "verdict=NOT_SERIALISABLE exhaustive=false witness=NONE",
    })
    assert gate.compare("c", "verdict=INCOMPATIBLE exhaustive=true witness=NONE")
    assert gate.compare("u", "verdict=SERIALISABLE exhaustive=true witness=a1#0") == []
    assert gate.compare("u", "verdict=NOT_SERIALISABLE exhaustive=true witness=NONE") == []
    assert gate.compare("c", "verdict=INCOMPATIBLE exhaustive=false witness=NONE")


def test_unrecorded_seed_is_checked_by_cross_checks_only(tmp_path):
    gate = _gate(tmp_path, {"x": "verdict=WITNESS"})
    gate.expected = None
    assert gate.compare("x", "verdict=NO_WITNESS exhaustive=true") == []


def test_cross_checks_reject_flipped_verdicts_and_bad_witnesses():
    scenario = load_scenario("counterexample")
    gate = Gate("no-such-record.json", 0)
    witness = search_schedules(scenario, "cm2", anomaly_read_stale).trace
    # The stale-read witness judged COMPATIBLE contradicts the paper.
    flipped = Verdict("COMPATIBLE", exhaustive=True, witness=())
    assert gate.check_verdict(scenario, witness, "compat", "incompatible", flipped)
    # A cm0 trace judged INCOMPATIBLE contradicts the paper.
    trace = run(scenario, "cm0", SeededSchedule(1)).trace
    assert gate.check_verdict(
        scenario, trace, "compat", "compatible", Verdict("INCOMPATIBLE", exhaustive=True))
    # A genuine witness replays; a tampered one does not.
    verdict = check_view_compatible(trace, scenario)
    assert verdict.kind == "COMPATIBLE" and replay_compatible(scenario, trace, verdict) == []
    points = list(verdict.witness)
    points[0], points[-1] = (points[-1][0], points[0][1]), (points[0][0], points[-1][1])
    tampered = Verdict("COMPATIBLE", exhaustive=True, witness=tuple(points))
    assert replay_compatible(scenario, trace, tampered)


def test_span_self_times_are_non_negative_and_within_their_span():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.enabled = True
        tracer.op = 0
        scenario = load_scenario("counterexample")
        root = tracer.open("op.search")
        result = workloads.sim.search_schedules(scenario, "cm2", anomaly_read_stale)
        text = result.trace.to_text()
        workloads.consistency.check_view_compatible(
            workloads.Trace.from_text(text), scenario, budget=100)
        tracer.close(root)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert workloads.sim.Simulation.clone.__name__ == "clone"
    assert not hasattr(workloads.sim.Simulation.clone, "__wrapped__"), "uninstall restores"
    selfs = tracer.self_times()
    assert len(selfs) > 1000
    for i, s in enumerate(selfs):
        duration = tracer.end[i] - tracer.start[i]
        assert -1e-9 <= s <= duration + 1e-9
    names = {tracer.names[n] for n in tracer.name_id}
    assert {"sim.state_key", "sim.clone", "sim.apply_round", "check.compat",
            "check.oracle.read", "trace.to_text", "trace.from_text"} <= names
    assert tracer.counts[(0, "check.flat_clone.calls")] > 0


def test_seeded_runs_neither_hash_nor_clone_states():
    """``run`` exercises per-round work only: no state hashing or cloning."""
    ops = [op for op in workloads.run_ops(0, Gate("no-such-record.json", 0)) if op.id.endswith("k16")]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.enabled = True
        tracer.op = 0
        for op in ops:
            op.call()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    names = {tracer.names[n] for n in tracer.name_id}
    assert {"sim.apply_round", "sim.execute_move.dc", "trace.to_text"} <= names
    assert not names & {"sim.state_key", "sim.clone"}


class _SteadyClock(refclock.ReferenceClock):
    """A clock whose reference chunks take ``took`` seconds, without running."""

    took = refclock.REFERENCE_S

    def sample(self):
        self.chunks.append(self.took)
        self.spent += self.took


def test_reference_seconds_cancel_a_slowdown_that_hits_the_reference_alike():
    clock = _SteadyClock()
    host, reference = clock.since(clock.mark(start=time.perf_counter() - 0.5))
    assert host == pytest.approx(0.5, abs=0.05)
    assert reference == pytest.approx(host)
    clock.took = 2 * refclock.REFERENCE_S  # the host runs the reference at half speed
    host, reference = clock.since(clock.mark(start=time.perf_counter() - 1.0))
    assert reference == pytest.approx(host / 2)


def test_reference_chunks_run_on_the_timer_and_are_left_out_of_host_time():
    clock = refclock.ReferenceClock(period=0.01)
    clock.start()
    try:
        mark = clock.mark()
        begin = time.perf_counter()
        while time.perf_counter() - begin < 0.2:
            pass
        host, reference = clock.since(mark)
    finally:
        clock.stop()
    assert len(clock.chunks) >= 5, "the timer sampled the reference inside the region"
    assert 0 < host < time.perf_counter() - begin
    assert reference > 0


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_expected_record_covers_every_operation(workload):
    ops, gate = bench.setup(workload, 0)
    assert gate.expected is not None, "seed 0 is recorded"
    assert sorted(gate.expected) == sorted(op.id for op in ops)
