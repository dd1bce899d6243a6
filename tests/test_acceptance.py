"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured scope.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines; every tolerance is asserted, nothing is deferred.
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from replisim import (
    ALL,
    ONE,
    THREE,
    TWO,
    CountState,
    SeededSchedule,
    check_view_compatible,
    check_view_serialisable,
    complies,
    each_quorum,
    enumerate_traces,
    load_scenario,
    local_one,
    local_quorum,
    quorum,
    run,
    search_schedules,
    sufficient,
    view_equivalent,
)
from replisim.cli import main
from replisim.predicates import anomaly_read_stale
from replisim.refinement import lift_cm0_to_cm1, lift_cm1_to_cm2
from replisim.trace import Trace

from corpus import generated_scenarios
from test_core import make_cfg

HALF = Fraction(1, 2)

# The appropriate-combination classes under test: (read, write) pairs with
# write ALL, read ALL, and the overlapping-quorum pairs.
APPROPRIATE_COMBOS = (
    (ONE, ALL),
    (ALL, ONE),
    (ALL, ALL),
    (quorum(HALF), quorum(HALF)),
    (each_quorum(HALF), quorum(HALF)),
)


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


@pytest.fixture(scope="module")
def corpus():
    return generated_scenarios()


_COMPAT_CORPUS_CACHE: list = []


def compat_corpus_results(corpus):
    """Every CM1 trace of every corpus scenario under every appropriate
    policy combination, with its compatibility verdict (computed once)."""
    if not _COMPAT_CORPUS_CACHE:
        for base in corpus:
            for read_policy, write_policy in APPROPRIATE_COMBOS:
                scenario = base.with_policies(read_policy, write_policy)
                for trace in sorted(enumerate_traces(scenario, "cm1"), key=lambda t: t.to_text()):
                    verdict = check_view_compatible(trace, scenario)
                    _COMPAT_CORPUS_CACHE.append((scenario, trace, verdict))
    return _COMPAT_CORPUS_CACHE


def test_criterion_1_counterexample_reproduction(tmp_path, capsys):
    t0 = time.time()
    trace_path = tmp_path / "witness.log"
    code = main(
        [
            "search",
            "counterexample",
            "--model",
            "cm2",
            "--predicate",
            "anomaly-read-stale",
            "--trace",
            str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict=WITNESS" in out

    trace = Trace.from_text(trace_path.read_text())
    answers = [
        e.payload[2]
        for e in sorted(trace.events, key=lambda e: e.idx)
        if e.kind == "RESP" and e.agent == "a2" and e.payload[0] == "answer"
    ]
    assert answers[0] == frozenset({((0,), (1,))})  # new value first
    assert answers[1] == frozenset({((0,), (0,))})  # then the old one

    code = main(["check", "counterexample", "compatible", "--trace", str(trace_path)])
    assert code == 0
    assert "verdict=INCOMPATIBLE exhaustive=true" in capsys.readouterr().out
    code = main(["check", "counterexample", "serialisable", "--trace", str(trace_path)])
    assert code == 0
    assert "verdict=NOT_SERIALISABLE exhaustive=true" in capsys.readouterr().out

    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"
    _passed(1, f"stale-read witness found, INCOMPATIBLE and NOT_SERIALISABLE in {elapsed:.2f}s")


def test_criterion_2_appropriate_combinations_stay_compatible(corpus):
    t0 = time.time()
    assert len(corpus) >= 20
    for scenario in corpus:
        for rel in scenario.cfg.relations.values():
            assert len(rel.data_centres) == 2
        assert len(scenario.programs) <= 3
        assert sum(len(p) for p in scenario.programs.values()) <= 4
    corpus_data = compat_corpus_results(corpus)
    failures = [
        (s.name, str(s.read_policy), str(s.write_policy))
        for s, t, v in corpus_data
        if v.kind != "COMPATIBLE"
    ]
    assert failures == []
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"
    _passed(
        2,
        f"{len(corpus_data)} exhaustively enumerated CM1 traces over {len(corpus)} scenarios "
        f"x {len(APPROPRIATE_COMBOS)} appropriate combos all COMPATIBLE in {elapsed:.1f}s",
    )


def test_criterion_3_inappropriate_combination_anomaly():
    t0 = time.time()
    scenario = load_scenario("anomaly_one_one")
    assert scenario.read_policy == ONE and scenario.write_policy == ONE
    assert len(scenario.cfg.candidates("x", 1)) == 2

    found = search_schedules(scenario, "cm2", anomaly_read_stale)
    assert found.witness is not None
    verdict = check_view_compatible(found.trace, scenario)
    assert (verdict.kind, verdict.exhaustive) == ("INCOMPATIBLE", True)

    none = search_schedules(scenario, "cm0", anomaly_read_stale)
    assert none.witness is None and none.exhausted

    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    _passed(
        3,
        f"ONE/ONE anomaly reachable in cm2 (INCOMPATIBLE trace), absent from "
        f"exhaustive cm0 search ({none.explored} states) in {elapsed:.2f}s",
    )


def test_criterion_4_refinement_completeness(corpus):
    t0 = time.time()
    checked = 0
    names = [s.name for s in corpus] + ["intro", "counterexample", "anomaly_one_one"]
    pool = list(corpus) + [load_scenario(n) for n in ("intro", "counterexample", "anomaly_one_one")]
    for base in pool:
        scenario = base.with_policies(ALL, ALL)
        for seed in (0, 1, 2):
            r0 = run(scenario, "cm0", SeededSchedule(seed))
            assert r0.completed
            r1 = run(scenario, "cm1", lift_cm0_to_cm1(scenario, r0.schedule_steps))
            assert r1.completed
            assert view_equivalent(r0.trace, r1.trace), (base.name, seed)
            r2 = run(scenario, "cm2", lift_cm1_to_cm2(scenario, r1.schedule_steps))
            assert r2.completed
            assert view_equivalent(r1.trace, r2.trace), (base.name, seed)
            checked += 1
    elapsed = time.time() - t0
    _passed(
        4,
        f"{checked} runs over {len(names)} scenarios lifted cm0->cm1 (ALL/ALL, full "
        f"selections) and cm1->cm2 (deliver-all-before-next), all view-equivalent, {elapsed:.1f}s",
    )


def test_criterion_5_compatible_implies_serialisable(corpus):
    # The corpus here is the criterion-2 trace corpus (appropriate policy
    # combinations) plus seeded runs of the bundled scenarios under their own
    # policies.  Inappropriate combinations can separate the two notions:
    # see test_consistency.test_unread_write_waiver_can_outrun_serialisability.
    t0 = time.time()
    pool = list(compat_corpus_results(corpus))
    for name in ("intro", "counterexample", "anomaly_one_one"):
        scenario = load_scenario(name)
        for model in ("cm0", "cm1", "cm2"):
            for seed in (0, 1, 2):
                trace = run(scenario, model, SeededSchedule(seed)).trace
                pool.append((scenario, trace, check_view_compatible(trace, scenario)))
    checked, failures = 0, []
    for scenario, trace, verdict in pool:
        if verdict.kind != "COMPATIBLE":
            continue
        checked += 1
        sv = check_view_serialisable(trace, scenario)
        if sv.kind != "SERIALISABLE" or not sv.exhaustive:
            failures.append((scenario.name, trace))
    assert failures == []
    elapsed = time.time() - t0
    _passed(5, f"{checked} exhaustively-COMPATIBLE traces all SERIALISABLE in {elapsed:.1f}s")


def test_criterion_6_timestamp_conditions_hold_everywhere(corpus):
    # Engine checks are on in every run: cross-dc distinctness and agreement
    # at the maximal timestamp, monotone per-replica stamps (the store
    # rejects regressions), condition 3 after every forwarded write, and
    # monotone clock ticks.  Any violation raises and fails this test.
    t0 = time.time()
    runs = 0
    pool = list(corpus) + [load_scenario(n) for n in ("intro", "counterexample", "anomaly_one_one")]
    for base in pool:
        for read_policy, write_policy in ((ONE, ALL), (ALL, ALL), (quorum(HALF), quorum(HALF))):
            scenario = base.with_policies(read_policy, write_policy)
            for model in ("cm0", "cm1", "cm2"):
                for seed in (0, 1, 2):
                    result = run(scenario, model, SeededSchedule(seed))
                    assert result.completed
                    runs += 1
    elapsed = time.time() - t0
    _passed(6, f"timestamp conditions held across {runs} checked runs in {elapsed:.1f}s")


def _brute_force_complies(g, policy, candidates, dcs):
    """Independent evaluation of the selection predicates from first
    principles (set cardinalities and exact fractions)."""
    g = frozenset(g)
    c = frozenset(candidates)
    kind = policy.kind
    if kind == "ALL":
        return g == c
    if kind in ("ONE", "TWO", "THREE"):
        return len(g) >= {"ONE": 1, "TWO": 2, "THREE": 3}[kind]
    if kind == "QUORUM":
        return policy.q * len(c) < len(g)
    if kind == "EACH_QUORUM":
        return all(
            policy.q * len([x for x in c if x[0] == d]) < len([x for x in g if x[0] == d])
            for d in dcs
        )
    if kind == "LOCAL_ONE":
        return len(g) >= 1 and all(d == policy.dc for d, _ in g)
    if kind == "LOCAL_QUORUM":
        return all(d == policy.dc for d, _ in g) and policy.q * len(c) < len(g)
    raise AssertionError(kind)


def _brute_force_sufficient(count_by_dc, policy, candidates, dcs):
    total = sum(count_by_dc.values())
    gamma = len(candidates)
    kind = policy.kind
    if kind == "ALL":
        return total == gamma
    if kind in ("ONE", "TWO", "THREE"):
        return total >= {"ONE": 1, "TWO": 2, "THREE": 3}[kind]
    if kind == "QUORUM":
        return policy.q * gamma < total
    if kind == "EACH_QUORUM":
        return all(
            policy.q * len([x for x in candidates if x[0] == d]) < count_by_dc.get(d, 0)
            for d in dcs
        )
    if kind == "LOCAL_QUORUM":
        delta = len([x for x in candidates if x[0] == policy.dc])
        return policy.q * delta < count_by_dc.get(policy.dc, 0)
    if kind == "LOCAL_ONE":
        return count_by_dc.get(policy.dc, 0) >= 1
    raise AssertionError(kind)


def test_criterion_7_policy_truth_tables():
    t0 = time.time()
    layouts = [
        make_cfg(dcs=dcs, nodes=repl, replication=repl)
        for dcs, repl in [((1,), 1), ((1,), 2), ((1,), 3), ((1, 2), 1), ((1, 2), 2), ((1, 2), 3), ((1,), 5)]
    ]
    # two fragments on overlapping copies: fragment 2 sits on nodes 2 and 3 of each data centre
    layouts.append(make_cfg(dcs=(1, 2), fragments=2, nodes=3, replication=2))
    compared = 0
    for cfg in layouts:
        rel = cfg.relation("x")
        dcs, repl, last = rel.data_centres, rel.replication, rel.fragments
        candidates_of = {j: sorted(cfg.candidates("x", j)) for j in range(1, last + 1)}
        candidates = candidates_of[last]
        assert 1 <= len(candidates) <= 6
        policies = [ALL, ONE, TWO, THREE, quorum(HALF), quorum(Fraction(2, 3)), each_quorum(HALF)]
        for d in dcs:
            policies += [local_one(d), local_quorum(HALF, d)]
        subsets = [
            frozenset(c)
            for size in range(len(candidates) + 1)
            for c in itertools.combinations(candidates, size)
        ]
        for policy in policies:
            for g in subsets:
                got = complies(g, policy, cfg, "x", last)
                want = _brute_force_complies(g, policy, candidates, dcs)
                assert got == want, (dcs, repl, str(policy), g)
                compared += 1
            # one vector of per-fragment counts for each data centre
            for vectors in itertools.product(itertools.product(range(repl + 1), repeat=last), repeat=len(dcs)):
                cs = CountState.zero(cfg, "x")
                for d, xs in zip(dcs, vectors):
                    cs = cs.add(d, xs)
                got = sufficient(cs, policy, cfg, "x")
                want = all(
                    _brute_force_sufficient(
                        {d: xs[j - 1] for d, xs in zip(dcs, vectors)}, policy, candidates_of[j], dcs
                    )
                    for j in candidates_of
                )
                assert got == want, (dcs, repl, str(policy), vectors)
                compared += 1
    # strict-majority boundary at q = 1/2 for odd candidate counts
    for m in (3, 5):
        cfg = make_cfg(dcs=(1,), nodes=m, replication=m)
        need = (m + 2) // 2
        for c in range(m + 1):
            cs = CountState.zero(cfg, "x").add(1, (c,))
            assert sufficient(cs, quorum(HALF), cfg, "x") == (c >= need)
    elapsed = time.time() - t0
    _passed(7, f"{compared} complies/sufficient cases match the brute-force oracle in {elapsed:.1f}s")


def test_criterion_8_byte_identical_reruns(tmp_path):
    t0 = time.time()
    outputs = []
    for i in range(3):
        path = tmp_path / f"trace{i}.log"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "replisim",
                "run",
                "intro",
                "--model",
                "cm2",
                "--seed",
                "42",
                "--trace",
                str(path),
            ],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    elapsed = time.time() - t0
    _passed(8, f"3 invocations produced byte-identical traces in {elapsed:.1f}s")
