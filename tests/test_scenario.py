import dataclasses
from fractions import Fraction

import pytest

from replisim import ScenarioError, SeededSchedule, Simulation, load_scenario, parse_scenario, run
from replisim.policies import ALL, ONE, local_quorum
from replisim.scenario import ClientStep, bundled_scenarios
from replisim.sim import MODELS

from corpus import SCENARIOS


def test_bundled_names():
    names = bundled_scenarios()
    assert {"intro", "counterexample", "anomaly_one_one"} <= set(names)


def test_intro_layout():
    s = load_scenario("intro")
    assert sorted(s.programs) == ["a1", "a2", "a3", "a4"]
    assert sorted(s.cfg.relations) == ["x", "y"]
    for rid in ("x", "y"):
        assert len(s.cfg.candidates(rid, 1)) == 2  # two copies of each cell
    assert [len(p) for _, p in sorted(s.programs.items())] == [1, 1, 2, 2]


def test_counterexample_policies_and_init():
    s = load_scenario("counterexample")
    assert s.read_policy == ONE and s.write_policy == ALL
    assert s.initial.get("x", (0,)) == (0,)
    assert len(s.cfg.candidates("x", 1)) == 2


def test_empty_agents_section_is_valid():
    s = parse_scenario(
        """
cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ONE
""",
        name="noagents",
    )
    assert s.programs == {}


def test_diagnostics_carry_line_numbers():
    text = """cluster.datacentres = 2
cluster.relation.x.arity = 1
nonsense line
policy.read = ONE
"""
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert any(ln == 3 for ln, _ in err.value.diagnostics)


def test_duplicate_key_rejected():
    text = """cluster.datacentres = 2
cluster.datacentres = 3
"""
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert any("duplicate" in msg for _, msg in err.value.diagnostics)


def test_duplicate_agent_program_rejected():
    text = """cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ONE
agent.a1.home = 1
agent.a1.program = read x true
agent.a1.program = read x true
"""
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_bad_agent_id_rejected():
    text = """cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ONE
agent.A-1.home = 1
agent.A-1.program = read x true
"""
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert any("agent id" in msg for _, msg in err.value.diagnostics)


def test_unknown_relation_in_program_rejected():
    text = """cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ONE
agent.a1.home = 1
agent.a1.program = read z true
"""
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_overlapping_ranges_rejected():
    text = """cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
cluster.relation.x.hash = 0 255
cluster.relation.x.ranges = 0:200 100:255
policy.read = ONE
policy.write = ONE
"""
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_arity_mismatch_in_init_rejected():
    text = """cluster.datacentres = 1
cluster.relation.x.arity = 2
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ONE
init.x = (0) -> (1)
"""
    with pytest.raises(ScenarioError):
        parse_scenario(text)


_OFFSETS = """cluster.datacentres = 2
cluster.offsets = {}
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ONE
"""


def test_offsets_set_each_data_centres_rank():
    s = parse_scenario(_OFFSETS.format("1:2 2:1"))
    assert s.cfg.offset_ranks == {1: 2, 2: 1}
    assert s.cfg.lowest_offset_dc() == 2


def test_offsets_must_cover_every_data_centre():
    with pytest.raises(ScenarioError, match="must cover exactly the declared data centres"):
        parse_scenario(_OFFSETS.format("1:1"))


def test_unsatisfiable_policy_surfaces_before_the_run():
    text = """cluster.datacentres = 2
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
cluster.relation.x.nodes = 1
cluster.relation.x.replication = 1
policy.read = THREE
policy.write = ONE
"""
    s = parse_scenario(text)
    with pytest.raises(ScenarioError) as err:
        s.validate_for_model("cm1")
    assert any("unsatisfiable" in msg for _, msg in err.value.diagnostics)
    with pytest.raises(ScenarioError):
        s.validate_for_model("cm2")
    s.validate_for_model("cm0")  # the flat model ignores policies


def test_local_quorum_is_judged_over_all_copies_in_cm1_and_local_ones_in_cm2():
    # x has one copy in each of two data centres.  cm1 takes LOCAL_QUORUM's
    # quorum over the whole candidate set (1/2 * 2 < |G| needs both copies,
    # but only one is in dc 1); a cm2 delegate takes it over dc 1's copies
    # (1/2 * 1 < 1 holds once dc 1 has answered).
    w_rr = next(s for s in SCENARIOS if s.name == "w_rr")
    scenario = w_rr.with_policies(local_quorum(Fraction(1, 2), 1), ALL)
    with pytest.raises(ScenarioError, match="is unsatisfiable on x fragment 1"):
        run(scenario, "cm1", SeededSchedule(0))
    result = run(scenario, "cm2", SeededSchedule(0))
    assert result.completed and len(result.trace.events) == 6


@pytest.mark.parametrize("model", MODELS)
def test_a_step_the_cluster_cannot_run_is_refused_before_any_model_runs_it(model):
    # Built in code, so parse_scenario never saw the step: a write of a
    # two-atom key into the arity-1 relation x.
    base = load_scenario("counterexample")
    step = ClientStep("write", "x", pairs=(((0, 1), (1,)),))
    scenario = dataclasses.replace(base, programs={**base.programs, "a1": (step,)})
    with pytest.raises(ScenarioError) as err:
        Simulation(scenario, model)
    assert str(err.value) == "agent a1: write key (0, 1) does not match arity 1 of x"


def test_all_policy_with_down_node_never_sufficient():
    text = """cluster.datacentres = 2
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
cluster.down = 2:1
policy.read = ONE
policy.write = ALL
"""
    s = parse_scenario(text)
    with pytest.raises(ScenarioError):
        s.validate_for_model("cm2")


def test_text_atoms_round_trip():
    text = """cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ONE
agent.a1.home = 1
agent.a1.program = write x {("k") -> ("v")}; read x key=("k"); read x key=("a;b")
init.x = ("k") -> ("w")
"""
    s = parse_scenario(text)
    assert s.initial.get("x", ("k",)) == ("w",)
    step = s.programs["a1"][0]
    assert step.pairs == ((("k",), ("v",)),)
    # a ";" inside a string does not end the step
    assert s.programs["a1"][2].cond.key == ("a;b",)


def test_undef_in_init_rejected():
    text = """cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ONE
init.x = (0) -> undef
"""
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_missing_scenario_file():
    with pytest.raises(ScenarioError):
        load_scenario("does-not-exist")
