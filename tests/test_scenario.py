import ast
import random
from fractions import Fraction
from importlib import resources

import pytest

from replisim import (ConfigError, ScenarioError, SeededSchedule, Simulation, load_scenario, parse_scenario,
                      run)
from replisim.cli import main
from replisim.policies import ALL, ONE, local_quorum
from replisim.scenario import CM1_COPIES, ClientStep, bundled_scenarios
from replisim.sim import MODELS

from corpus import SCENARIOS, generated_scenarios, scenario_text


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
    scenario = base._replace(programs={**base.programs, "a1": (step,)})
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


def test_an_init_value_in_other_digits_is_refused():
    text = """cluster.datacentres = 1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = ONE
policy.write = ONE
init.x = (\u0660) -> (\u0660)
"""
    with pytest.raises(ScenarioError, match="line 6: expected an atom, got '\u0660'"):
        parse_scenario(text)


_INTEGERS = """cluster.datacentres = 2
cluster.offsets = 1:1 2:2
cluster.down = 2:1
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
cluster.relation.x.hash = 0 255
cluster.relation.x.ranges = 0:127 128:255
cluster.relation.x.datacentres = 1 2
cluster.relation.x.nodes = 2
cluster.relation.x.replication = 2
cluster.relation.y.fragments = 1
policy.read = LOCAL_ONE(1)
policy.write = QUORUM(1/2)
agent.a1.home = 1
agent.a1.program = read x true
"""


def test_integer_fields_read_as_written():
    s = parse_scenario(_INTEGERS)
    assert s.cfg.all_dcs() == (1, 2) and s.cfg.offset_ranks == {1: 1, 2: 2}
    x = s.cfg.relation("x")
    assert (x.arity, x.co_arity, x.hash_min, x.hash_max) == (1, 1, 0, 255)
    assert (x.ranges, x.data_centres, x.nodes, x.replication) == (((0, 127), (128, 255)), (1, 2), 2, 2)
    assert s.cfg.relation("y").fragments == 1 and s.homes == {"a1": 1}
    negative = parse_scenario(_INTEGERS.replace("hash = 0 255", "hash = -256 -1").replace(
        "ranges = 0:127 128:255", "ranges = -256:-129 -128:-1"))
    assert negative.cfg.relation("x").ranges == ((-256, -129), (-128, -1))


@pytest.mark.parametrize("field, written, line, message", [
    ("cluster.datacentres = 2", "cluster.datacentres = \u0662", 1, "expected an integer, got '\u0662'"),
    ("cluster.datacentres = 2", "cluster.datacentres = +2", 1, "expected an integer, got '+2'"),
    ("cluster.offsets = 1:1 2:2", "cluster.offsets = 1:1 2:\u0662", 2, "got '\u0662'"),
    ("cluster.offsets = 1:1 2:2", "cluster.offsets = 1:1 2", 2, "expected 2 integers, got '2'"),
    ("cluster.down = 2:1", "cluster.down = 2:1:1", 3, "expected 2 integers, got '2:1:1'"),
    ("cluster.down = 2:1", "cluster.down = 2:+1", 3, "got '+1'"),
    ("relation.x.arity = 1", "relation.x.arity = 1_0", 4, "relation x: expected an integer, got '1_0'"),
    ("relation.x.coarity = 1", "relation.x.coarity = \u0661", 5, "got '\u0661'"),
    ("relation.x.hash = 0 255", "relation.x.hash = 0 2_55", 6, "got '2_55'"),
    ("relation.x.hash = 0 255", "relation.x.hash = 0 255 7", 6, "expected 2 integers, got '0 255 7'"),
    ("relation.x.ranges = 0:127 128:255", "relation.x.ranges = 0:127 128:\u0662", 7, "got '\u0662'"),
    ("relation.x.datacentres = 1 2", "relation.x.datacentres = 1 +2", 8, "got '+2'"),
    ("relation.x.nodes = 2", "relation.x.nodes = \uff12", 9, "got '\uff12'"),
    ("relation.x.replication = 2", "relation.x.replication = 2.0", 10, "got '2.0'"),
    ("relation.y.fragments = 1", "relation.y.fragments = \u0661", 11, "relation y: expected an integer"),
    ("policy.read = LOCAL_ONE(1)", "policy.read = LOCAL_ONE(\u0661)", 12, "cannot parse policy"),
    ("policy.write = QUORUM(1/2)", "policy.write = QUORUM(1_0/2_0)", 13, "got '1_0'"),
    ("agent.a1.home = 1", "agent.a1.home = \u0661", 14, "agent a1: expected an integer, got '\u0661'"),
    ("agent.a1.home = 1", "agent.a1.home = +1", 14, "agent a1: expected an integer, got '+1'"),
])
def test_integers_in_other_spellings_are_refused_on_their_line(field, written, line, message):
    # int() would take each of them
    text = _INTEGERS.replace(field, written)
    assert text != _INTEGERS
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert [ln for ln, msg in err.value.diagnostics if message in msg] == [line], err.value.diagnostics


@pytest.mark.parametrize("field, written, line, message", [
    ("cluster.offsets = 1:1 2:2", "cluster.offsets = 1:1 2:2 1:3", 2, "data centre 1 has two offset ranks"),
    ("relation.x.ranges = 0:127 128:255", "relation.x.ranges = 0:127 128:255\ncluster.relation.x.fragments = 2",
     8, "relation x: give fragments or ranges, not both"),
    ("relation.x.datacentres = 1 2", "relation.x.datacentres = 1 1", 8, "relation x: a data centre is listed twice"),
])
def test_conflicting_fields_are_refused_on_their_line(field, written, line, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_INTEGERS.replace(field, written))
    assert err.value.diagnostics == [(line, message)]


def test_zero_nodes_is_a_diagnostic_not_a_crash(tmp_path, capsys):
    text = _INTEGERS.replace("relation.x.nodes = 2", "relation.x.nodes = 0")
    with pytest.raises(ScenarioError, match="x: replication must be within 1..nodes"):
        parse_scenario(text)
    path = tmp_path / "zero_nodes.scn"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--model", "cm0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "x: replication must be within 1..nodes" in out.err


@pytest.mark.parametrize("field, written, line, message", [
    ("cluster.datacentres = 2", "cluster.datacentres = 0", 1, "cluster.datacentres must be >= 1"),
    ("cluster.datacentres = 2", "cluster.datacentres = -1", 1, "cluster.datacentres must be >= 1"),
    ("relation.x.arity = 1", "relation.x.arity = 0", 4, "x: arity and co-arity must be >= 1"),
    ("relation.x.coarity = 1", "relation.x.coarity = -1", 5, "x: arity and co-arity must be >= 1"),
    ("relation.x.ranges = 0:127 128:255", "relation.x.ranges = 0:127 129:255", 7,
     "x: ranges must partition [0,255] in ascending order"),
    ("relation.x.ranges = 0:127 128:255", "relation.x.ranges = 0:127 128:200", 7,
     "x: ranges do not cover the hash interval"),
    ("relation.x.nodes = 2", "relation.x.nodes = 0", 9, "x: replication must be within 1..nodes"),
    ("relation.x.replication = 2", "relation.x.replication = 3", 10, "x: replication must be within 1..nodes"),
    ("cluster.down = 2:1", "cluster.down = 9:9", 3, "down pair 9:9 names no node of the cluster"),
    ("cluster.down = 2:1", "cluster.down = 2:1 3:1", 3, "down pair 3:1 names no node of the cluster"),
    ("cluster.down = 2:1", "cluster.down = 2:3", 3, "down pair 2:3 names no node of the cluster"),
    ("cluster.down = 2:1", "cluster.down = 2:0", 3, "down pair 2:0 names no node of the cluster"),
])
def test_a_layout_outside_the_cluster_is_refused_on_its_line(field, written, line, message, tmp_path, capsys):
    text = _INTEGERS.replace(field, written)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.diagnostics == [(line, message)]
    path = tmp_path / "layout.scn"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--model", "cm0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"line {line}: {message}" in out.err


def test_a_cluster_without_data_centres_is_refused_under_every_model(tmp_path, capsys):
    # with no offsets and no agents no other check refuses it, and cm0 would run it to an empty trace
    path = tmp_path / "no_dcs.scn"
    path.write_text("cluster.datacentres = 0\ncluster.relation.x.arity = 1\npolicy.read = ONE\npolicy.write = ONE\n",
                    encoding="utf-8")
    for model in MODELS:
        assert main(["run", str(path), "--model", model]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "line 1: cluster.datacentres must be >= 1" in out.err, out.err


def test_missing_scenario_file():
    with pytest.raises(ScenarioError):
        load_scenario("does-not-exist")


def test_a_fragment_with_more_copies_than_cm1_can_judge_is_refused():
    # a relation without a datacentres field spans every data centre; under
    # cm1 validation judged all 2^1000 - 1 subsets of its copies and ran out
    # of memory
    s = parse_scenario("cluster.datacentres = 1000\ncluster.relation.x.arity = 1\n"
                       "cluster.relation.x.coarity = 1\npolicy.read = ONE\npolicy.write = ONE\n")
    with pytest.raises(ScenarioError) as err:
        Simulation(s, "cm1")
    assert err.value.diagnostics == [(0, f"x fragment 1 has more than {CM1_COPIES} copies; "
                                         "cm1 judges every subset of them")]
    assert run(s, "cm2", SeededSchedule(0)).completed


# Whole-file checks, the only diagnostics parse_scenario reports on line 0
WHOLE_FILE = ("cluster.datacentres is required", "cluster.offsets must cover", "at least one cluster.relation",
              "policy.read and policy.write are required", "offset ranks must be pairwise distinct")


def _mutant(text: str, rng: random.Random) -> str:
    """``text`` with one line changed: a value replaced by one of a fixed
    list, the line deleted or doubled, an id made bad, or junk appended."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    line, op = lines[i], rng.randrange(5)
    if op == 0 and "=" in line:
        field, _, value = line.partition("=")
        words = value.split() or [""]
        words[rng.randrange(len(words))] = rng.choice(("0", "-1", "1000", "", "\u0662"))
        lines[i] = f"{field}= {' '.join(words)}"
    elif op == 1:
        del lines[i]
    elif op == 2:
        lines.insert(i, line)
    elif op == 3 and "." in line:
        parts = line.split(".")
        parts[1] = rng.choice(("x y", "", "9", "x!"))
        lines[i] = ".".join(parts)
    else:
        lines[i] = line + rng.choice((" junk", " =", " (", " }"))
    return "\n".join(lines) + "\n"


def test_mutated_scenarios_parse_or_are_refused_on_their_lines():
    # every mutant of the bundled scenarios, the corpus texts and this
    # file's texts parses, or is refused with a ScenarioError whose lines
    # are lines of the text (line 0 only for a whole-file check); a parsed
    # one is refused by a model's Simulation or runs seed 0 to completion
    texts = [resources.files("replisim").joinpath("scenarios", f"{name}.scn").read_text(encoding="utf-8")
             for name in bundled_scenarios()]
    texts += generated_scenarios(lambda name, agents, **layout: scenario_text(agents, **layout))
    with open(__file__, encoding="utf-8") as f:
        texts += [node.value for node in ast.walk(ast.parse(f.read()))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.startswith("cluster.") and "\n" in node.value]
    rng = random.Random(37)
    parsed = 0
    for _ in range(1500):
        text = _mutant(rng.choice(texts), rng)
        try:
            scenario = parse_scenario(text, name="mutant")
        except ScenarioError as err:
            lines = text.splitlines()
            for line, message in err.diagnostics:
                assert (0 < line <= len(lines) and lines[line - 1].strip()
                        or line == 0 and message.startswith(WHOLE_FILE)), (line, message, text)
            continue
        parsed += 1
        for model in MODELS:
            try:
                Simulation(scenario, model)
            except (ScenarioError, ConfigError):
                continue
            assert run(scenario, model, SeededSchedule(0)).completed, (model, text)
    assert len(texts) > 40 and parsed > 100
