import subprocess
import sys
from importlib import resources

import pytest

from replisim.cli import main
from replisim.trace import Trace


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_writes_a_parseable_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.log"
    code, out, _ = run_cli(
        ["run", "intro", "--model", "cm0", "--seed", "7", "--trace", str(trace_path)], capsys
    )
    assert code == 0
    assert "completed=true" in out
    parsed = Trace.from_text(trace_path.read_text())
    assert parsed.is_complete()
    # intro programs issue 1 + 1 + 2 + 2 requests
    assert len(parsed.requests()) == 6


def test_run_check_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "t.log"
    code, _, _ = run_cli(
        ["run", "counterexample", "--model", "cm0", "--seed", "3", "--trace", str(trace_path)],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["check", "counterexample", "compatible", "--trace", str(trace_path)], capsys
    )
    assert code == 0
    assert "verdict=COMPATIBLE" in out


def test_run_to_stdout_writes_the_trace_alone(tmp_path, capsys):
    # `replisim run ... > t.log` then `replisim check ... --trace t.log`
    code, out, err = run_cli(["run", "counterexample", "--model", "cm2"], capsys)
    assert code == 0
    assert Trace.from_text(out).is_complete()
    assert err == "completed=true events=6 requests=3\n"
    trace_path = tmp_path / "t.log"
    trace_path.write_text(out)
    code, out, _ = run_cli(["check", "counterexample", "compatible", "--trace", str(trace_path)], capsys)
    assert code == 0
    assert "verdict=" in out
    code, out, err = run_cli(["run", "counterexample", "--model", "cm0", "--steps", "0"], capsys)
    assert code == 3
    assert Trace.from_text(out).events == ()
    assert err.splitlines()[1].startswith("reason=")


def test_search_finds_anomaly_and_check_rejects_it(tmp_path, capsys):
    trace_path = tmp_path / "w.log"
    code, out, _ = run_cli(
        [
            "search",
            "counterexample",
            "--model",
            "cm2",
            "--predicate",
            "anomaly-read-stale",
            "--trace",
            str(trace_path),
        ],
        capsys,
    )
    assert code == 0
    assert "verdict=WITNESS" in out
    code, out, _ = run_cli(
        ["check", "counterexample", "compatible", "--trace", str(trace_path)], capsys
    )
    assert code == 0
    assert "verdict=INCOMPATIBLE exhaustive=true" in out
    code, out, _ = run_cli(
        ["check", "counterexample", "serialisable", "--trace", str(trace_path)], capsys
    )
    assert code == 0
    assert "verdict=NOT_SERIALISABLE exhaustive=true" in out


def test_validation_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("cluster.datacentres = not-a-number\n")
    code, _, err = run_cli(["run", str(bad), "--model", "cm0", "--seed", "0"], capsys)
    assert code == 2
    assert "error" in err


def test_run_of_a_scenario_whose_name_ends_in_a_space_exits_2(tmp_path, capsys):
    # the scenario is named after its file, "sp ace ", which a trace's meta
    # line cannot carry: reading it back would strip the space
    path = tmp_path / "sp ace .scn"
    path.write_text(resources.files("replisim").joinpath("scenarios/counterexample.scn").read_text("utf-8"),
                    encoding="utf-8")
    code, _, err = run_cli(["run", str(path), "--model", "cm0", "--seed", "0"], capsys)
    assert code == 2
    assert "meta 'scenario'" in err


def test_unsatisfiable_policy_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        """cluster.datacentres = 2
cluster.relation.x.arity = 1
cluster.relation.x.coarity = 1
policy.read = THREE
policy.write = ONE
agent.a1.home = 1
agent.a1.program = read x true
"""
    )
    code, _, err = run_cli(["run", str(bad), "--model", "cm1", "--seed", "0"], capsys)
    assert code == 2


def _bad_trace(tmp_path, capsys, edit):
    """A recorded counterexample trace, changed by ``edit`` (text -> text)."""
    trace_path = tmp_path / "t.log"
    code, _, _ = run_cli(
        ["run", "counterexample", "--model", "cm0", "--seed", "3", "--trace", str(trace_path)],
        capsys,
    )
    assert code == 0
    trace_path.write_text(edit(trace_path.read_text()))
    return trace_path


@pytest.mark.parametrize(
    "edit, message",
    [
        # the last RESP line dropped: a request is unanswered
        (lambda text: "".join(text.splitlines(keepends=True)[:-1]), "completed trace"),
        (lambda text: text + "idx=oops kind=REQ\n", "cannot parse"),
        # a read answered by an acknowledgement
        (lambda text: text.replace("payload=(answer x ((0) (1)))", "payload=(ack x)"), "answered by ack"),
        # a hash-range fragment that is a string, not an integer
        (lambda text: text.replace("(key-eq (0))", '(hash-range "a")'), "fragment is an integer"),
        # a payload nested deeper than the interpreter's recursion limit
        (lambda text: text.replace("(key-eq (0))", "(" * 3000 + ")" * 3000), "cannot parse"),
        (lambda text: text.replace("kind=RESP", "kind=RESPONSE"), "unknown event kind"),
        # a write that names its key twice
        (lambda text: text.replace("payload=(write x ((0) (1)))", "payload=(write x ((0) (1)) ((0) (2)))"),
         "duplicate key in write set"),
        # a write of a1 acknowledged to a2
        (lambda text: text.replace("kind=RESP agent=a1", "kind=RESP agent=a2"), "answered to a2"),
    ],
    ids=["incomplete", "unparsable", "read-answered-by-ack", "string-fragment", "deep-nesting",
         "unknown-kind", "duplicate-write-key", "answered-to-another-agent"],
)
@pytest.mark.parametrize("prop", ["compatible", "serialisable"])
def test_check_of_a_bad_trace_exits_2(tmp_path, capsys, edit, message, prop):
    trace_path = _bad_trace(tmp_path, capsys, edit)
    code, out, err = run_cli(["check", "counterexample", prop, "--trace", str(trace_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and out == ""


def test_search_budget_exhaustion_exits_3(capsys):
    code, out, _ = run_cli(
        ["search", "intro", "--model", "cm2", "--predicate", "anomaly-read-stale", "--budget", "3"],
        capsys,
    )
    assert code == 3
    assert "exhaustive=false" in out


def test_search_cut_by_step_limit_is_not_exhaustive(capsys):
    # Without --steps this search finds a witness; at 3 steps every branch is
    # cut before the clients finish.
    code, out, _ = run_cli(
        ["search", "counterexample", "--model", "cm2", "--predicate", "anomaly-read-stale",
         "--steps", "3"],
        capsys,
    )
    assert code == 3
    assert "verdict=NO_WITNESS exhaustive=false" in out


def test_exhausted_search_without_witness_exits_0(capsys):
    code, out, _ = run_cli(
        ["search", "anomaly_one_one", "--model", "cm0", "--predicate", "anomaly-read-stale"],
        capsys,
    )
    assert code == 0
    assert "verdict=NO_WITNESS exhaustive=true" in out


def test_custom_predicate_file(tmp_path, capsys):
    pred = tmp_path / "pred.py"
    pred.write_text("def predicate(trace, scenario):\n    return len(trace.events) > 0\n")
    code, out, _ = run_cli(
        ["search", "counterexample", "--model", "cm0", "--predicate", f"custom-file:{pred}"],
        capsys,
    )
    assert code == 0
    assert "verdict=WITNESS" in out


def test_scenarios_listing(capsys):
    code, out, _ = run_cli(["scenarios"], capsys)
    assert code == 0
    assert "intro" in out and "counterexample" in out


@pytest.mark.parametrize(
    "args, named",
    (
        (["search", "counterexample", "--model", "cm0", "--predicate", "print-pair",
          "--budget", "-5"], "--budget"),
        (["search", "counterexample", "--model", "cm0", "--predicate", "print-pair",
          "--steps", "-1"], "--steps"),
        (["run", "counterexample", "--model", "cm0", "--steps", "-1"], "--steps"),
        (["check", "counterexample", "compatible", "--trace", "unread.log", "--budget", "-2"],
         "--budget"),
    ),
    ids=("search-budget", "search-steps", "run-steps", "check-budget"),
)
def test_negative_budget_or_step_limit_exits_2(args, named, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert named in err and args[-1] in err


@pytest.mark.parametrize(
    "args",
    (
        ["run", "intro", "--model", "cm0", "--seed", "\u0663"],
        ["run", "intro", "--model", "cm0", "--steps", "1_000"],
        ["search", "counterexample", "--model", "cm0", "--predicate", "print-pair", "--budget", "+5"],
    ),
    ids=("seed-other-digits", "steps-separator", "budget-plus"),
)
def test_numbers_in_other_spellings_exit_2(args, capsys):
    # int() would take each of them; the flags read integers as scenarios do
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert args[-2] in err and repr(args[-1]) in err


def test_zero_budget_and_step_limit_stay_legal(capsys):
    code, out, _ = run_cli(
        ["search", "counterexample", "--model", "cm0", "--predicate", "print-pair",
         "--budget", "0"], capsys)
    assert code == 3
    assert "verdict=NO_WITNESS exhaustive=false" in out
    code, _, err = run_cli(["run", "counterexample", "--model", "cm0", "--steps", "0"], capsys)
    assert code == 3
    assert "completed=false" in err


def test_cli_subprocess_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "replisim", "run", "counterexample", "--model", "cm2", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "completed=true" in result.stderr
