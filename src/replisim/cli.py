"""Command line interface.

Subcommands: ``run`` (simulate a scenario under a seeded schedule and write
the trace; without ``--trace`` stdout holds the trace alone and the summary
goes to stderr), ``search`` (hunt a schedule whose trace satisfies a
predicate), ``check`` (decide view compatibility or view serialisability of
a trace).

Exit codes: 0 verdict or trace produced, 2 validation error, 3 budget or
step limit exhausted, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys

from .consistency import IncompleteTraceError, check_view_compatible, check_view_serialisable
from .core import ConfigError
from .predicates import load_predicate
from .scenario import ScenarioError, bundled_scenarios, load_scenario
from .sim import DEFAULT_STEP_LIMIT, SeededSchedule, run, search_schedules
from .trace import Trace, TraceError, read_int

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_EXHAUSTED = 3


def _number(args, flag: str, least=None) -> int:
    """The value of ``--flag``, an integer as ``trace.read_int`` reads one,
    refused below ``least`` if that is given."""
    text = getattr(args, flag)
    try:
        value = read_int(text)
    except TraceError as exc:
        raise ValueError(f"--{flag}: {exc}") from None
    if least is not None and value < least:
        raise ValueError(f"--{flag} must be {least} or more, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replisim",
        description="Deterministic simulator and consistency checkers for a "
        "replicated shared-memory subsystem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario under a seeded schedule")
    p_run.add_argument("scenario", help="scenario file path or bundled name")
    p_run.add_argument("--model", choices=("cm0", "cm1", "cm2"), required=True)
    p_run.add_argument("--seed", default="0")
    p_run.add_argument("--trace", metavar="PATH", help="write the trace here instead of stdout")
    p_run.add_argument("--steps", default=str(DEFAULT_STEP_LIMIT), help="global step limit")

    p_search = sub.add_parser("search", help="search schedules for a trace property")
    p_search.add_argument("scenario")
    p_search.add_argument("--model", choices=("cm0", "cm1", "cm2"), required=True)
    p_search.add_argument(
        "--predicate",
        required=True,
        help="anomaly-read-stale | print-pair | custom-file:PATH",
    )
    p_search.add_argument("--budget", default="1000000")
    p_search.add_argument("--trace", metavar="PATH", help="write the witness trace here")
    p_search.add_argument("--steps", default=str(DEFAULT_STEP_LIMIT))

    p_check = sub.add_parser("check", help="check a recorded trace")
    p_check.add_argument("scenario")
    p_check.add_argument("property", choices=("compatible", "serialisable"))
    p_check.add_argument("--trace", metavar="PATH", required=True)
    p_check.add_argument("--budget", default="1000000")

    p_list = sub.add_parser("scenarios", help="list bundled scenarios")
    return parser


def _cmd_run(args) -> int:
    seed, steps = _number(args, "seed"), _number(args, "steps", 0)
    scenario = load_scenario(args.scenario)
    result = run(scenario, args.model, SeededSchedule(seed), step_limit=steps)
    text = result.trace.to_text()
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(text)
        report = sys.stdout
    else:
        sys.stdout.write(text)
        report = sys.stderr  # stdout holds only the trace, so check can read it
    n_req = len(result.trace.requests())
    print(f"completed={str(result.completed).lower()} events={len(result.trace.events)} requests={n_req}",
          file=report)
    if not result.completed:
        print(f"reason={result.reason}", file=report)
        return EXIT_EXHAUSTED
    return EXIT_OK


def _cmd_search(args) -> int:
    budget, steps = _number(args, "budget", 0), _number(args, "steps", 0)
    scenario = load_scenario(args.scenario)
    predicate = load_predicate(args.predicate)
    result = search_schedules(scenario, args.model, predicate, budget=budget, step_limit=steps)
    if result.witness is not None:
        print(f"verdict=WITNESS exhaustive=false witness={result.witness.describe()}")
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(result.trace.to_text())
        return EXIT_OK
    if result.exhausted:
        print("verdict=NO_WITNESS exhaustive=true witness=NONE")
        return EXIT_OK
    print("verdict=NO_WITNESS exhaustive=false witness=NONE")
    return EXIT_EXHAUSTED


def _cmd_check(args) -> int:
    budget = _number(args, "budget", 0)
    scenario = load_scenario(args.scenario)
    with open(args.trace, "r", encoding="utf-8") as fh:
        trace = Trace.from_text(fh.read())
    if args.property == "compatible":
        verdict = check_view_compatible(trace, scenario, budget=budget)
    else:
        verdict = check_view_serialisable(trace, scenario, budget=budget)
    print(verdict.render())
    if not verdict.exhaustive and not verdict.ok():
        return EXIT_EXHAUSTED
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "scenarios":
            for name in bundled_scenarios():
                print(name)
            return EXIT_OK
        return EXIT_INTERNAL  # pragma: no cover
    except (ScenarioError, ConfigError, TraceError, IncompleteTraceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
