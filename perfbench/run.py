#!/usr/bin/env python3
"""replisim benchmark.

    python3 perfbench/run.py --workload {explore,check,run} --seed N \\
        --seconds S --trace {0,1}

Runs one workload in fresh single-threaded child processes, from the root
of a source checkout (the program is imported from ``src/``).  With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it runs
a separate traced pass and prints every per-layer metric.  Every operation's
output is checked against ``expected/<workload>.json`` and the cross-checks
in ``gate.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload W --record 0-31

re-records the expected outputs for seeds 0..31 (only after a change that is
meant to alter outputs).  See README.md for the metrics and workloads.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before the program is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from refclock import ReferenceClock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("explore", "check", "run")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_op_s", "s"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 5  # set-ups per measured run; setup_s is their median
TIME_LIMIT_S = 170  # a whole invocation stays under 180 s


# ---------------------------------------------------------------------------
# Child process: set-up, passes, validation
# ---------------------------------------------------------------------------


def _import_program():
    sys.path.insert(0, SRC)
    import replisim

    if os.path.dirname(os.path.abspath(replisim.__file__)) != os.path.join(SRC, "replisim"):
        raise RuntimeError(f"imported replisim from {replisim.__file__}, not from {SRC}")


def setup(workload: str, seed: int, wrap_predicate=lambda fn: fn, record: bool = False):
    """Scenario generation and parsing, expected-record load, and for
    ``check`` the input traces.  Returns (operations, gate)."""
    _import_program()
    import workloads
    from gate import Gate

    gate = Gate(os.path.join(HERE, "expected", f"{workload}.json"), seed)
    if record:
        gate.expected = None
    if workload == "explore":
        ops = workloads.explore_ops(seed, gate, wrap_predicate)
    elif workload == "check":
        ops = workloads.check_ops(gate, workloads.produce_check_inputs(seed))
    else:
        ops = workloads.run_ops(seed, gate)
    return ops, gate


def run_pass(ops, tracer=None, clock=None, reference_s=None) -> list:
    """One pass over the operation list: (duration, result, error) per op.
    With a running ``clock``, durations leave out the reference chunks and
    each operation's reference seconds are appended to ``reference_s``."""
    gc.collect()
    out = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            span = tracer.open(f"op.{op.kind}")
        mark = clock.mark() if clock else None
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # an operation that raises is counted, the pass goes on
            result, error = None, exc
        if clock:
            duration, reference = clock.since(mark)
            reference_s.append(reference)
        else:
            duration = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        out.append((duration, result, error))
    return out


def summarise(ops, outcomes) -> list:
    """(summary line, decided) per operation."""
    rows = []
    for op, (_, result, error) in zip(ops, outcomes):
        if error is not None:
            rows.append((f"raised {type(error).__name__}", False))
        else:
            rows.append((op.summary(result), op.decided(result)))
    return rows


def validate_first(ops, outcomes, rows, gate) -> list:
    """Problems per operation: record comparison plus cross-checks."""
    problems = []
    for op, (_, result, error), (summary, _) in zip(ops, outcomes, rows):
        found = gate.compare(op.id, summary)
        if error is not None:
            if not found and gate.expected is None:
                found = [f"{op.id}: raised {error!r}"]
            traceback.print_exception(error, file=sys.stderr)
        else:
            found += [f"{op.id}: {p}" for p in op.cross_check(result)]
        problems.append(found)
    return problems


def child_measure(args) -> dict:
    tracer = None
    wrap = lambda fn: fn  # noqa: E731
    if args.trace:
        _import_program()
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True
        wrap = lambda fn: tracer.wrap(fn, "search.predicate")  # noqa: E731
    # Reference seconds for the end-to-end metrics; the traced run reports
    # host time only, so no reference chunk lands inside a span.
    clock = None if args.trace else ReferenceClock()
    if clock:
        clock.start()
        setup_mark = clock.mark(start=_T0)
    ops, gate = setup(args.workload, args.seed, wrap)
    if clock:
        setup_s, setup_ref_s = clock.since(setup_mark)
    else:
        setup_s, setup_ref_s = time.perf_counter() - _T0, None
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()

    # Untraced passes for --seconds (half of it when a traced pass follows).
    budget = args.seconds / 2 if args.trace else args.seconds
    begin = time.perf_counter()
    passes, reference_passes, first_rows, failed, attempted, lines = [], [], None, 0, 0, []
    while True:
        reference_s = []
        outcomes = run_pass(ops, clock=clock, reference_s=reference_s)
        rows = summarise(ops, outcomes)
        if first_rows is None:
            first_rows = rows
            problems = validate_first(ops, outcomes, rows, gate)
        else:
            problems = [[] if r == f else [f"{op.id}: output changed between passes"]
                        for op, r, f in zip(ops, rows, first_rows)]
        for found in problems:
            lines += found
        failed += sum(1 for found in problems if found)
        attempted += len(ops)
        passes.append([d for d, _, _ in outcomes])
        reference_passes.append(reference_s)
        # Stop before a pass that would end past the time budget.
        if time.perf_counter() - begin + sum(passes[-1]) > budget:
            break

    if clock:
        clock.stop()
    walls = [sum(p) for p in passes]
    op_means = [statistics.mean(p[i] for p in passes) for i in range(len(ops))]
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": lines,
        "passes": len(passes),
        "pass_walls_s": walls,
        "pass_walls_ref_s": [sum(p) for p in reference_passes if p],
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "ops": [
            {"id": op.id, "summary": s, "decided": d, "mean_s": t}
            for op, (s, d), t in zip(ops, first_rows, op_means)
        ],
        "recorded": gate.expected is not None,
        "recorded_seeds": gate.recorded_seeds,
        "reference_chunk_s": statistics.median(clock.chunks) if clock else None,
    }
    if not args.trace:
        result["metrics"] = {
            "wall_s": statistics.median(sum(p) for p in reference_passes),
            "slowest_op_s": statistics.median(max(p) for p in reference_passes),
            "decided_share": sum(d for _, d in first_rows) / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result

    import tracing

    tracing.install(tracer)
    tracer.enabled = True
    traced = run_pass(ops, tracer)
    tracer.enabled = False
    tracer.uninstall()
    traced_rows = summarise(ops, traced)
    for op, r, f in zip(ops, traced_rows, first_rows):
        if r != f:
            result["failed"] += 1
            result["problems"].append(f"{op.id}: output changed under tracing")
    result["attempted"] += len(ops)
    result["metrics"] = tracing.layer_metrics(
        tracer, ops, [r for _, r, _ in traced], op_means,
        traced_wall=sum(d for d, _, _ in traced), untraced_wall=statistics.mean(walls))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz"),
                 [op.id for op in ops])
    return result


def child_setup(args) -> dict:
    clock = ReferenceClock()
    clock.start()
    mark = clock.mark(start=_T0)
    setup(args.workload, args.seed)
    setup_s, setup_ref_s = clock.since(mark)
    clock.stop()
    return {"setup_s": setup_s, "setup_ref_s": setup_ref_s}


# ---------------------------------------------------------------------------
# Parent process
# ---------------------------------------------------------------------------


def _environment() -> dict:
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    sources = sorted(os.path.join(base, name)
                     for base, _, files in os.walk(os.path.join(SRC, "replisim"))
                     for name in files if name.endswith((".py", ".scn")))
    for path in sources:
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_commit": commit or "none",
        "src_sha256": digest.hexdigest(),
    }


def _child(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main_parent(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "replisim")):
        print(f"error: no program source at {SRC}; run from the root of a replisim checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = _environment()
    try:
        setups = [] if args.trace else [
            _child(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        measured = _child(args, "measure", deadline)
        setups.append(measured)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = measured["metrics"]
    if not args.trace:
        metrics = dict(metrics, setup_s=statistics.median(s["setup_ref_s"] for s in setups))
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        _import_program()
        import tracing

        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    attempted, failed = measured["attempted"], measured["failed"]

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={measured['passes']} operations={len(measured['ops'])}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if measured["recorded"]:
        print(f"expected record: seed {args.seed} checked against expected/{args.workload}.json")
    else:
        seeds = measured["recorded_seeds"]
        recorded = f"{seeds[0]}-{seeds[-1]}" if seeds else "none"
        print(f"expected record: seed {args.seed} is not recorded (recorded seeds: {recorded}); "
              "cross-checks only")
    for problem in measured["problems"]:
        print(f"FAILED {problem}")
    print(f"failed_share = {failed / attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} = {_format(m['value'])} {m['unit']}")
    if not args.trace:
        host_setup = statistics.median(s["setup_s"] for s in setups)
        host_wall = statistics.median(measured["pass_walls_s"])
        print(f"host time (not scaled to the reference speed): setup_s = {host_setup:.6g} s, "
              f"wall_s = {host_wall:.6g} s; reference chunk median "
              f"{measured['reference_chunk_s'] * 1e3:.4g} ms")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "failed_share": failed / attempted,
                   "setups_s": [s["setup_s"] for s in setups],
                   "setups_ref_s": [s["setup_ref_s"] for s in setups],
                   **{k: measured[k] for k in ("attempted", "failed", "passes", "pass_walls_s",
                                               "pass_walls_ref_s", "reference_chunk_s", "ops",
                                               "problems")}},
                  fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main_record(args) -> int:
    lo, _, hi = args.record.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    path = os.path.join(HERE, "expected", f"{args.workload}.json")
    record = {"seeds": {}}
    for seed in seeds:
        ops, gate = setup(args.workload, seed, record=True)
        outcomes = run_pass(ops)
        rows = summarise(ops, outcomes)
        problems = [p for found in validate_first(ops, outcomes, rows, gate) for p in found]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        record["seeds"][str(seed)] = {op.id: summary for op, (summary, _) in zip(ops, rows)}
        print(f"recorded seed {seed}: {len(ops)} operations", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS", help="re-record expected outputs, e.g. 0-31")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        result = child_measure(args) if args.child == "measure" else child_setup(args)
        print(json.dumps(result))
        return 0
    if args.record:
        return main_record(args)
    return main_parent(args)


if __name__ == "__main__":
    sys.exit(main())
