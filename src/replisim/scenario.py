"""Scenario files: cluster layout, policies, client programs, initial data.

The format is line-oriented ``section.key = value`` text; see the grammar in
the package README.  Parsing is strict and diagnostics carry line numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .cm0 import Condition, check_writeset
from .core import (
    UNDEF,
    ClusterConfig,
    ConfigError,
    FlatStore,
    RelationConfig,
)
from .policies import (
    CountState,
    Policy,
    enumerate_compliant_selections,
    parse_policy,
    sufficient,
)
from .trace import checked_write_set, read_atom, read_fragment, read_int, read_ints, read_name, read_tokens


class ScenarioError(Exception):
    """Scenario rejected; ``diagnostics`` is a list of (line, message)."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.diagnostics))


@dataclass(frozen=True)
class ClientStep:
    kind: str  # "read" | "write"
    rid: str
    cond: Optional[Condition] = None
    pairs: tuple = ()  # sorted ((key, value), ...) for writes
    print_answer: bool = False


@dataclass
class Scenario:
    name: str
    cfg: ClusterConfig
    read_policy: Policy
    write_policy: Policy
    programs: dict  # agent -> (ClientStep, ...)
    homes: dict  # agent -> dc
    initial: FlatStore

    def with_policies(self, read: Policy, write: Policy) -> "Scenario":
        return Scenario(
            name=self.name,
            cfg=self.cfg,
            read_policy=read,
            write_policy=write,
            programs=self.programs,
            homes=self.homes,
            initial=self.initial,
        )

    def validate_for_model(self, model: str) -> None:
        """Reject scenarios with a client step the cluster cannot run, under
        every model, or whose policies can never be satisfied under the
        given model (requests would hang forever).  A scenario that does not
        come from ``parse_scenario`` is checked here, before the engine
        runs any of its steps."""
        problems = [
            (0, f"agent {aid}: {problem}")
            for aid, program in sorted(self.programs.items())
            for problem in program_problems(self.cfg, self.homes[aid], program)
        ]
        relations = sorted(self.cfg.relations.items()) if model != "cm0" else ()  # cm0 ignores policies
        for rid, rel in relations:
            for policy, label in ((self.read_policy, "read"), (self.write_policy, "write")):
                if policy.kind in ("LOCAL_ONE", "LOCAL_QUORUM") and policy.dc not in rel.data_centres:
                    problems.append((0, f"{label} policy {policy} names a data centre outside {rid}"))
                    continue
                for j in range(1, rel.fragments + 1):
                    if model == "cm1":
                        if not enumerate_compliant_selections(self.cfg, rid, j, policy):
                            problems.append(
                                (0, f"{label} policy {policy} is unsatisfiable on {rid} fragment {j}")
                            )
                    else:
                        counts = CountState.zero(self.cfg, rid)
                        for d in rel.data_centres:
                            groups = self.cfg.local_groups[(rid, d)].values()
                            counts = counts.add(d, [len(group) for group in groups])
                        if not sufficient(counts, policy, self.cfg, rid):
                            problems.append(
                                (0, f"{label} policy {policy} can never become sufficient on {rid}")
                            )
                            break
        if problems:
            raise ScenarioError(sorted(set(problems)))


def program_problems(cfg: ClusterConfig, home: int, program: tuple) -> list:
    """What keeps each step of a client program at data centre ``home``
    from running on the cluster, at most one message per step, in order."""
    problems = []
    for step in program:
        if step.rid not in cfg.relations:
            problems.append(f"unknown relation {step.rid!r}")
            continue
        try:
            if step.kind == "read":
                step.cond.check_arity(cfg, step.rid)
            else:
                check_writeset(dict(step.pairs), cfg, step.rid)
            if home not in cfg.relation(step.rid).data_centres:
                raise ConfigError(f"home {home} is not a data centre of relation {step.rid}")
        except ConfigError as exc:
            problems.append(str(exc))
    return problems


# ---------------------------------------------------------------------------
# Program / tuple / write-set values, read from trace.read_tokens
# ---------------------------------------------------------------------------


class _TokenStream:
    def __init__(self, text: str):
        self.tokens = read_tokens(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_punct(self, value: str):
        tok = self.next()
        if tok != value:
            raise ValueError(f"expected {value!r}, got {tok!r}")

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def _parse_tuple(ts: _TokenStream) -> tuple:
    ts.expect_punct("(")
    atoms = []
    while ts.peek() != ")":
        atoms.append(read_atom(ts.next()))
    ts.next()
    return tuple(atoms)


def _parse_value(ts: _TokenStream):
    if ts.peek() == "undef":
        ts.next()
        return UNDEF
    return _parse_tuple(ts)


def _parse_writeset(ts: _TokenStream) -> tuple:
    ts.expect_punct("{")
    pairs = []
    while ts.peek() != "}":
        k = _parse_tuple(ts)
        ts.expect_punct("->")
        pairs.append((k, _parse_value(ts)))
        if ts.peek() == ",":
            ts.next()
    ts.next()
    return checked_write_set(pairs)


def _parse_cond(ts: _TokenStream) -> Condition:
    word = read_name(ts.next())
    if word == "true":
        return Condition.true()
    if word == "key":
        ts.expect_punct("=")
        return Condition.key_eq(_parse_tuple(ts))
    if word == "key_in":
        ts.expect_punct("{")
        keys = []
        while ts.peek() != "}":
            keys.append(_parse_tuple(ts))
        ts.next()
        return Condition.key_in(keys)
    if word == "hash_range":
        ts.expect_punct("=")
        return Condition.hash_range(read_fragment(ts.next()))
    raise ValueError(f"unknown condition {word!r}")


def _parse_program(text: str) -> tuple:
    ts = _TokenStream(text)
    steps = []
    while not ts.done():
        if ts.peek() == ";":
            ts.next()
            continue
        op = read_name(ts.next())
        if op not in ("read", "write"):
            raise ValueError(f"unknown step {op!r}")
        rid = read_name(ts.next())
        if op == "read":
            cond = _parse_cond(ts)
            print_answer = ts.peek() == "print"
            if print_answer:
                ts.next()
            steps.append(ClientStep("read", rid, cond=cond, print_answer=print_answer))
        else:
            steps.append(ClientStep("write", rid, pairs=_parse_writeset(ts)))
        if not ts.done() and ts.peek() != ";":
            raise ValueError(f"trailing tokens in {op} step, from {ts.peek()!r}")
    return tuple(steps)


# ---------------------------------------------------------------------------
# File parsing
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    diags = []
    assignments = []  # (lineno, key_path, value)
    seen_keys = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            diags.append((lineno, "expected 'section.key = value'"))
            continue
        key, value = line.split("=", 1)
        path = tuple(p.strip() for p in key.strip().split("."))
        if any(not p for p in path):
            diags.append((lineno, f"malformed key {key.strip()!r}"))
            continue
        if path[0] != "init" and path in seen_keys:
            diags.append((lineno, f"duplicate key {'.'.join(path)}"))
            continue
        seen_keys.add(path)
        assignments.append((lineno, path, value.strip()))
    if diags:
        raise ScenarioError(diags)

    dc_count = None
    offsets = {}
    down = []
    rel_fields = {}
    policies = {}
    agents = {}
    init_lines = []

    for lineno, path, value in assignments:
        try:
            section = path[0]
            if section == "cluster":
                if path[1:] == ("datacentres",):
                    dc_count = read_int(value)
                elif path[1:] == ("offsets",):
                    offsets.update(read_ints(part, ":", 2) for part in value.split())
                elif path[1:] == ("down",):
                    down += [read_ints(part, ":", 2) for part in value.split()]
                elif len(path) == 4 and path[1] == "relation":
                    rid = path[2]
                    if not _IDENT_RE.match(rid):
                        raise ValueError(f"relation id {rid!r} must match [a-z][a-z0-9_]*")
                    rel_fields.setdefault(rid, {})[path[3]] = (lineno, value)
                else:
                    raise ValueError(f"unknown cluster key {'.'.join(path[1:])}")
            elif section == "policy":
                if path[1:] not in (("read",), ("write",)):
                    raise ValueError("policy key must be policy.read or policy.write")
                policies[path[1]] = parse_policy(value)
            elif section == "agent":
                if len(path) != 3 or path[2] not in ("home", "program"):
                    raise ValueError("agent keys are agent.<id>.home and agent.<id>.program")
                agents.setdefault(path[1], {})[path[2]] = (lineno, value)
            elif section == "init":
                if len(path) != 2:
                    raise ValueError("init keys look like init.<relation>")
                init_lines.append((lineno, path[1], value))
            else:
                raise ValueError(f"unknown section {section!r}")
        except (ValueError, ConfigError) as exc:
            diags.append((lineno, str(exc)))
    if diags:
        raise ScenarioError(diags)

    if dc_count is None:
        raise ScenarioError([(0, "cluster.datacentres is required")])
    dcs = tuple(range(1, dc_count + 1))
    if not offsets:
        offsets = {d: d for d in dcs}
    if sorted(offsets) != list(dcs):
        raise ScenarioError([(0, "cluster.offsets must cover exactly the declared data centres")])

    known_rel_fields = {"arity", "coarity", "hash", "fragments", "ranges", "datacentres", "nodes", "replication"}
    rel_configs = {}
    for rid, fields in sorted(rel_fields.items()):
        def get(fname, default=None):
            if fname in fields:
                return fields[fname][1]
            return default

        for fname, (ln, _) in sorted(fields.items()):
            if fname not in known_rel_fields:
                diags.append((ln, f"relation {rid}: unknown field {fname!r}"))
        lineno = min(ln for ln, _ in fields.values())
        try:
            arity = read_int(get("arity", "1"))
            co_arity = read_int(get("coarity", "1"))
            hash_min, hash_max = read_ints(get("hash", "0 255"), count=2)
            if "ranges" in fields:
                ranges = tuple(read_ints(part, ":", 2) for part in get("ranges").split())
            else:
                q = read_int(get("fragments", "1"))
                if q < 1 or q > hash_max - hash_min + 1:
                    raise ValueError("fragments out of range")
                width, extra = divmod(hash_max - hash_min + 1, q)
                ranges, lo = [], hash_min
                for j in range(q):
                    hi = lo + width - 1 + (1 if j < extra else 0)
                    ranges.append((lo, hi))
                    lo = hi + 1
                ranges = tuple(ranges)
            rel_dcs = tuple(sorted(read_ints(get("datacentres", " ".join(map(str, dcs))))))
            nodes = read_int(get("nodes", "1"))
            replication = read_int(get("replication", "1"))
            for d in rel_dcs:
                if d not in dcs:
                    raise ValueError(f"data centre {d} not declared")
            rel_configs[rid] = RelationConfig(
                rid=rid,
                arity=arity,
                co_arity=co_arity,
                hash_min=hash_min,
                hash_max=hash_max,
                ranges=ranges,
                data_centres=rel_dcs,
                nodes=nodes,
                replication=replication,
            )
        except (ValueError, IndexError) as exc:
            diags.append((lineno, f"relation {rid}: {exc}"))
    if diags:
        raise ScenarioError(diags)
    if not rel_configs:
        raise ScenarioError([(0, "at least one cluster.relation.<id> is required")])

    try:
        cfg = ClusterConfig(rel_configs, offsets, down)
    except ConfigError as exc:
        raise ScenarioError([(0, str(exc))]) from None

    read_policy = policies.get("read")
    write_policy = policies.get("write")
    if read_policy is None or write_policy is None:
        raise ScenarioError([(0, "policy.read and policy.write are required")])

    programs, homes = {}, {}
    for aid, fields in sorted(agents.items()):
        ln = next(iter(fields.values()))[0]
        if not _IDENT_RE.match(aid):
            diags.append((ln, f"agent id {aid!r} must match [a-z][a-z0-9_]*"))
            continue
        if "home" not in fields or "program" not in fields:
            diags.append((ln, f"agent {aid} needs both home and program"))
            continue
        ln, home_text = fields["home"]  # the line of the field being read
        try:
            home = read_int(home_text)
            if home not in dcs:
                raise ValueError(f"home data centre {home} not declared")
            ln, prog_text = fields["program"]
            program = _parse_program(prog_text)
        except ValueError as exc:
            diags.append((ln, f"agent {aid}: {exc}"))
            continue
        for problem in program_problems(cfg, home, program):
            diags.append((ln, f"agent {aid}: {problem}"))
        programs[aid] = program
        homes[aid] = home
    if diags:
        raise ScenarioError(diags)

    initial = FlatStore()
    for lineno, rid, value in init_lines:
        if rid not in cfg.relations:
            diags.append((lineno, f"unknown relation {rid!r}"))
            continue
        try:
            ts = _TokenStream(value)
            while not ts.done():
                k = _parse_tuple(ts)
                ts.expect_punct("->")
                v = _parse_value(ts)
                if v is UNDEF:
                    raise ValueError("initial records cannot be undef")
                check_writeset({k: v}, cfg, rid)
                if initial.get(rid, k) is not UNDEF:
                    raise ValueError(f"duplicate initial record for key {k!r}")
                initial.set(rid, k, v)
                if ts.peek() == ",":
                    ts.next()
        except (ValueError, ConfigError) as exc:
            diags.append((lineno, str(exc)))
    if diags:
        raise ScenarioError(diags)

    return Scenario(
        name=name,
        cfg=cfg,
        read_policy=read_policy,
        write_policy=write_policy,
        programs=programs,
        homes=homes,
        initial=initial,
    )


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a file path, or by bundled name (e.g. 'intro')."""
    import os

    if os.path.exists(path_or_name):
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.splitext(os.path.basename(path_or_name))[0]
        return parse_scenario(text, name=name)
    base = path_or_name[:-4] if path_or_name.endswith(".scn") else path_or_name
    try:
        text = resources.files("replisim").joinpath(f"scenarios/{base}.scn").read_text("utf-8")
    except (FileNotFoundError, ModuleNotFoundError):
        raise ScenarioError([(0, f"no such scenario file or bundled scenario: {path_or_name!r}")]) from None
    return parse_scenario(text, name=base)


def bundled_scenarios() -> tuple:
    names = []
    for entry in resources.files("replisim").joinpath("scenarios").iterdir():
        if entry.name.endswith(".scn"):
            names.append(entry.name[:-4])
    return tuple(sorted(names))
