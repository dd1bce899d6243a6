"""Scenario files: cluster layout, policies, client programs, initial data.

The format is line-oriented ``section.key = value`` text; see the grammar in
the package README.  Parsing is strict and diagnostics carry line numbers.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import NamedTuple, Optional

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


CM1_COPIES = 16  # copies of a fragment whose 2^n - 1 subsets cm1 validation may judge


class ScenarioError(Exception):
    """Scenario rejected; ``diagnostics`` is a list of (line, message)."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in self.diagnostics))


class ClientStep(NamedTuple):
    kind: str  # "read" | "write"
    rid: str
    cond: Optional[Condition] = None
    pairs: tuple = ()  # sorted ((key, value), ...) for writes
    print_answer: bool = False


class Scenario(NamedTuple):
    name: str
    cfg: ClusterConfig
    read_policy: Policy
    write_policy: Policy
    programs: dict  # agent -> (ClientStep, ...)
    homes: dict  # agent -> dc
    initial: FlatStore

    def with_policies(self, read: Policy, write: Policy) -> "Scenario":
        return self._replace(read_policy=read, write_policy=write)

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
                    if model == "cm1" and len(self.cfg.candidates(rid, j)) > CM1_COPIES:
                        problems.append((0, f"{rid} fragment {j} has more than {CM1_COPIES} copies; "
                                            "cm1 judges every subset of them"))
                        break
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


def _read_pairs(text: str) -> tuple:
    """Whitespace-separated ``a:b`` pairs of integers."""
    return tuple(read_ints(part, ":", 2) for part in text.split())


def _read_offsets(text: str) -> dict:
    offsets = {}
    for d, rank in _read_pairs(text):
        if d in offsets:
            raise ValueError(f"data centre {d} has two offset ranks")
        offsets[d] = rank
    return offsets


def _read_data_centre_count(text: str) -> int:
    count = read_int(text)
    if count < 1:
        raise ValueError("cluster.datacentres must be >= 1")
    return count


def _read_data_centres(text: str) -> tuple:
    dcs = read_ints(text)
    if len(set(dcs)) != len(dcs):
        raise ValueError("a data centre is listed twice")
    return tuple(sorted(dcs))


def _parse_records(text: str) -> tuple:
    """An ``init`` line's ``(key) -> (value)`` records, commas optional."""
    ts = _TokenStream(text)
    records = []
    while not ts.done():
        k = _parse_tuple(ts)
        ts.expect_punct("->")
        v = _parse_value(ts)
        if v is UNDEF:
            raise ValueError("initial records cannot be undef")
        records.append((k, v))
        if ts.peek() == ",":
            ts.next()
    return tuple(records)


# The reader of each field, by section.
_CLUSTER_FIELDS = {"datacentres": _read_data_centre_count, "offsets": _read_offsets, "down": _read_pairs}
_RELATION_FIELDS = {
    "arity": read_int,
    "coarity": read_int,
    "hash": lambda text: read_ints(text, count=2),
    "fragments": read_int,
    "ranges": _read_pairs,
    "datacentres": _read_data_centres,
    "nodes": read_int,
    "replication": read_int,
}
_RELATION_DEFAULTS = {
    "arity": 1, "coarity": 1, "hash": (0, 255), "fragments": 1, "nodes": 1, "replication": 1,
}  # and every declared data centre
_AGENT_FIELDS = {"home": read_int, "program": _parse_program}


def _field(path: tuple, values: dict) -> tuple:
    """Where the value assigned to ``path`` goes: (the dict of its owner's
    fields, its field, its reader, the prefix of its diagnostics)."""
    section, rest = path[0], path[1:]
    if section == "cluster" and len(rest) == 3 and rest[0] == "relation":
        _, rid, field = rest
        if not _IDENT_RE.match(rid):
            raise ValueError(f"relation id {rid!r} must match [a-z][a-z0-9_]*")
        if field not in _RELATION_FIELDS:
            raise ValueError(f"relation {rid}: unknown field {field!r}")
        return values["relations"].setdefault(rid, {}), field, _RELATION_FIELDS[field], f"relation {rid}: "
    if section == "cluster":
        if len(rest) != 1 or rest[0] not in _CLUSTER_FIELDS:
            raise ValueError(f"unknown cluster key {'.'.join(rest)}")
        return values["cluster"], rest[0], _CLUSTER_FIELDS[rest[0]], ""
    if section == "policy":
        if rest not in (("read",), ("write",)):
            raise ValueError("policy key must be policy.read or policy.write")
        return values["policies"], rest[0], parse_policy, ""
    if section == "agent":
        if len(rest) != 2 or rest[1] not in _AGENT_FIELDS:
            raise ValueError("agent keys are agent.<id>.home and agent.<id>.program")
        return values["agents"].setdefault(rest[0], {}), rest[1], _AGENT_FIELDS[rest[1]], f"agent {rest[0]}: "
    raise ValueError(f"unknown section {section!r}")


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    diags = []
    lines = {}  # key path -> the line that assigns it
    values = {"cluster": {}, "relations": {}, "policies": {}, "agents": {}}
    init = []  # (line, relation, records)
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
        if path[0] != "init" and path in lines:
            diags.append((lineno, f"duplicate key {'.'.join(path)}"))
            continue
        lines[path] = lineno
        prefix = ""
        try:
            if path[0] == "init":
                if len(path) != 2:
                    raise ValueError("init keys look like init.<relation>")
                init.append((lineno, path[1], _parse_records(value)))
            else:
                fields, field, read, prefix = _field(path, values)
                fields[field] = read(value.strip())
        except (ValueError, ConfigError) as exc:
            diags.append((lineno, prefix + str(exc)))
    if diags:
        raise ScenarioError(diags)
    cluster, agents = values["cluster"], values["agents"]

    if "datacentres" not in cluster:
        raise ScenarioError([(0, "cluster.datacentres is required")])
    dcs = tuple(range(1, cluster["datacentres"] + 1))
    offsets = cluster.get("offsets") or {d: d for d in dcs}
    if sorted(offsets) != list(dcs):
        raise ScenarioError([(0, "cluster.offsets must cover exactly the declared data centres")])

    rel_configs = {}
    for rid, given in sorted(values["relations"].items()):
        fields = {**_RELATION_DEFAULTS, "datacentres": dcs, **given}
        line_of = {f: lines[("cluster", "relation", rid, f)] for f in given}
        hash_min, hash_max = fields["hash"]
        q, span = fields["fragments"], hash_max - hash_min + 1
        if "ranges" in given:
            ranges = given["ranges"]
            if "fragments" in given:
                diags.append((line_of["fragments"], f"relation {rid}: give fragments or ranges, not both"))
        elif 1 <= q <= span:
            width, extra = divmod(span, q)
            starts = [hash_min + j * width + min(j, extra) for j in range(q + 1)]
            ranges = tuple((lo, hi - 1) for lo, hi in zip(starts, starts[1:]))
        else:
            diags.append((line_of.get("fragments", line_of.get("hash")), f"relation {rid}: fragments out of range"))
            continue
        undeclared = [d for d in fields["datacentres"] if d not in dcs]
        if undeclared:
            diags.append((line_of["datacentres"], f"relation {rid}: data centre {undeclared[0]} not declared"))
            continue
        rel_configs[rid] = RelationConfig(
            rid=rid,
            arity=fields["arity"],
            co_arity=fields["coarity"],
            hash_min=hash_min,
            hash_max=hash_max,
            ranges=ranges,
            data_centres=fields["datacentres"],
            nodes=fields["nodes"],
            replication=fields["replication"],
        )
    if diags:
        raise ScenarioError(diags)
    if not rel_configs:
        raise ScenarioError([(0, "at least one cluster.relation.<id> is required")])

    try:
        cfg = ClusterConfig(rel_configs, offsets, cluster.get("down", ()))
    except ConfigError as exc:  # a relation check names the field at fault
        raise ScenarioError([(lines.get(("cluster", "relation", *exc.field), 0), str(exc))]) from None
    for d, n in cluster.get("down", ()):
        if not any(d in rel.data_centres and 1 <= n <= rel.nodes for rel in rel_configs.values()):
            diags.append((lines[("cluster", "down")], f"down pair {d}:{n} names no node of the cluster"))
    if diags:
        raise ScenarioError(diags)

    read_policy = values["policies"].get("read")
    write_policy = values["policies"].get("write")
    if read_policy is None or write_policy is None:
        raise ScenarioError([(0, "policy.read and policy.write are required")])

    programs, homes = {}, {}
    for aid, fields in sorted(agents.items()):
        line_of = {f: lines[("agent", aid, f)] for f in fields}
        if not _IDENT_RE.match(aid):
            diags.append((min(line_of.values()), f"agent id {aid!r} must match [a-z][a-z0-9_]*"))
        elif len(fields) < 2:
            diags.append((min(line_of.values()), f"agent {aid} needs both home and program"))
        elif fields["home"] not in dcs:
            diags.append((line_of["home"], f"agent {aid}: home data centre {fields['home']} not declared"))
        else:
            homes[aid], programs[aid] = fields["home"], fields["program"]
            for problem in program_problems(cfg, homes[aid], programs[aid]):
                diags.append((line_of["program"], f"agent {aid}: {problem}"))
    if diags:
        raise ScenarioError(diags)

    initial = FlatStore()
    for lineno, rid, records in init:
        try:
            check_writeset(dict(records), cfg, rid)
            for k, v in records:
                if initial.get(rid, k) is not UNDEF:
                    raise ValueError(f"duplicate initial record for key {k!r}")
                initial.set(rid, k, v)
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
