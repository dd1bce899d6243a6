"""Generated desk-scale scenarios shared by the property and acceptance
suites: at most 3 agents, at most 4 requests, 2 data centres, 2 copies of
every fragment (one per data centre, except where noted), plus a capped
breadth-first walk over the states of a scenario."""

from collections import deque

from replisim import Simulation, load_scenario, parse_scenario
from replisim.scenario import bundled_scenarios

_HEADER = """\
cluster.datacentres = 2
"""

_REL = """\
cluster.relation.{rid}.arity = 1
cluster.relation.{rid}.coarity = 1
cluster.relation.{rid}.hash = 0 255
cluster.relation.{rid}.fragments = {fragments}
cluster.relation.{rid}.datacentres = 1 2
cluster.relation.{rid}.nodes = {nodes}
cluster.relation.{rid}.replication = {replication}
"""


def build(name, agents, **layout):
    """agents: iterable of (agent_id, home_dc, program_text); ``layout`` as
    ``scenario_text`` takes it."""
    return parse_scenario(scenario_text(agents, **layout), name=name)


def scenario_text(agents, relations=("x",), init=("x", "(0) -> (0)"), fragments=1,
                  nodes=1, replication=1, read="ONE", write="ALL"):
    """The text ``build`` parses."""
    parts = [_HEADER]
    for rid in relations:
        parts.append(_REL.format(rid=rid, fragments=fragments, nodes=nodes, replication=replication))
    parts.append(f"policy.read = {read}\npolicy.write = {write}\n")
    for aid, home, program in agents:
        parts.append(f"agent.{aid}.home = {home}\nagent.{aid}.program = {program}\n")
    if init is not None:
        rid, records = init
        parts.append(f"init.{rid} = {records}\n")
    return "".join(parts)


def generated_scenarios(make=build):
    """At least 20 scenarios, each ``make(name, agents, **layout)``: by
    default a ``Scenario`` with placeholder policies that callers override
    per policy combination."""
    out = []

    def add(name, agents, **kw):
        out.append(make(name, agents, **kw))

    # write racing a double read, from both sides of the cluster
    add("w_rr", [("a1", 1, "write x {(0) -> (1)}"), ("a2", 2, "read x key=(0); read x key=(0)")])
    add("w_rr_same_home", [("a1", 1, "write x {(0) -> (1)}"), ("a2", 1, "read x key=(0); read x key=(0)")])
    add("w_rr_home_swap", [("a1", 2, "write x {(0) -> (1)}"), ("a2", 1, "read x key=(0); read x key=(0)")])

    # consecutive writes against one reader
    add("ww_r", [("a1", 1, "write x {(0) -> (1)}; write x {(0) -> (2)}"), ("a2", 2, "read x key=(0)")])
    add("ww_r_two_keys", [("a1", 1, "write x {(0) -> (1)}; write x {(1) -> (2)}"), ("a2", 2, "read x true")])

    # two writers, one reader
    add("w_w_r", [("a1", 1, "write x {(0) -> (1)}"), ("a2", 2, "write x {(0) -> (2)}"), ("a3", 1, "read x key=(0)")])
    add("w_w_r_rev", [("a1", 2, "write x {(0) -> (1)}"), ("a2", 1, "write x {(0) -> (2)}"), ("a3", 2, "read x key=(0)")])

    # two relations, inverted read order
    add(
        "wxy_rr",
        [("a1", 1, "write x {(0) -> (1)}; write y {(0) -> (1)}"), ("a2", 2, "read y key=(0); read x key=(0)")],
        relations=("x", "y"),
        init=None,
    )
    add(
        "w_w_rr_two_rel",
        [("a1", 1, "write x {(0) -> (1)}"), ("a2", 2, "write y {(0) -> (1)}"), ("a3", 1, "read x key=(0); read y key=(0)")],
        relations=("x", "y"),
        init=None,
    )

    # deletions (tombstones must mask the initial record)
    add("del_rr", [("a1", 1, "write x {(0) -> undef}"), ("a2", 2, "read x key=(0); read x key=(0)")])
    add("del_then_write", [("a1", 1, "write x {(0) -> undef}; write x {(0) -> (5)}"), ("a2", 2, "read x key=(0)")])

    # reader that then writes
    add("rw_w", [("a1", 1, "read x key=(0); write x {(0) -> (1)}"), ("a2", 2, "write x {(0) -> (2)}")])

    # pure readers
    add("r_r", [("a1", 1, "read x key=(0)"), ("a2", 2, "read x true")])

    # one writer, two readers with different homes
    add("w_r_r", [("a1", 1, "write x {(0) -> (1)}"), ("a2", 2, "read x key=(0)"), ("a3", 1, "read x key=(0)")])

    # bulk write observed through key_in and hash_range conditions
    add(
        "bulk_keyin",
        [("a1", 1, "write x {(0) -> (1), (1) -> (2)}"), ("a2", 2, "read x key_in{(0) (1)}; read x key_in{(0) (1)}")],
    )
    add(
        "bulk_hashrange",
        [("a1", 1, "write x {(0) -> (1), (1) -> (2)}"), ("a2", 2, "read x hash_range=1; read x hash_range=2")],
        fragments=2,
    )

    # two fragments, keys (0,) and (1,) land in different ranges
    add(
        "frag2",
        [("a1", 1, "write x {(0) -> (1), (1) -> (2)}"), ("a2", 2, "read x true; read x true")],
        fragments=2,
        init=("x", "(0) -> (0), (1) -> (0)"),
    )

    # no initial data: reads may legitimately return nothing
    add("empty_init", [("a1", 1, "write x {(0) -> (1)}"), ("a2", 2, "read x key=(0); read x key=(0)")], init=None)

    # four copies per fragment (two per data centre)
    add("fat_replicas", [("a1", 1, "write x {(0) -> (1)}"), ("a2", 2, "read x key=(0)")], nodes=2, replication=2)

    # text atoms
    add(
        "text_keys",
        [("a1", 1, 'write x {("k") -> ("v2")}'), ("a2", 2, 'read x key=("k"); read x true')],
        init=("x", '("k") -> ("v1")'),
    )

    # reader first, writer later, reader again from the other side
    add("r_w_r", [("a1", 1, "read x key=(0); read x key=(0)"), ("a2", 2, "write x {(0) -> (3)}")])

    # maximal shape: 2 + 2 requests across two agents
    add("ww_rr", [("a1", 1, "write x {(0) -> (1)}; write x {(0) -> (2)}"), ("a2", 2, "read x key=(0); read x key=(0)")])

    return out


SCENARIOS = generated_scenarios() + [load_scenario(name) for name in bundled_scenarios()]


def walk(scenario, model, limit=None, key=Simulation.state_key):
    """Walk up to ``limit`` distinct states (by ``key``), every enabled
    move expanded, and yield each state with its list of (move, child)
    pairs.  A capped walk goes breadth first, so it keeps the states
    nearest the root; with ``limit=None`` it walks every state depth
    first, which holds fewer of them at once.  The walk goes on from the
    children once the caller is done with them, so callers must not
    change them."""
    root = Simulation(scenario, model)
    seen = {key(root)}
    queue = deque([root])
    while queue:
        sim = queue.popleft() if limit is not None else queue.pop()
        children = []
        for move in sim.enumerate_moves(with_selections=True):
            child = sim.clone()
            child.apply_round([move])
            children.append((move, child))
        yield sim, children
        for _, child in children:
            if (limit is None or len(seen) < limit) and (k := key(child)) not in seen:
                seen.add(k)
                queue.append(child)
