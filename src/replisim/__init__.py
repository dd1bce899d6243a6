"""replisim: a deterministic simulator for a replicated shared-memory
subsystem at three refinement levels, with trace checkers for view
compatibility and view serialisability.

Model levels:

- ``cm0``: one memory agent, every request atomic on a single flat store.
- ``cm1``: one agent per data centre, each request handled in one atomic
  step over a policy-compliant replica selection.
- ``cm2``: message-passing handling; the home data centre forwards the
  request, a per-request delegate collects partial answers until the
  policy's sufficiency predicate holds.
"""

from .cm0 import Condition, db_answer_read, db_perform_write
from .consistency import (
    COMPATIBLE,
    INCOMPATIBLE,
    NOT_SERIALISABLE,
    SERIALISABLE,
    Verdict,
    check_view_compatible,
    check_view_serialisable,
    is_serial,
    view_equivalent,
)
from .core import (
    NEG_INF,
    UNDEF,
    ClusterConfig,
    ConfigError,
    FlatStore,
    RelationConfig,
    ReplicaStore,
    Timestamp,
    hash_fragment,
    seed_replicas,
)
from .policies import (
    ALL,
    ONE,
    THREE,
    TWO,
    CountState,
    Policy,
    complies,
    each_quorum,
    enumerate_compliant_selections,
    is_appropriate,
    local_one,
    local_quorum,
    parse_policy,
    quorum,
    sufficient,
)
from .predicates import BUILTIN_PREDICATES, anomaly_read_stale, load_predicate, print_pair
from .scenario import ClientStep, Scenario, ScenarioError, load_scenario, parse_scenario
from .sim import (
    ExplicitSchedule,
    RunDiscarded,
    RunResult,
    ScheduleError,
    SearchResult,
    SeededSchedule,
    SimInvariantError,
    Simulation,
    count_traces,
    enumerate_traces,
    run,
    search_schedules,
)
from .trace import Trace, TraceEvent

__version__ = "0.1.0"
