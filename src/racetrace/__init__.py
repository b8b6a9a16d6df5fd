"""Race analysis for message-passing programs with selective receives.

The package models executions of actor programs as interleavings and
traces, computes happened-before causality and message races, derives race
variants that steer a replayed execution into new behavior, and explores a
program's reachable trace space from a single random run.
"""

from types import ModuleType as _ModuleType

from .terms import (
    Atom,
    Clause,
    Constraint,
    GAnd,
    GOr,
    GTrue,
    Cmp,
    Int,
    Lst,
    PidLit,
    TagLit,
    Tup,
    Var,
    Wildcard,
    eval_guard,
    match,
    match_pattern,
    matching_clause,
    render_clause,
    render_constraint,
    render_guard,
    render_term,
)
from .parsing import ParseError, name_sort_key
from .traces import (
    Event,
    Interleaving,
    Rec,
    Send,
    Spawn,
    Trace,
    Violation,
    actions,
    in_sched,
    is_subtrace,
    parse_interleaving,
    parse_trace,
    serialize_interleaving,
    serialize_trace,
    tr,
    validate_interleaving,
    validate_trace,
)
from .causality import (
    EventId,
    HbGraph,
    SwapBudgetExhausted,
    causally_equivalent,
    enumerate_linearizations,
    hb_graph,
    independent,
    linearize,
    swap_equiv_oracle,
)
from .races import (
    CandidateCheck,
    RaceReport,
    Variant,
    all_races,
    declarative_race_oracle,
    orphans,
    race_set,
    variant,
)
from .simulator import (
    DivergenceError,
    Outcome,
    Program,
    ProgramError,
    SimulationError,
    enabled,
    enumerate_executions,
    initial_state,
    parse_program,
    replay_prefix,
    run_deterministic,
    run_random,
    serialize_program,
    step,
)
from .explorer import ExplorationReport, Origin, distinctness_check, explore

# everything imported above, without the submodules the imports bind
__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
