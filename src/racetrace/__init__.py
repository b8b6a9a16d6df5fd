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
    GChain,
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
    render_clause,
    render_guard,
    render_term,
)
from .parsing import ParseError, name_sort_key
from .traces import (
    Event,
    EventId,
    Interleaving,
    Rec,
    Send,
    Spawn,
    Trace,
    Violation,
    linearize,
    parse_interleaving,
    parse_trace,
    serialize_interleaving,
    serialize_trace,
    tr,
    validate_interleaving,
    validate_trace,
)
from .causality import HbGraph, causally_equivalent, hb_graph
from .races import (
    CandidateCheck,
    RaceReport,
    all_races,
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
    initial_state,
    parse_program,
    replay_prefix,
    run_deterministic,
    run_random,
    serialize_program,
    step,
)
from .explorer import ExplorationReport, ExploredTrace, Origin, distinctness_check, explore
from .oracles import (
    SwapBudgetExhausted,
    declarative_race_oracle,
    enumerate_executions,
    enumerate_linearizations,
    is_subtrace,
    swap_equiv_oracle,
)

# the public names imported above, less the submodules the imports bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
