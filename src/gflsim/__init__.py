"""Fuzzy-logic handoff management for heterogeneous wireless networks.

The package couples a Mamdani inference engine (velocity, boundary
distance, and free channels in; a crisp handoff signal out) with a
discrete-time mobility and channel simulator, and evolves the rule-grid
consequents online with a genetic algorithm that replays recent history.
"""

from .evolver import (
    EmptyHistoryError,
    EvolverConfig,
    ReplayFitness,
    RuleEvolver,
    evolve,
    init_population,
    mutate_random_reset,
    one_point_crossover,
    tournament_select,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    FuzzyConfig,
    RunMetrics,
    RunResult,
    compare,
    default_config,
    export_events,
    export_report,
    load_config,
    load_events,
    load_report,
    run,
)
from .fuzzy import (
    DEFAULT_CONSEQUENTS,
    FuzzyDefinitionError,
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    NoActivationError,
    default_system,
    trapezoid,
    triangle,
)
from .policies import HandoffPolicy, PolicyKind, derive_flah_consequents, make_policy
from .world import (
    DomainError,
    Event,
    EventLog,
    MobileTerminal,
    State,
    StationSpec,
    TerminalSpec,
    World,
    WorldConfig,
    acceleration_for,
    accelerated_state,
)

__version__ = "0.1.0"
