"""Deterministic collective-reasoning engine and scenario simulator.

Groups of heterogeneous agents are partially ordered by feature quality
into a dominance lattice; they form noisy boolean beliefs about their
environment and aggregate them under configurable propagation rules
(most-expert, majority, expert sub-groups). The simulator measures which
rules improve collective reliability, reproducibly: one seed determines
every observation.
"""

from .beliefs import (
    Belief,
    BeliefProfile,
    ErrorModel,
    ErrorModelKind,
    GroundTruthSchedule,
    Proposition,
    RandomStream,
    Topology,
    TopologyMode,
    observe,
    visible_profile,
)
from .errors import (
    ConfigurationError,
    OracleDomainError,
    UnknownAgentError,
    ValidationError,
)
from .features import (
    Comparison,
    Direction,
    Feature,
    FeatureSchema,
    FeatureVector,
    better_or_equal,
    compare,
    dominates,
    join,
    meet,
)
from .lattice import BOTTOM_ID, TOP_ID, AgentNode, DominanceLattice, build
from .oracle import exact_rule_accuracy
from .rules import (
    MAJORITY,
    MOST_EXPERT,
    ConsistencyReport,
    PropagationResult,
    ReceiverOutcome,
    Rule,
    RuleKind,
    apply_majority,
    apply_most_expert,
    apply_rule,
    apply_subgroup_expert,
    check_consistency,
    parse_rule,
)
from .scenario_io import load_scenario, parse_scenario, save_scenario, scenario_to_dict
from .simulator import (
    DriftEvent,
    Metrics,
    Scenario,
    Trace,
    TraceRecord,
    build_intersection_scenario,
    check_determinism,
    compute_metrics,
    lattices_by_step,
    run,
    trace_from_jsonl,
    trace_to_jsonl,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AgentNode",
    "BOTTOM_ID",
    "Belief",
    "BeliefProfile",
    "Comparison",
    "ConfigurationError",
    "ConsistencyReport",
    "Direction",
    "DominanceLattice",
    "DriftEvent",
    "ErrorModel",
    "ErrorModelKind",
    "Feature",
    "FeatureSchema",
    "FeatureVector",
    "GroundTruthSchedule",
    "MAJORITY",
    "MOST_EXPERT",
    "Metrics",
    "OracleDomainError",
    "PropagationResult",
    "Proposition",
    "RandomStream",
    "ReceiverOutcome",
    "Rule",
    "RuleKind",
    "Scenario",
    "TOP_ID",
    "Topology",
    "TopologyMode",
    "Trace",
    "TraceRecord",
    "UnknownAgentError",
    "ValidationError",
    "apply_majority",
    "apply_most_expert",
    "apply_rule",
    "apply_subgroup_expert",
    "better_or_equal",
    "build",
    "build_intersection_scenario",
    "check_consistency",
    "check_determinism",
    "compare",
    "compute_metrics",
    "dominates",
    "exact_rule_accuracy",
    "join",
    "lattices_by_step",
    "load_scenario",
    "meet",
    "observe",
    "parse_rule",
    "parse_scenario",
    "run",
    "save_scenario",
    "scenario_to_dict",
    "trace_from_jsonl",
    "trace_to_jsonl",
    "validate_scenario",
    "visible_profile",
]
