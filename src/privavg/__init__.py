"""Exact quantized average consensus on digraphs with substate privacy.

Public surface: graph construction and generation, substate schedules,
the per-node protocol, the synchronous-round engine with its audits, the
coalition privacy analyses, and batch experiment drivers.
"""

from .engine import (
    AuditVerdict,
    SimTrace,
    TrialReport,
    audit_mass_conservation,
    run_simulation,
    theoretical_bound,
)
from .graph import (
    Digraph,
    GraphGenerationError,
    assign_edge_order,
    digraph_from_edges,
    generate_random_strongly_connected,
    is_strongly_connected,
    load_edge_list,
    max_out_degree,
)
from .privacy import (
    AmbiguityWitness,
    ObservationLog,
    PrivacyClass,
    PrivacyVerdict,
    WitnessUnavailableError,
    ambiguity_witness,
    classify_privacy,
    coalition_observations,
    reconstruct_fully_surrounded,
)
from .protocol import (
    Broadcast,
    MassTransfer,
    NodeState,
    init_node,
    step_node,
)
from .schedule import (
    NodeRole,
    ScheduleInfeasibleError,
    SubstateSchedule,
    Violation,
    decompose_initial_state,
    validate_schedule,
)
from .experiments import (
    BatchSummary,
    TrialConfig,
    emit_round_metrics,
    parse_config,
    run_batch,
    run_single_trial,
)

__all__ = [
    "AmbiguityWitness",
    "AuditVerdict",
    "BatchSummary",
    "Broadcast",
    "Digraph",
    "GraphGenerationError",
    "MassTransfer",
    "NodeRole",
    "NodeState",
    "ObservationLog",
    "PrivacyClass",
    "PrivacyVerdict",
    "ScheduleInfeasibleError",
    "SimTrace",
    "SubstateSchedule",
    "TrialConfig",
    "TrialReport",
    "Violation",
    "WitnessUnavailableError",
    "ambiguity_witness",
    "assign_edge_order",
    "audit_mass_conservation",
    "classify_privacy",
    "coalition_observations",
    "decompose_initial_state",
    "digraph_from_edges",
    "emit_round_metrics",
    "generate_random_strongly_connected",
    "init_node",
    "is_strongly_connected",
    "load_edge_list",
    "max_out_degree",
    "parse_config",
    "reconstruct_fully_surrounded",
    "run_batch",
    "run_simulation",
    "run_single_trial",
    "step_node",
    "theoretical_bound",
    "validate_schedule",
]

__version__ = "0.1.0"
