"""Rating-based incentive design for mutual security investment.

Interconnected networks underinvest in outbound traffic control because
the benefit of filtering accrues to the receivers.  This package computes
rating-system designs (assessment period plus rating-contingent prices)
under which deployment is self-enforcing, searches for the best set of
networks to enlist, and validates designs with a seeded repeated-game
simulator.
"""

from .design import (
    AssumptionCheck,
    AssumptionReport,
    DesignResult,
    Environment,
    IcRegion,
    MonitoringModel,
    NotIncentiveCompatibleError,
    PeriodInterval,
    RatingDesign,
    efficiency_loss_factor,
    fds_sufficient,
    feasible_period_interval,
    first_best,
    ic_check,
    ic_region_beta_max,
    minimize_loss_factor,
    optimal_design,
    security_cost,
    validate_assumptions,
)
from .network import (
    Subset,
    TrafficAggregates,
    TrafficMatrix,
    aggregates,
    critical_members,
    critical_traffic,
    has_mct,
    inbound_within,
    load_edge_csv,
    load_matrix_csv,
)
from .sim import (
    Behavior,
    BehaviorProfile,
    ComparisonRow,
    DeviationGain,
    SimReport,
    SimState,
    deviation_gain,
    run_benchmark,
    run_strategy_comparison,
    simulate,
)
from .strategy import (
    IdIteration,
    IdTrace,
    StrategyResult,
    ThresholdResult,
    ThresholdRow,
    brute_force_optimal,
    core_periphery_threshold,
    iterative_deletion,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionCheck",
    "AssumptionReport",
    "Behavior",
    "BehaviorProfile",
    "ComparisonRow",
    "DesignResult",
    "DeviationGain",
    "Environment",
    "IcRegion",
    "IdIteration",
    "IdTrace",
    "MonitoringModel",
    "NotIncentiveCompatibleError",
    "PeriodInterval",
    "RatingDesign",
    "SimReport",
    "SimState",
    "StrategyResult",
    "Subset",
    "ThresholdResult",
    "ThresholdRow",
    "TrafficAggregates",
    "TrafficMatrix",
    "aggregates",
    "brute_force_optimal",
    "core_periphery_threshold",
    "critical_members",
    "critical_traffic",
    "deviation_gain",
    "efficiency_loss_factor",
    "fds_sufficient",
    "feasible_period_interval",
    "first_best",
    "has_mct",
    "ic_check",
    "ic_region_beta_max",
    "inbound_within",
    "iterative_deletion",
    "load_edge_csv",
    "load_matrix_csv",
    "minimize_loss_factor",
    "optimal_design",
    "run_benchmark",
    "run_strategy_comparison",
    "security_cost",
    "simulate",
    "validate_assumptions",
]
