"""Composite-equilibrium solvers for EV charging games.

The library models charging games between nonatomic individual EVs and
aggregator-run coalitions, solves their composite equilibria (closed form
for the three-slot case, exponential-learning dynamics in general),
certifies solutions through variational gaps and runs coalition-size
sweeps with monotonicity audits.
"""

from .costs import (
    AffineCost,
    CostFunction,
    CustomCost,
    ExponentialCost,
    LinearCost,
    QuadraticCost,
    cost_from_config,
    cost_to_config,
)
from .dynamics import solve_dynamics
from .errors import (
    BracketingError,
    ChargeGameError,
    DomainError,
    NumericsError,
    SpecError,
    UndefinedAverageError,
)
from .model import (
    CostSummary,
    Flow,
    GameSpec,
    Profile,
    evaluate_costs,
    player_gradients,
    strategy_costs,
)
from .sweep import (
    AuditVerdict,
    SweepPoint,
    SweepResult,
    default_grid,
    peak_start_slot,
    run_sweep,
    solve,
    sweep_rows,
)
from .threeslot import (
    CEPoint,
    Regime,
    ReducedCosts,
    ThreeSlotInstance,
    activation_threshold,
    ce_costs,
    classify,
    equilibrium_profile,
    instance_from_spec,
    mixing_band,
    solve_ce,
    with_coalition_size,
)
from .verify import (
    EquilibriumReport,
    OptimalityCheck,
    OrderingCheck,
    SolverStatus,
    TraceRow,
    WardropCheck,
    check_coalition_optimality,
    check_cost_ordering,
    check_wardrop,
    make_report,
    vi_gap,
)

__version__ = "0.1.0"

__all__ = [
    "AffineCost",
    "AuditVerdict",
    "BracketingError",
    "CEPoint",
    "ChargeGameError",
    "CostFunction",
    "CostSummary",
    "CustomCost",
    "DomainError",
    "EquilibriumReport",
    "ExponentialCost",
    "Flow",
    "GameSpec",
    "LinearCost",
    "NumericsError",
    "OptimalityCheck",
    "OrderingCheck",
    "Profile",
    "QuadraticCost",
    "ReducedCosts",
    "Regime",
    "SolverStatus",
    "SpecError",
    "SweepPoint",
    "SweepResult",
    "ThreeSlotInstance",
    "TraceRow",
    "UndefinedAverageError",
    "WardropCheck",
    "activation_threshold",
    "ce_costs",
    "check_coalition_optimality",
    "check_cost_ordering",
    "check_wardrop",
    "classify",
    "cost_from_config",
    "cost_to_config",
    "default_grid",
    "equilibrium_profile",
    "evaluate_costs",
    "instance_from_spec",
    "make_report",
    "mixing_band",
    "peak_start_slot",
    "player_gradients",
    "run_sweep",
    "solve",
    "solve_ce",
    "solve_dynamics",
    "strategy_costs",
    "sweep_rows",
    "vi_gap",
    "with_coalition_size",
]
