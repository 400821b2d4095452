"""Proportionally fair power/time scheduling for an energy-harvesting downlink."""

from .model import (
    Instance,
    Schedule,
    ScoreReport,
    Violation,
    check_feasibility,
    improvement_pct,
    rate_matrix,
    score,
)
from .structure import sort_schedule_nondecreasing, virtual_harvests
from .convex import (
    BcdTrace,
    KktResidual,
    NonconvergenceError,
    SolverConfig,
    bcd,
    kkt_residual_power,
    kkt_residual_time,
    power_utility_gradient,
    solve_power,
    solve_time,
)
from .heuristics import (
    pronto,
    ptf,
    sg_tdma,
    user_priority,
)
from .oracle2x2 import optimal_2x2

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "Schedule",
    "ScoreReport",
    "Violation",
    "check_feasibility",
    "improvement_pct",
    "rate_matrix",
    "score",
    "sort_schedule_nondecreasing",
    "virtual_harvests",
    "BcdTrace",
    "KktResidual",
    "NonconvergenceError",
    "SolverConfig",
    "bcd",
    "kkt_residual_power",
    "kkt_residual_time",
    "power_utility_gradient",
    "solve_power",
    "solve_time",
    "pronto",
    "ptf",
    "sg_tdma",
    "user_priority",
    "optimal_2x2",
    "__version__",
]
