"""Beam-sweeping / data-communication cycle design for mobile mm-wave links.

A roadside base station tracks a user moving along a road with bounded but
unknown speed. Between sweeps its uncertainty about the user's position
grows linearly; when the uncertainty width reaches a trigger value the BS
sweeps it with a short burst of widening probe beams, then communicates
over a narrow beam that widens with the uncertainty until the next sweep.

The package provides the sweep-schedule geometry, closed-form cycle
average rate/power under water-filling, the dimensionless design space and
its constrained rate maximization, a fixed-beamwidth comparison scheme,
and independent verification by exact reachable sets of the sweep,
numerical quadrature and an optimality certificate for water-filling.
"""

from .baseline import BaselineConfig, comm_fraction, power_for_avg, rate_and_power
from .optimize import (
    OptimalDesign,
    best_upsilon,
    max_beams,
    max_upsilon,
    optimize_design,
    rate_slope,
    tight_zeta,
)
from .params import SystemParams, snr_gamma
from .performance import (
    avg_power_closed,
    avg_rate_closed,
    denormalize,
    norm_comm_width,
    norm_power,
    norm_power_budget,
    norm_rate,
)
from .sweep import (
    FeasibilityError,
    SweepSchedule,
    build_schedule,
    comm_width,
    cycle_duration,
    min_u_th,
    min_upsilon,
    validate_small_angle,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig",
    "CheckResult",
    "FeasibilityError",
    "OptimalDesign",
    "SweepSchedule",
    "SystemParams",
    "avg_power_closed",
    "avg_rate_closed",
    "best_upsilon",
    "build_schedule",
    "comm_fraction",
    "comm_width",
    "coverage_suite",
    "cycle_duration",
    "denormalize",
    "jensen_check",
    "max_beams",
    "max_upsilon",
    "min_u_th",
    "min_upsilon",
    "norm_comm_width",
    "norm_power",
    "norm_power_budget",
    "norm_rate",
    "optimize_design",
    "power_for_avg",
    "quadrature_suite",
    "rate_and_power",
    "rate_slope",
    "run_all",
    "slope_sign_suite",
    "snr_gamma",
    "tight_zeta",
    "validate_small_angle",
]


def __getattr__(name: str):
    # The verification suites need numpy and the design path does not, so
    # ``validation`` is imported on first use: every name in __all__ not
    # bound above comes from it.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import validation

    return getattr(validation, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
