"""Laboratory for an anchored fixed-point iteration on CAT(0) space models:
trajectory generation, arbitrary-precision convergence rates, and empirical
verification of the geometry and the quantitative lemmas behind them."""

from .geometry import (
    AxiomReport,
    Euclidean,
    GeometryError,
    PoincareDisk,
    Point,
    SampleSpec,
    SpaceModel,
    Tripod,
    make_model,
    run_all_geometry_checks,
)
from .mappings import (
    ConstantFamily,
    IdentityFamily,
    MappingFamily,
    MetricProjectionFamily,
    ProximalFamily,
    ResolventFamily,
    RotationFamily,
    SolverFailure,
)
from .rates import (
    CapExceeded,
    Counterfunction,
    DEFAULT_BIT_CAP,
    RateError,
    RateValue,
    parse_counterfunction,
)
from .schedules import ScheduleBundle, audit_schedule, chi_T, preset
from .engine import Trajectory, run
from .scenario import ConfigError, Scenario, build_scenario, scenario_from_text

__all__ = [
    "AxiomReport",
    "CapExceeded",
    "ConfigError",
    "ConstantFamily",
    "Counterfunction",
    "DEFAULT_BIT_CAP",
    "Euclidean",
    "GeometryError",
    "IdentityFamily",
    "MappingFamily",
    "MetricProjectionFamily",
    "PoincareDisk",
    "Point",
    "ProximalFamily",
    "RateError",
    "RateValue",
    "ResolventFamily",
    "RotationFamily",
    "SampleSpec",
    "Scenario",
    "ScheduleBundle",
    "SolverFailure",
    "SpaceModel",
    "Trajectory",
    "Tripod",
    "audit_schedule",
    "build_scenario",
    "chi_T",
    "make_model",
    "parse_counterfunction",
    "preset",
    "run",
    "run_all_geometry_checks",
    "scenario_from_text",
]

__version__ = "0.1.0"
