"""Decentralized solver and Monte Carlo verifier for linear-quadratic
leader/follower mean-field games (competitive followers) and teams
(cooperative followers), exact for any finite follower count."""

__version__ = "0.1.0"

from .model import (
    Mode,
    Scenario,
    ScenarioError,
    TimeGrid,
    load_scenario,
    load_scenario_file,
    scenario_to_text,
    validate,
)
from .integrators import BlowUpError, GridFunction, StageTable, expm
from .follower import FollowerGains, follower_gains, solve_follower_gains
from .leader import ExtendedSystem, LeaderGains, assemble_extended, leader_gains, solve_leader_gains
from .simulation import Deviations, EnsembleResult, NoiseModel, estimate_costs, simulate
from .equilibrium import (
    VerificationReport,
    deviation_battery,
    dp_gain_oracle,
    run_verification,
    stationarity_residuals,
)

__all__ = [
    "Mode",
    "Scenario",
    "ScenarioError",
    "TimeGrid",
    "load_scenario",
    "load_scenario_file",
    "scenario_to_text",
    "validate",
    "BlowUpError",
    "GridFunction",
    "StageTable",
    "expm",
    "FollowerGains",
    "follower_gains",
    "solve_follower_gains",
    "ExtendedSystem",
    "LeaderGains",
    "assemble_extended",
    "leader_gains",
    "solve_leader_gains",
    "Deviations",
    "EnsembleResult",
    "NoiseModel",
    "estimate_costs",
    "simulate",
    "VerificationReport",
    "deviation_battery",
    "dp_gain_oracle",
    "run_verification",
    "stationarity_residuals",
    "__version__",
]
