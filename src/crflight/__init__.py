"""Cosmic-ray strike modeling on a two-hole surface-code lattice:

phonon-front geometry, flee feasibility solving, continuous-time flight
simulation, and failure-probability estimation.
"""

from .model import (CreEvent, Hole, LatticePoint, LogicalQubit, PhysicalParams,
                    phonon_radius, string_clearance_mm, string_overwhelmed)
from .solver import (AT_HOLE, HALFWAY, StrikeScenario, SweepResult, SweepRow,
                     check_condition1, check_condition2, check_feasibility,
                     min_code_distance, sweep)
from .mapping import Mapping, build_mapping
from .simulate import (MovePlan, MoveStep, SimOutcome, UnescapableError,
                       detect, displacement_plan, is_safe_position,
                       plan_flight, simulate)
from .reliability import (ReliabilityParams, failure_probability,
                          monte_carlo_failure, p_few_hits)

__version__ = "0.1.0"

__all__ = [
    "AT_HOLE", "HALFWAY", "CreEvent", "Hole", "LatticePoint", "LogicalQubit",
    "Mapping", "MovePlan", "MoveStep", "PhysicalParams", "ReliabilityParams",
    "SimOutcome", "StrikeScenario", "SweepResult", "SweepRow",
    "UnescapableError", "build_mapping", "check_condition1",
    "check_condition2", "check_feasibility", "detect", "displacement_plan",
    "failure_probability", "is_safe_position", "min_code_distance",
    "monte_carlo_failure", "p_few_hits", "phonon_radius", "plan_flight",
    "simulate", "string_clearance_mm", "string_overwhelmed", "sweep",
]
