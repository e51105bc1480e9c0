"""Lattice geometry and phonon-front model.

Coordinates come in two flavors: lattice units (integer grid indices,
spacing ``l_mm`` apart) for holes and data qubits, and millimetres for
strike epicenters and phonon radii. A lattice point (x, y) sits at
physical position (x * l_mm, y * l_mm).

Each fact is stored once. A logical qubit is its anchor, the center of its
first hole; the second hole sits d lattice units further along x. A phonon
front is its strike (``CreEvent``) plus the ``PhysicalParams``, so the front
functions take both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

# A hole's footprint is an axis-aligned square of side d/4 lattice units.
HOLE_SIDE_FRACTION = 0.25


@dataclass(frozen=True)
class PhysicalParams:
    """Hardware and model constants shared by the solver and simulator."""

    l_mm: float                      # physical qubit lattice spacing
    d: int                           # code distance (lattice units between holes)
    v_p_mm_per_us: float             # phonon propagation speed
    delta_cycles: float              # detection latency, in lattice cycles
    t_c_us: float                    # lattice cycle time
    r_max_mm: float                  # maximum phonon radius
    move_displacement_mm: float = 1.0  # distance a fleeing qubit travels

    def __post_init__(self) -> None:
        # One comparison chain per value, so that NaN and inf fail too.
        if not 0 < self.l_mm < math.inf:
            raise ValueError(f"l_mm must be in (0, inf), got {self.l_mm}")
        # As d_max in the solver: past 2**53 consecutive d collide as floats.
        if not isinstance(self.d, int) or not 2 <= self.d <= 2 ** 53:
            raise ValueError(f"d must be an integer in [2, 2**53], got {self.d!r}")
        if not 0 <= self.v_p_mm_per_us < math.inf:
            raise ValueError("v_p_mm_per_us must be in [0, inf), "
                             f"got {self.v_p_mm_per_us}")
        if not 0 <= self.delta_cycles < math.inf:
            raise ValueError("delta_cycles must be in [0, inf), "
                             f"got {self.delta_cycles}")
        if not 0 < self.t_c_us < math.inf:
            raise ValueError(f"t_c_us must be in (0, inf), got {self.t_c_us}")
        if not 0 <= self.r_max_mm < math.inf:
            raise ValueError(f"r_max_mm must be in [0, inf), got {self.r_max_mm}")
        if not 0 <= self.move_displacement_mm < math.inf:
            raise ValueError("move_displacement_mm must be in [0, inf), "
                             f"got {self.move_displacement_mm}")

    @property
    def mm_per_cycle(self) -> float:
        """Phonon front advance per lattice cycle."""
        return self.v_p_mm_per_us * self.t_c_us

    @property
    def t_dissipate_cycles(self) -> float:
        """Cycles after a strike at which its front reaches r_max and dissipates."""
        per_cycle = self.mm_per_cycle
        return math.inf if per_cycle == 0 else self.r_max_mm / per_cycle

    def with_d(self, d: int) -> "PhysicalParams":
        return PhysicalParams(self.l_mm, d, self.v_p_mm_per_us, self.delta_cycles,
                              self.t_c_us, self.r_max_mm, self.move_displacement_mm)


@dataclass(frozen=True)
class LatticePoint:
    x: int
    y: int


@dataclass(frozen=True)
class Hole:
    """A defect in the code surface, centered on ``center``. Its footprint

    is a square of side d * HOLE_SIDE_FRACTION lattice units.
    """

    center: LatticePoint


@dataclass(frozen=True)
class LogicalQubit:
    """Two holes d lattice units apart along x, the first at ``anchor``,

    plus the operator string of d - 1 data qubits running between them.
    Qubits lie in rows, so every one is horizontal.
    """

    anchor: LatticePoint
    code_distance: int

    def __post_init__(self) -> None:
        if self.code_distance < 2:
            raise ValueError(f"code_distance must be >= 2, got {self.code_distance}")

    @property
    def holes(self) -> Tuple[Hole, Hole]:
        a = self.anchor
        return (Hole(a), Hole(LatticePoint(a.x + self.code_distance, a.y)))


@dataclass(frozen=True)
class CreEvent:
    """A cosmic-ray strike at a continuous physical position."""

    x_mm: float
    y_mm: float
    t0_cycles: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x_mm", "y_mm", "t0_cycles"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


def phonon_radius(event: CreEvent, p: PhysicalParams, t: float) -> float:
    """Front radius in mm at cycle t. Zero once the front has dissipated."""
    dt = t - event.t0_cycles
    if dt < 0:
        raise ValueError(f"t={t} precedes event time {event.t0_cycles}")
    if dt > p.t_dissipate_cycles:
        return 0.0
    return min(p.mm_per_cycle * dt, p.r_max_mm)


def string_clearance_at(x: int, y: int, d: int, event: CreEvent,
                        l_mm: float) -> float:
    """Largest epicenter clearance over the string of the distance-d qubit

    anchored at lattice point (x, y). All d - 1 string qubits lie strictly
    inside the strike's disc exactly when its radius exceeds this. The
    string is a straight row, so the distance along it has no interior
    maximum and one of the two end qubits is farthest.
    """
    ex, dy = event.x_mm, y * l_mm - event.y_mm
    return max(math.hypot((x + 1) * l_mm - ex, dy),
               math.hypot((x + d - 1) * l_mm - ex, dy))
