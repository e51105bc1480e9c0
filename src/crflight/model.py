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
from dataclasses import dataclass, replace
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
        if not isinstance(self.d, int) or self.d < 2:
            raise ValueError(f"d must be an integer >= 2, got {self.d!r}")
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
        return replace(self, d=d)


@dataclass(frozen=True)
class LatticePoint:
    x: int
    y: int

    def physical(self, l_mm: float) -> Tuple[float, float]:
        return (self.x * l_mm, self.y * l_mm)

    def translated(self, dx: int, dy: int) -> "LatticePoint":
        return LatticePoint(self.x + dx, self.y + dy)


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

    def all_points(self) -> Tuple[LatticePoint, ...]:
        """Both hole centers and the string between them, in x order."""
        a = self.anchor
        return tuple(LatticePoint(a.x + k, a.y)
                     for k in range(self.code_distance + 1))

    def translated(self, dx: int, dy: int) -> "LogicalQubit":
        return LogicalQubit(self.anchor.translated(dx, dy), self.code_distance)


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

    def distance_mm(self, point_mm: Tuple[float, float]) -> float:
        return math.hypot(point_mm[0] - self.x_mm, point_mm[1] - self.y_mm)


def phonon_radius(event: CreEvent, p: PhysicalParams, t: float) -> float:
    """Front radius in mm at cycle t. Zero once the front has dissipated."""
    dt = t - event.t0_cycles
    if dt < 0:
        raise ValueError(f"t={t} precedes event time {event.t0_cycles}")
    if dt > p.t_dissipate_cycles:
        return 0.0
    return min(p.mm_per_cycle * dt, p.r_max_mm)


def string_clearance_mm(q: LogicalQubit, event: CreEvent,
                        l_mm: float) -> float:
    """Largest epicenter clearance over the string. All d - 1 string

    qubits lie strictly inside the strike's disc exactly when its radius
    exceeds this. The string is a straight row, so the distance along it
    has no interior maximum and one of the two end qubits is farthest.
    """
    a = q.anchor
    ex, dy = event.x_mm, a.y * l_mm - event.y_mm
    return max(math.hypot((a.x + 1) * l_mm - ex, dy),
               math.hypot((a.x + q.code_distance - 1) * l_mm - ex, dy))


def string_overwhelmed(event: CreEvent, p: PhysicalParams, q: LogicalQubit,
                       t: float) -> bool:
    """True iff all d - 1 string qubits are strictly inside the disc."""
    return phonon_radius(event, p, t) > string_clearance_mm(q, event, p.l_mm)
