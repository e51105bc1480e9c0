"""Survival conditions, minimum-code-distance search, and parameter sweeps.

The two survival conditions (strict inequalities; equality counts as
failure) are, with r = v_p * t_c * (delta + 1) the front radius when the
move begins:

    condition 1:  r     < (x0 - r) + l * (d - 1)
    condition 2:  r_max < (x0 - r) + move_displacement + l * (d - 1)

x0 is the epicenter-to-nearest-hole distance at t = 0. For a strike at a
hole x0 = 0. For a strike halfway between the holes the source material
writes x0 = d/2 without a unit; we read that as d/2 millimetres by
default (``HALF_D_MM``), which reproduces the published sweep shapes,
and offer the physical half-separation d*l/2 (``HALF_SEPARATION``) as an
alternative convention.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, TextIO, Tuple

from .model import PhysicalParams

HALFWAY = "halfway"
AT_HOLE = "at_hole"
SCENARIOS = (HALFWAY, AT_HOLE)

HALF_D_MM = "half_d_mm"
HALF_SEPARATION = "half_separation"

# PhysicalParams field each sweep parameter sets
SWEEP_FIELDS = {"l": "l_mm", "r_max": "r_max_mm", "delta": "delta_cycles"}

DEFAULT_D_MAX = 500


@dataclass(frozen=True)
class StrikeScenario:
    kind: str
    x0_convention: str = HALF_D_MM

    def __post_init__(self) -> None:
        if self.kind not in SCENARIOS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.x0_convention not in (HALF_D_MM, HALF_SEPARATION):
            raise ValueError(f"unknown x0 convention {self.x0_convention!r}")

    def x0_mm(self, p: PhysicalParams) -> float:
        if self.kind == AT_HOLE:
            return 0.0
        if self.x0_convention == HALF_D_MM:
            return p.d / 2.0
        return p.d * p.l_mm / 2.0


def _front_at_move_start_mm(p: PhysicalParams) -> float:
    return p.mm_per_cycle * (p.delta_cycles + 1.0)


def check_condition1(p: PhysicalParams, s: StrikeScenario) -> bool:
    """The front must not overwhelm the whole qubit before the move starts."""
    r = _front_at_move_start_mm(p)
    return r < (s.x0_mm(p) - r) + p.l_mm * (p.d - 1)


def check_condition2(p: PhysicalParams, s: StrikeScenario) -> bool:
    """After the move, the far end of the qubit must be beyond r_max."""
    r = _front_at_move_start_mm(p)
    return p.r_max_mm < (s.x0_mm(p) - r) + p.move_displacement_mm + p.l_mm * (p.d - 1)


def check_feasibility(p: PhysicalParams, s: StrikeScenario) -> bool:
    """Both survival conditions hold."""
    return check_condition1(p, s) and check_condition2(p, s)


def min_code_distance(p: PhysicalParams, s: StrikeScenario,
                      d_max: int = DEFAULT_D_MAX) -> Optional[int]:
    """Smallest d in [2, d_max] satisfying both conditions, or None.

    p.d is ignored; x0 is re-derived per candidate d for the halfway
    scenario. None means infeasible within the search bound.
    """
    if d_max < 2:
        raise ValueError(f"d_max must be >= 2, got {d_max}")
    for d in range(2, d_max + 1):
        if check_feasibility(p.with_d(d), s):
            return d
    return None


@dataclass(frozen=True)
class SweepRow:
    value: float
    scenario: str
    min_d: Optional[int]


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    rows: Tuple[SweepRow, ...] = field(default_factory=tuple)


def sweep_points(parameter: str, points: Iterable[Tuple[float, PhysicalParams]],
                 scenarios: Sequence[str], x0_convention: str,
                 d_max: int) -> SweepResult:
    """Minimum d per (value, scenario) over (value, params) points, in value order."""
    if parameter not in SWEEP_FIELDS:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    points = sorted(points, key=lambda point: point[0])
    if not points:
        raise ValueError("sweep range is empty")
    if any(not v > 0 for v, _ in points):
        raise ValueError("sweep values must be positive")
    rows: List[SweepRow] = []
    for v, p in points:
        p = replace(p, **{SWEEP_FIELDS[parameter]: v})
        rows.extend(SweepRow(v, kind, min_code_distance(
            p, StrikeScenario(kind, x0_convention), d_max)) for kind in scenarios)
    return SweepResult(parameter, tuple(rows))


def sweep(parameter: str, values: Sequence[float], fixed: PhysicalParams,
          scenarios: Sequence[str] = SCENARIOS, x0_convention: str = HALF_D_MM,
          d_max: int = DEFAULT_D_MAX) -> SweepResult:
    """Minimum code distance per (parameter value, scenario) around ``fixed``."""
    return sweep_points(parameter, [(v, fixed) for v in values], scenarios,
                        x0_convention, d_max)


SWEEP_CSV_HEADER = ["param", "value", "scenario", "min_d", "feasible"]

INFEASIBLE = "INFEASIBLE"


def write_sweep_csv(result: SweepResult, out: TextIO) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(SWEEP_CSV_HEADER)
    for r in result.rows:
        found = r.min_d is not None
        w.writerow([result.parameter, repr(float(r.value)), r.scenario,
                    r.min_d if found else INFEASIBLE, str(found).lower()])


def read_sweep_csv(inp: Iterable[str]) -> SweepResult:
    rd = csv.reader(inp)
    header = next(rd)
    if header != SWEEP_CSV_HEADER:
        raise ValueError(f"unexpected sweep CSV header {header}")
    rows = []
    parameter = None
    for rec in rd:
        parameter = rec[0]
        min_d = None if rec[3] == INFEASIBLE else int(rec[3])
        rows.append(SweepRow(float(rec[1]), rec[2], min_d))
    if parameter not in SWEEP_FIELDS:
        raise ValueError("sweep CSV has no data rows" if parameter is None
                         else f"unknown sweep parameter {parameter!r}")
    return SweepResult(parameter, tuple(rows))
