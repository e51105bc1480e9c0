"""Multi-qubit placement with open escape channels.

The unit cell places one horizontal two-hole qubit per slot on a 2d
pitch in both axes, so every row of qubits has a hole-free horizontal
channel band directly above and below it (center lines d lattice units
away), and a hole-free vertical band between neighboring columns. The
cell tiles by repetition (rows) and concatenation (columns).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

from .model import (HOLE_SIDE_FRACTION, LatticePoint, LogicalQubit,
                    PhysicalParams)


@dataclass(frozen=True)
class Mapping:
    rows: int
    cols: int
    params: PhysicalParams
    qubits: Tuple[LogicalQubit, ...]
    channel_ys: Tuple[int, ...]  # hole-free horizontal center lines
    width_units: int
    height_units: int

    def __post_init__(self) -> None:
        if any(q.code_distance != self.params.d for q in self.qubits):
            raise ValueError("the planner moves holes by params.d, so every "
                             f"qubit's code_distance must be {self.params.d}")

    @property
    def width_mm(self) -> float:
        return self.width_units * self.params.l_mm

    @property
    def height_mm(self) -> float:
        return self.height_units * self.params.l_mm

    def slot_of(self, qubit_id: int) -> Tuple[int, int]:
        return divmod(qubit_id, self.cols)

    def to_json(self) -> str:
        doc = {
            "rows": self.rows,
            "cols": self.cols,
            "code_distance": self.params.d,
            "l_mm": self.params.l_mm,
            "width_units": self.width_units,
            "height_units": self.height_units,
            "channel_ys": list(self.channel_ys),
            "qubits": [
                {
                    "id": i,
                    "orientation": "horizontal",
                    "holes": [[h.center.x, h.center.y] for h in q.holes],
                    "hole_half_width": q.code_distance * HOLE_SIDE_FRACTION / 2.0,
                }
                for i, q in enumerate(self.qubits)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def single_qubit_mapping(q: LogicalQubit, p: PhysicalParams,
                         width_units: int, height_units: int) -> Mapping:
    """Wrap one explicitly placed qubit for use with the simulator."""
    return Mapping(1, 1, p, (q,), (), width_units, height_units)


def build_mapping(rows: int, cols: int, p: PhysicalParams) -> Mapping:
    """Tile the unit cell into a rows-by-cols grid of logical qubits."""
    if rows < 1 or cols < 1:
        raise ValueError(f"mapping dimensions must be >= 1, got {rows}x{cols}")
    d = p.d
    pitch = 2 * d
    qubits = []
    for i in range(rows):
        y = d + pitch * i
        for j in range(cols):
            x = d + pitch * j
            qubits.append(LogicalQubit(LatticePoint(x, y), d))
    width = pitch * cols + d
    height = pitch * rows
    channel_ys = tuple(pitch * i for i in range(rows + 1))
    return Mapping(rows, cols, p, tuple(qubits), channel_ys, width, height)
