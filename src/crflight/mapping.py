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
from functools import cached_property
from typing import Dict, Tuple

from .model import (HOLE_SIDE_FRACTION, LatticePoint, LogicalQubit,
                    PhysicalParams)


@dataclass(frozen=True)
class Mapping:
    rows: int
    cols: int
    params: PhysicalParams
    qubits: Tuple[LogicalQubit, ...]
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

    @property
    def channel_ys(self) -> Tuple[int, ...]:
        """The planner's escape rows: each qubit's y - d and y + d in bounds."""
        d = self.params.d
        return tuple(sorted({y2 for q in self.qubits
                             for y2 in (q.anchor.y - d, q.anchor.y + d)
                             if 0 <= y2 <= self.height_units}))

    @cached_property
    def row_index(self) -> Tuple[Tuple[int, ...], Dict[int, tuple]]:
        """The sorted qubit rows y, and per row its anchor x's sorted, their
        qubit ids and its sorted hole-center x's. Built on first use."""
        d, by_row = self.params.d, {}
        for qid, q in enumerate(self.qubits):
            by_row.setdefault(q.anchor.y, []).append((q.anchor.x, qid))
        rows = {}
        for y, items in by_row.items():
            xs, ids = zip(*sorted(items))
            rows[y] = xs, ids, tuple(sorted(xs + tuple(x + d for x in xs)))
        return tuple(sorted(rows)), rows

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
    return Mapping(rows, cols, p, tuple(qubits), pitch * cols + d, pitch * rows)
