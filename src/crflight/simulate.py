"""Continuous-time flee simulation: detection, move planning, execution.

One strike at a time: every function here takes a single ``CreEvent``.

Movement semantics: qubits are horizontal, and a hole travels any lattice
distance along an open channel in a fixed time of d cycles. A vertical
move shifts both holes simultaneously (one batch, d cycles); a horizontal
move shifts them sequentially because one hole blocks the other (two
batches, 2d cycles total).

During simulation a qubit is evaluated at the target of the last move
batch that has started. Survival is judged by the string rule alone, the
one the solver's conditions use: a qubit is lost the moment every one of
its d - 1 string data qubits lies strictly inside the phonon disc.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .mapping import Mapping
from .model import (HOLE_SIDE_FRACTION, CreEvent, LogicalQubit, PhononFront,
                    PhysicalParams, phonon_radius, string_clearance_mm)


class UnescapableError(Exception):
    """No safe escape target exists within the mapping bounds."""

    def __init__(self, qubit_id: int):
        super().__init__(f"qubit {qubit_id} has no safe escape target in bounds")
        self.qubit_id = qubit_id


@dataclass(frozen=True)
class MoveStep:
    qubit_id: int
    hole_index: int
    axis: str                  # "x" | "y"
    target: Tuple[int, int]    # hole center after the step, lattice units
    start_cycle: float
    duration_cycles: int


@dataclass(frozen=True)
class MovePlan:
    steps: Tuple[MoveStep, ...] = ()

    def steps_for(self, qubit_id: int) -> Tuple[MoveStep, ...]:
        return tuple(s for s in self.steps if s.qubit_id == qubit_id)

    def batch_count(self, qubit_id: int) -> int:
        """Sequential move batches; simultaneous hole moves count once."""
        return len({s.start_cycle for s in self.steps_for(qubit_id)})

    def qubit_ids(self) -> Tuple[int, ...]:
        return tuple(sorted({s.qubit_id for s in self.steps}))


@dataclass(frozen=True)
class SimOutcome:
    survived: Dict[int, bool]
    destroyed_at: Dict[int, float]
    timeline: Tuple[Tuple[float, str, Optional[int], str], ...]

    def event_log_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["cycle", "event_kind", "qubit_id", "detail"])
        for cycle, kind, qid, detail in self.timeline:
            w.writerow([f"{cycle:g}", kind, "" if qid is None else qid, detail])
        return buf.getvalue()


def detect(event: CreEvent, p: PhysicalParams) -> float:
    """Cycle at which the strike is unambiguously detected."""
    return event.t0_cycles + p.delta_cycles


def is_safe_position(q: LogicalQubit, event: CreEvent,
                     p: PhysicalParams) -> bool:
    """True iff the string cannot be fully consumed even at radius r_max."""
    return string_clearance_mm(q, event, p.l_mm) >= p.r_max_mm


def _leg_blocked(a: Tuple[int, int], b: Tuple[int, int], obstacles,
                 d: int) -> bool:
    """True iff a hole footprint swept along the axis-aligned leg a -> b
    overlaps the footprint of any obstacle hole center."""
    s = d * HOLE_SIDE_FRACTION
    x_lo, x_hi = min(a[0], b[0]) - s, max(a[0], b[0]) + s
    y_lo, y_hi = min(a[1], b[1]) - s, max(a[1], b[1]) + s
    for hx, hy in obstacles:
        if x_lo < hx < x_hi and y_lo < hy < y_hi:
            return True
    return False


def plan_flight(m: Mapping, event: CreEvent, p: PhysicalParams) -> MovePlan:
    """Plan escapes for every qubit whose string the strike could consume.

    Qubits nearest the epicenter get first pick of targets. Each plan is
    a vertical batch into an adjacent channel, optionally followed by a
    horizontal run along it: at most three sequential batches. The route
    taken is the nearest safe one whose legs no other hole blocks and whose
    channel stopover the front does not overrun during the d cycles the
    qubit waits there, judged by the simulator's own closed form
    (``_span_crossing``); if every safe route's stopover is overrun, the
    nearest safe route is the fallback. Raises UnescapableError when a
    threatened qubit has no safe in-bounds target.
    """
    d = p.d
    front = PhononFront(event, p)
    t_move = detect(event, p) + 1.0

    threatened = [(qid, q) for qid, q in enumerate(m.qubits)
                  if not is_safe_position(q, event, p)]
    threatened.sort(key=lambda item: (
        min(event.distance_mm(pt.physical(p.l_mm))
            for pt in item[1].all_points()),
        item[0]))

    # Current hole centers; updated with chosen targets as planning proceeds.
    occupancy: Dict[int, Tuple[Tuple[int, int], Tuple[int, int]]] = {
        qid: tuple((h.center.x, h.center.y) for h in q.holes)
        for qid, q in enumerate(m.qubits)
    }

    steps: List[MoveStep] = []
    for qid, q in threatened:
        x, y = q.holes[0].center.x, q.holes[0].center.y
        channels = [y2 for y2 in (y - d, y + d) if 0 <= y2 <= m.height_units]
        candidates = sorted((math.hypot(x2 - x, y2 - y), y2, x2)
                            for y2 in channels
                            for x2 in range(0, m.width_units - d + 1))
        # Whether the front overruns the stopover at (x, y2) during the d
        # cycles before the horizontal run leaves it.
        overrun = {y2: _span_crossing(q.translated(0, y2 - y), t_move,
                                      t_move + d, front) is not None
                   for y2 in channels}
        obstacles = [h for other, hs in occupancy.items() if other != qid
                     for h in hs]
        chosen = fallback = None
        for _, y2, x2 in candidates:
            if not is_safe_position(q.translated(x2 - x, y2 - y), event, p):
                continue
            if any(_leg_blocked(a, b, obstacles, d) for a, b in (
                    ((x, y), (x, y2)), ((x + d, y), (x + d, y2)),
                    ((x, y2), (x2, y2)), ((x + d, y2), (x2 + d, y2)))):
                continue
            if fallback is None:
                fallback = (x2, y2)
            # Prefer targets the qubit reaches before the front overruns its
            # stopover in the channel; fall back to the nearest safe target.
            if not overrun[y2]:
                chosen = (x2, y2)
                break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            raise UnescapableError(qid)

        x2, y2 = chosen
        steps.append(MoveStep(qid, 0, "y", (x, y2), t_move, d))
        steps.append(MoveStep(qid, 1, "y", (x + d, y2), t_move, d))
        if x2 != x:
            # Leading hole moves first so it never blocks the trailing one.
            order = (1, 0) if x2 > x else (0, 1)
            for k, hole_index in enumerate(order):
                hx = x2 + d if hole_index == 1 else x2
                steps.append(MoveStep(qid, hole_index, "x", (hx, y2),
                                      t_move + d * (k + 1), d))
        occupancy[qid] = ((x2, y2), (x2 + d, y2))

    return MovePlan(tuple(steps))


def displacement_plan(qubit_id: int, q: LogicalQubit, dx_units: int,
                      dy_units: int, start_cycle: float,
                      duration_cycles: int) -> MovePlan:
    """Single-batch plan translating a whole qubit by (dx, dy) lattice units."""
    steps = []
    for idx, hole in enumerate(q.holes):
        target = (hole.center.x + dx_units, hole.center.y + dy_units)
        axis = "x" if dx_units != 0 else "y"
        steps.append(MoveStep(qubit_id, idx, axis, target, start_cycle,
                              duration_cycles))
    return MovePlan(tuple(steps))


def _positions_over_time(q: LogicalQubit, plan_steps: Sequence[MoveStep]):
    """(start_cycle, qubit-at-target) checkpoints, first entry the origin.

    A qubit is anchored at a batch's target from the batch's start cycle;
    a two-batch horizontal run counts as translated from its first batch.
    """
    d = q.code_distance
    cur_x, cur_y = q.holes[0].center.x, q.holes[0].center.y
    out = [(-math.inf, q)]
    batches: Dict[float, List[MoveStep]] = {}
    for s in plan_steps:
        batches.setdefault(s.start_cycle, []).append(s)
    for start in sorted(batches):
        step = batches[start][0]
        tx, ty = step.target
        if step.hole_index == 1:
            tx -= d
        new_x, new_y = (cur_x, ty) if step.axis == "y" else (tx, cur_y)
        if (new_x, new_y) != (cur_x, cur_y):
            cur_x, cur_y = new_x, new_y
            out.append((start, q.translated(cur_x - q.holes[0].center.x,
                                            cur_y - q.holes[0].center.y)))
    return out


def _span_crossing(q: LogicalQubit, start: float, end: float,
                   front: PhononFront) -> Optional[float]:
    """First time the front overwhelms q's string while q is held still

    over [start, end), or None. The radius grows linearly until it
    dissipates, so with the string clearance thr the crossing is
    max(start, t0 + thr / mm_per_cycle), provided thr < r_max and that time
    falls inside the span and no later than dissipation. A front that does
    not move crosses nothing.
    """
    p = front.params
    if p.mm_per_cycle == 0:
        return None
    thr = string_clearance_mm(q, front.event, p.l_mm)
    if thr >= p.r_max_mm:
        return None
    t0 = front.event.t0_cycles
    t = max(start, t0 + thr / p.mm_per_cycle)
    return t if t < end and t <= t0 + front.t_dissipate_cycles else None


def simulate(m: Mapping, event: CreEvent, p: PhysicalParams,
             plan: MovePlan) -> SimOutcome:
    """Record per-qubit survival and the exact time of each destruction.

    Each position span [start, end) a qubit holds is judged in closed form
    by ``_span_crossing``, with the string rule.
    """
    t0 = event.t0_cycles
    front = PhononFront(event, p)
    timeline: List[Tuple[float, str, Optional[int], str]] = []
    timeline.append((t0, "strike", None, f"({event.x_mm:g},{event.y_mm:g})"))
    timeline.append((detect(event, p), "detected", None,
                     f"delta={p.delta_cycles:g}"))

    for s in plan.steps:
        timeline.append((s.start_cycle, "move_start", s.qubit_id,
                         f"hole{s.hole_index}->{s.target[0]},{s.target[1]}"))
        timeline.append((s.start_cycle + s.duration_cycles, "move_complete",
                         s.qubit_id, f"hole{s.hole_index}"))

    destroyed_at: Dict[int, float] = {}
    for qid, q in enumerate(m.qubits):
        spans = _positions_over_time(q, plan.steps_for(qid))
        for k, (start, moved) in enumerate(spans):
            end = spans[k + 1][0] if k + 1 < len(spans) else math.inf
            t = _span_crossing(moved, start, end, front)
            if t is not None:
                destroyed_at[qid] = t
                timeline.append((t, "destroyed", qid,
                                 f"radius={phonon_radius(front, t):g}mm"))
                break
    td = front.t_dissipate_cycles
    if math.isfinite(td):
        timeline.append((t0 + td, "dissipated", None, f"r_max={p.r_max_mm:g}mm"))

    survived = {qid: qid not in destroyed_at for qid in range(len(m.qubits))}
    for qid, ok in survived.items():
        if ok:
            timeline.append((t0 + (td if math.isfinite(td) else 0.0),
                             "survived", qid, ""))
    timeline.sort(key=lambda rec: (rec[0], rec[1], -1 if rec[2] is None else rec[2]))
    return SimOutcome(survived, destroyed_at, tuple(timeline))
