"""Continuous-time flee simulation: detection, move planning, execution.

One strike at a time: every function here takes a single ``CreEvent``.

Movement semantics: qubits are horizontal, and a hole travels any lattice
distance along an open channel in a fixed time of d cycles. A vertical
move shifts both holes simultaneously (one batch, d cycles); a horizontal
move shifts them sequentially because one hole blocks the other (two
batches, 2d cycles total). A ``MoveStep`` is therefore just a hole, its
target and its start cycle: the axis follows from the target and the
duration is always the qubit's d.

During simulation a qubit is evaluated at the anchor its last started
step implies. Survival is judged by the string rule alone, the
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
from .model import (HOLE_SIDE_FRACTION, CreEvent, LatticePoint, LogicalQubit,
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
    target: Tuple[int, int]    # hole center after the step, lattice units
    start_cycle: float         # the step takes the qubit's d cycles


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
    t_move = detect(event, p) + 1.0

    threatened = [(qid, q) for qid, q in enumerate(m.qubits)
                  if not is_safe_position(q, event, p)]
    threatened.sort(key=lambda item: (
        min(event.distance_mm(pt.physical(p.l_mm))
            for pt in item[1].all_points()),
        item[0]))

    # Current hole centers; updated with chosen targets as planning proceeds.
    occupancy = {qid: ((q.anchor.x, q.anchor.y),
                       (q.anchor.x + q.code_distance, q.anchor.y))
                 for qid, q in enumerate(m.qubits)}

    steps: List[MoveStep] = []
    for qid, q in threatened:
        x, y = q.anchor.x, q.anchor.y
        channels = [y2 for y2 in (y - d, y + d) if 0 <= y2 <= m.height_units]
        candidates = sorted((math.hypot(x2 - x, y2 - y), y2, x2)
                            for y2 in channels
                            for x2 in range(0, m.width_units - d + 1))
        # Whether the front overruns the stopover at (x, y2) during the d
        # cycles before the horizontal run leaves it.
        overrun = {y2: _span_crossing(q.translated(0, y2 - y), t_move,
                                      t_move + d, event, p) is not None
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
        steps.append(MoveStep(qid, 0, (x, y2), t_move))
        steps.append(MoveStep(qid, 1, (x + d, y2), t_move))
        if x2 != x:
            # Leading hole moves first so it never blocks the trailing one.
            order = (1, 0) if x2 > x else (0, 1)
            for k, hole_index in enumerate(order):
                hx = x2 + d if hole_index == 1 else x2
                steps.append(MoveStep(qid, hole_index, (hx, y2),
                                      t_move + d * (k + 1)))
        occupancy[qid] = ((x2, y2), (x2 + d, y2))

    return MovePlan(tuple(steps))


def displacement_plan(qubit_id: int, q: LogicalQubit, dx_units: int,
                      dy_units: int, start_cycle: float) -> MovePlan:
    """Single-batch plan translating a whole qubit by (dx, dy) lattice units."""
    return MovePlan(tuple(
        MoveStep(qubit_id, k, (h.center.x + dx_units, h.center.y + dy_units),
                 start_cycle)
        for k, h in enumerate(q.holes)))


def _positions_over_time(q: LogicalQubit, plan_steps: Sequence[MoveStep]):
    """(start_cycle, qubit-at-anchor) checkpoints, first entry the origin.

    Taken in start order, each step implies the qubit's anchor: its target
    less hole_index * d along x. The qubit holds that anchor from the step's
    start cycle, so a two-batch horizontal run counts as translated from its
    first batch.
    """
    d = q.code_distance
    out = [(-math.inf, q)]
    for s in sorted(plan_steps, key=lambda step: step.start_cycle):
        anchor = LatticePoint(s.target[0] - s.hole_index * d, s.target[1])
        if anchor != out[-1][1].anchor:
            out.append((s.start_cycle, LogicalQubit(anchor, d)))
    return out


def _span_crossing(q: LogicalQubit, start: float, end: float,
                   event: CreEvent, p: PhysicalParams) -> Optional[float]:
    """First time the strike's front overwhelms q's string while q is held

    still over [start, end), or None. The radius grows linearly until it
    dissipates, so with the string clearance thr the crossing is
    max(start, t0 + thr / mm_per_cycle), provided thr < r_max and that time
    falls inside the span and no later than dissipation. A front that does
    not move crosses nothing.
    """
    if p.mm_per_cycle == 0:
        return None
    thr = string_clearance_mm(q, event, p.l_mm)
    if thr >= p.r_max_mm:
        return None
    t0 = event.t0_cycles
    t = max(start, t0 + thr / p.mm_per_cycle)
    return t if t < end and t <= t0 + p.t_dissipate_cycles else None


def simulate(m: Mapping, event: CreEvent, p: PhysicalParams,
             plan: MovePlan) -> SimOutcome:
    """Record per-qubit survival and the exact time of each destruction.

    Each position span [start, end) a qubit holds is judged in closed form
    by ``_span_crossing``, with the string rule.
    """
    t0 = event.t0_cycles
    timeline: List[Tuple[float, str, Optional[int], str]] = [
        (t0, "strike", None, f"({event.x_mm:g},{event.y_mm:g})"),
        (detect(event, p), "detected", None, f"delta={p.delta_cycles:g}")]

    for s in plan.steps:
        timeline.append((s.start_cycle, "move_start", s.qubit_id,
                         f"hole{s.hole_index}->{s.target[0]},{s.target[1]}"))
        timeline.append((s.start_cycle + m.qubits[s.qubit_id].code_distance,
                         "move_complete", s.qubit_id, f"hole{s.hole_index}"))

    destroyed_at: Dict[int, float] = {}
    for qid, q in enumerate(m.qubits):
        spans = _positions_over_time(q, plan.steps_for(qid))
        for k, (start, moved) in enumerate(spans):
            end = spans[k + 1][0] if k + 1 < len(spans) else math.inf
            t = _span_crossing(moved, start, end, event, p)
            if t is not None:
                destroyed_at[qid] = t
                timeline.append((t, "destroyed", qid,
                                 f"radius={phonon_radius(event, p, t):g}mm"))
                break
    td = p.t_dissipate_cycles
    if math.isfinite(td):
        timeline.append((t0 + td, "dissipated", None, f"r_max={p.r_max_mm:g}mm"))
    t_survived = t0 + (td if math.isfinite(td) else 0.0)
    survived = {qid: qid not in destroyed_at for qid in range(len(m.qubits))}
    timeline.extend((t_survived, "survived", qid, "")
                    for qid, ok in survived.items() if ok)
    timeline.sort(key=lambda rec: (rec[0], rec[1], -1 if rec[2] is None else rec[2]))
    return SimOutcome(survived, destroyed_at, tuple(timeline))
