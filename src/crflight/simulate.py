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
from bisect import bisect_right, insort
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
    # Qubits whose route waits at a channel stopover the front overruns.
    fallback_qubits: Tuple[int, ...] = ()

    def batch_count(self, qubit_id: int) -> int:
        """Sequential move batches; simultaneous hole moves count once."""
        return len({s.start_cycle for s in self.steps
                    if s.qubit_id == qubit_id})

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


def _leg_blocked(a: Tuple[int, int], b: Tuple[int, int],
                 rows: Dict[int, List[int]], d: int) -> bool:
    """True iff a hole footprint swept along the axis-aligned leg a -> b
    overlaps the footprint of any obstacle hole center. ``rows`` maps each
    row y to the sorted x's of the obstacle holes in it."""
    s = d * HOLE_SIDE_FRACTION
    x_lo, x_hi = min(a[0], b[0]) - s, max(a[0], b[0]) + s
    y_lo, y_hi = min(a[1], b[1]) - s, max(a[1], b[1]) + s
    for hy in range(math.floor(y_lo) + 1, math.ceil(y_hi)):
        xs = rows.get(hy)
        if xs:
            i = bisect_right(xs, x_lo)
            if i < len(xs) and xs[i] < x_hi:
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
    nearest safe route is the fallback, listed in ``fallback_qubits``. Ties
    go to the lower channel, then the lower x. Raises UnescapableError when
    a threatened qubit has no safe in-bounds target, and ValueError when p's
    d or l_mm is not the mapping's.
    """
    if (p.d, p.l_mm) != (m.params.d, m.params.l_mm):
        raise ValueError(f"p has d = {p.d}, l_mm = {p.l_mm}; the mapping's differ")
    d = p.d
    t_move = detect(event, p) + 1.0
    x_max = m.width_units - d

    threatened = [(qid, q) for qid, q in enumerate(m.qubits)
                  if not is_safe_position(q, event, p)]
    threatened.sort(key=lambda item: (
        min(event.distance_mm(pt.physical(p.l_mm))
            for pt in item[1].all_points()),
        item[0]))

    # Current hole centers by row, sorted by x; updated as targets are chosen.
    rows: Dict[int, List[int]] = {}
    for q in m.qubits:
        for hx in (q.anchor.x, q.anchor.x + d):
            insort(rows.setdefault(q.anchor.y, []), hx)

    steps: List[MoveStep] = []
    fallback_qubits: List[int] = []
    for qid, q in threatened:
        x, y = q.anchor.x, q.anchor.y
        rows[y].remove(x)
        rows[y].remove(x + d)
        channels = [y2 for y2 in (y - d, y + d) if 0 <= y2 <= m.height_units]
        # Whether the front overruns the stopover at (x, y2) during the d
        # cycles before the horizontal run leaves it.
        overrun = {y2: _span_crossing(q.translated(0, y2 - y), t_move,
                                      t_move + d, event, p) is not None
                   for y2 in channels}
        # Walk outward: targets k columns from x (k = 0 once) lie hypot(k, d)
        # away, taken in (y2, x2) order. A swept leg's box only grows with k,
        # so a blocked leg drops its direction, or its channel if vertical.
        live = [(y2, sign) for y2 in channels for sign in (-1, 1)]
        vertical_blocked: Dict[int, bool] = {}
        chosen = fallback = None
        k = max(0, -x, x - x_max)  # the first k with a target in bounds
        while live and chosen is None:
            for dr in list(live):
                y2, sign = dr
                x2 = x + sign * k
                if dr not in live or k == 0 < sign:
                    continue
                if not 0 <= x2 <= x_max or fallback and overrun[y2]:
                    live.remove(dr)  # for good, or no better than the fallback
                    continue
                if not is_safe_position(q.translated(x2 - x, y2 - y), event, p):
                    continue
                if y2 not in vertical_blocked:
                    vertical_blocked[y2] = any(
                        _leg_blocked((hx, y), (hx, y2), rows, d)
                        for hx in (x, x + d))
                if vertical_blocked[y2]:
                    live = [other for other in live if other[0] != y2]
                elif any(_leg_blocked((hx, y2), (hx + x2 - x, y2), rows, d)
                         for hx in (x, x + d)):
                    live.remove(dr)
                else:
                    # Prefer a stopover the front does not overrun.
                    fallback = fallback or (x2, y2)
                    if not overrun[y2]:
                        chosen = (x2, y2)
                        break
            k += 1
        chosen = chosen or fallback
        if chosen is None:
            raise UnescapableError(qid)

        x2, y2 = chosen
        if overrun[y2]:
            fallback_qubits.append(qid)
        steps += [MoveStep(qid, 0, (x, y2), t_move),
                  MoveStep(qid, 1, (x + d, y2), t_move)]
        if x2 != x:
            # Leading hole moves first so it never blocks the trailing one.
            order = (1, 0) if x2 > x else (0, 1)
            steps += [MoveStep(qid, h, (x2 + h * d, y2), t_move + d * (n + 1))
                      for n, h in enumerate(order)]
        for hx in (x2, x2 + d):
            insort(rows.setdefault(y2, []), hx)

    return MovePlan(tuple(steps), tuple(fallback_qubits))


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

    steps_by_qubit: Dict[int, List[MoveStep]] = {}
    for s in plan.steps:
        timeline.append((s.start_cycle, "move_start", s.qubit_id,
                         f"hole{s.hole_index}->{s.target[0]},{s.target[1]}"))
        timeline.append((s.start_cycle + m.qubits[s.qubit_id].code_distance,
                         "move_complete", s.qubit_id, f"hole{s.hole_index}"))
        steps_by_qubit.setdefault(s.qubit_id, []).append(s)

    destroyed_at: Dict[int, float] = {}
    for qid, q in enumerate(m.qubits):
        spans = _positions_over_time(q, steps_by_qubit.get(qid, ()))
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
