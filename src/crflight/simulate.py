"""Continuous-time flee simulation: detection, move planning, execution.

One strike at a time: every function here takes a single ``CreEvent``. The
planner's threat scan and the simulator's span checks cost O(qubits within
r_max of it), found in the mapping's row index; each survivor costs one
timeline record and one preformatted event-log line.

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
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .mapping import Mapping
from .model import (HOLE_SIDE_FRACTION, CreEvent, LogicalQubit,
                    PhysicalParams, phonon_radius, string_clearance_at)


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
        survived_prefix = ""  # every survivor row shares one cycle
        for cycle, kind, qid, detail in self.timeline:
            if kind == "survived":  # no field of it can need quoting
                survived_prefix = survived_prefix or f"{cycle:g},survived,"
                buf.write(f"{survived_prefix}{qid},\n")
            else:
                w.writerow([f"{cycle:g}", kind, "" if qid is None else qid, detail])
        return buf.getvalue()


def detect(event: CreEvent, p: PhysicalParams) -> float:
    """Cycle at which the strike is unambiguously detected."""
    return event.t0_cycles + p.delta_cycles


def _check_params(m: Mapping, p: PhysicalParams) -> None:
    """ValueError unless p's d and l_mm are the mapping's."""
    if (p.d, p.l_mm) != (m.params.d, m.params.l_mm):
        raise ValueError(f"p has d = {p.d}, l_mm = {p.l_mm}; the mapping's differ")


def _threatened(m: Mapping, event: CreEvent, p: PhysicalParams) -> List[int]:
    """Ids, in order, of the qubits whose string clearance at their mapped
    anchor is below r_max: those the strike can take, looked up in the row
    index a lattice unit beyond r_max. ValueError if p is not the mapping's."""
    _check_params(m, p)
    d, l, r_max = p.d, p.l_mm, p.r_max_mm
    ys, rows = m.row_index
    cx, cy, r = event.x_mm / l, event.y_mm / l, r_max / l
    x_hi = cx + r - d + 2
    threatened: List[int] = []
    for y in ys[bisect_left(ys, cy - r - 1):bisect_right(ys, cy + r + 1)]:
        xs, ids, _ = rows[y]
        lo, hi = bisect_left(xs, cx - r - 2), bisect_right(xs, x_hi)
        threatened += [ids[i] for i in range(lo, hi)
                       if string_clearance_at(xs[i], y, d, event, l) < r_max]
    return sorted(threatened)


def _legs_blocked(x: int, y: int, x2: int, y2: int,
                  rows: Dict[int, List[int]], d: int) -> bool:
    """True iff either hole footprint of the qubit anchored at (x, y), swept
    along the axis-aligned leg to the anchor (x2, y2), overlaps the footprint
    of any obstacle hole center. ``rows`` maps each row y to the sorted x's
    of the obstacle holes in it."""
    s = d * HOLE_SIDE_FRACTION
    x_lo, x_hi = min(x, x2) - s, max(x, x2) + s  # hole 1's box is d further
    for hy in range(math.floor(min(y, y2) - s) + 1, math.ceil(max(y, y2) + s)):
        xs = rows.get(hy)
        if xs:
            for dx in (0, d):
                i = bisect_right(xs, x_lo + dx)
                if i < len(xs) and xs[i] < x_hi + dx:
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
    (``_crossing``); if every safe route's stopover is overrun, the
    nearest safe route is the fallback, listed in ``fallback_qubits``. Ties
    go to the lower channel, then the lower x. Raises UnescapableError when
    a threatened qubit has no safe in-bounds target, and ValueError when p's
    d or l_mm is not the mapping's.
    """
    steps: List[MoveStep] = []
    fallback_qubits: List[int] = []
    for qid, qubit_steps, fell_back in _escapes(m, event, p):
        steps += qubit_steps
        if fell_back:
            fallback_qubits.append(qid)
    return MovePlan(tuple(steps), tuple(fallback_qubits))


def _escapes(m: Mapping, event: CreEvent, p: PhysicalParams
             ) -> Iterator[Tuple[int, List[MoveStep], bool]]:
    """``plan_flight``'s escapes one threatened qubit at a time, in planning
    order: (id, its steps in start order, whether it fell back). Each is
    final once yielded; UnescapableError comes when planning reaches it."""
    d, l, ex, ey = p.d, p.l_mm, event.x_mm, event.y_mm
    t_move = detect(event, p) + 1.0
    x_max = m.width_units - d

    threatened = [(qid, m.qubits[qid].anchor) for qid in _threatened(m, event, p)]
    # By the epicenter distance of the nearest hole center or string qubit.
    threatened.sort(key=lambda item: min(  # stable: ties stay in id order
        math.hypot((item[1].x + k) * l - ex, item[1].y * l - ey)
        for k in range(d + 1)))

    # Current hole centers by row, sorted by x; updated as targets are chosen.
    rows = {y: list(holes) for y, (_, _, holes) in m.row_index[1].items()}

    def nearest(x: int, channels: List[int]) -> Optional[Tuple[int, int]]:
        # Walk outward: targets k columns from x (k = 0 once) lie hypot(k, d)
        # away, taken in (y2, x2) order. A swept leg's box only grows with k,
        # so a direction out of bounds or with a blocked leg drops for good.
        live = [(y2, sign) for y2 in channels for sign in (-1, 1)]
        k = max(0, -x, x - x_max)  # the first k with a target in bounds
        while live:
            for dr in list(live):
                y2, sign = dr
                x2 = x + sign * k
                if k == 0 < sign:
                    continue
                if not 0 <= x2 <= x_max:
                    live.remove(dr)
                elif string_clearance_at(x2, y2, d, event, l) >= p.r_max_mm:
                    if not _legs_blocked(x, y2, x2, y2, rows, d):
                        return x2, y2
                    live.remove(dr)
            k += 1
        return None

    for qid, a in threatened:
        x, y = a.x, a.y
        rows[y].remove(x)
        rows[y].remove(x + d)
        # Channels whose vertical legs are open, whatever the target column.
        channels = [y2 for y2 in (y - d, y + d) if 0 <= y2 <= m.height_units
                    and not _legs_blocked(x, y, x, y2, rows, d)]
        # Whether the front overruns the stopover at (x, y2) during the d
        # cycles before the horizontal run leaves it.
        overrun = {y2: _crossing(string_clearance_at(x, y2, d, event, l),
                                 t_move, t_move + d, event, p) is not None
                   for y2 in channels}
        chosen = (nearest(x, [y2 for y2 in channels if not overrun[y2]])
                  or nearest(x, [y2 for y2 in channels if overrun[y2]]))
        if chosen is None:
            raise UnescapableError(qid)

        x2, y2 = chosen
        steps = [MoveStep(qid, 0, (x, y2), t_move),
                 MoveStep(qid, 1, (x + d, y2), t_move)]
        if x2 != x:
            # Leading hole moves first so it never blocks the trailing one.
            order = (1, 0) if x2 > x else (0, 1)
            steps += [MoveStep(qid, h, (x2 + h * d, y2), t_move + d * (n + 1))
                      for n, h in enumerate(order)]
        for hx in (x2, x2 + d):
            insort(rows.setdefault(y2, []), hx)
        yield qid, steps, overrun[y2]


def displacement_plan(qubit_id: int, q: LogicalQubit, dx_units: int,
                      dy_units: int, start_cycle: float) -> MovePlan:
    """Single-batch plan translating a whole qubit by (dx, dy) lattice units."""
    return MovePlan(tuple(
        MoveStep(qubit_id, k, (h.center.x + dx_units, h.center.y + dy_units),
                 start_cycle)
        for k, h in enumerate(q.holes)))


def _crossing(thr: float, start: float, end: float, event: CreEvent,
              p: PhysicalParams) -> Optional[float]:
    """First time the strike's front overwhelms a string of clearance thr

    held still over [start, end), or None. The radius grows linearly until
    it dissipates, so the crossing is max(start, t0 + thr / mm_per_cycle),
    provided thr < r_max and that time falls inside the span and no later
    than dissipation. A front that does not move crosses nothing.
    """
    if p.mm_per_cycle == 0 or thr >= p.r_max_mm:
        return None
    t0 = event.t0_cycles
    t = max(start, t0 + thr / p.mm_per_cycle)
    return t if t < end and t <= t0 + p.t_dissipate_cycles else None


def _loss_time(m: Mapping, qid: int, steps: Iterable[MoveStep],
               event: CreEvent, p: PhysicalParams) -> Optional[float]:
    """Cycle at which qubit qid, taking its steps in start order, is lost,
    or None. It holds its mapped anchor, then the anchor each step implies:
    the step's target less hole_index * d along x, held from its start
    cycle, so a two-batch horizontal run counts as translated from its
    first batch. Each span [start, end) is judged in closed form by
    ``_crossing``, with the string rule."""
    d, a = p.d, m.qubits[qid].anchor
    spans = [(-math.inf, a.x, a.y)]
    for s in steps:
        x, y = s.target[0] - s.hole_index * d, s.target[1]
        if (x, y) != spans[-1][1:]:
            spans.append((s.start_cycle, x, y))
    for k, (start, x, y) in enumerate(spans):
        end = spans[k + 1][0] if k + 1 < len(spans) else math.inf
        t = _crossing(string_clearance_at(x, y, d, event, p.l_mm), start,
                      end, event, p)
        if t is not None:
            return t
    return None


def _flight_lost(m: Mapping, event: CreEvent, p: PhysicalParams) -> bool:
    """Whether fleeing the strike loses a qubit, an UnescapableError from
    the planner included, decided at the first loss. That is exact: an
    unmoved qubit outside ``_threatened`` has clearance >= r_max, a moved
    one's fate rests on its own steps alone, final once ``_escapes`` yields
    them, and an UnescapableError after a loss leaves the answer True."""
    try:
        return any(_loss_time(m, qid, steps, event, p) is not None
                   for qid, steps, _ in _escapes(m, event, p))
    except UnescapableError:
        return True


def simulate(m: Mapping, event: CreEvent, p: PhysicalParams,
             plan: MovePlan) -> SimOutcome:
    """Record per-qubit survival, the exact time of each destruction and

    the strike's event timeline. Only moved and threatened qubits can be
    lost, each judged by ``_loss_time``. ValueError if p is not the mapping's.
    """
    steps_by_qubit: Dict[int, List[MoveStep]] = {}
    for s in sorted(plan.steps, key=lambda step: step.start_cycle):
        steps_by_qubit.setdefault(s.qubit_id, []).append(s)
    times = {qid: _loss_time(m, qid, steps_by_qubit.get(qid, ()), event, p)
             for qid in sorted(steps_by_qubit.keys() | _threatened(m, event, p))}
    destroyed_at = {qid: t for qid, t in times.items() if t is not None}
    t0 = event.t0_cycles
    timeline: List[Tuple[float, str, Optional[int], str]] = [
        (t0, "strike", None, f"({event.x_mm:g},{event.y_mm:g})"),
        (detect(event, p), "detected", None, f"delta={p.delta_cycles:g}")]
    for s in plan.steps:
        timeline.append((s.start_cycle, "move_start", s.qubit_id,
                         f"hole{s.hole_index}->{s.target[0]},{s.target[1]}"))
        timeline.append((s.start_cycle + p.d, "move_complete", s.qubit_id,
                         f"hole{s.hole_index}"))
    timeline += [(t, "destroyed", qid, f"radius={phonon_radius(event, p, t):g}mm")
                 for qid, t in destroyed_at.items()]
    td = p.t_dissipate_cycles
    if math.isfinite(td):
        timeline.append((t0 + td, "dissipated", None, f"r_max={p.r_max_mm:g}mm"))
    timeline.sort(key=lambda rec: (rec[0], rec[1], -1 if rec[2] is None else rec[2]))
    # "survived" sorts last at equal cycles, so the survivors, in id order,
    # go in as one block after the last record due by t_survived.
    t_survived = t0 + (td if math.isfinite(td) else 0.0)
    survived = {qid: qid not in destroyed_at for qid in range(len(m.qubits))}
    i = bisect_right(timeline, t_survived, key=lambda rec: rec[0])
    timeline[i:i] = [(t_survived, "survived", qid, "")
                     for qid, ok in survived.items() if ok]
    return SimOutcome(survived, destroyed_at, tuple(timeline))
