import csv
import hashlib
import io
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crflight.mapping import Mapping, build_mapping
from crflight.model import (HOLE_SIDE_FRACTION, CreEvent, LatticePoint,
                            LogicalQubit, PhysicalParams, phonon_radius)
from crflight.simulate import (MovePlan, MoveStep, UnescapableError,
                               _span_crossing, detect, displacement_plan,
                               is_safe_position, plan_flight, simulate)
from crflight.solver import (HALF_D_MM, HALF_SEPARATION, HALFWAY,
                             StrikeScenario, check_feasibility)


def params(l=1.0, d=4, v_p=2.5, delta=1.0, t_c=1.0, r_max=6.0, dl=1.0):
    return PhysicalParams(l, d, v_p, delta, t_c, r_max, dl)


def brute_force_compromised(front, q, t):
    """Independent oracle: point-in-disc test over every string position."""
    event, params = front
    r = phonon_radius(event, params, t)
    ex, ey = event.x_mm, event.y_mm
    l = params.l_mm
    return sum(math.hypot(px - ex, py - ey) < r
               for px, py in (pt.physical(l) for pt in q.all_points()[1:-1]))


class TestDetect:
    def test_zero_latency(self):
        assert detect(CreEvent(0, 0), params(delta=0.0)) == 0.0

    def test_one_cycle(self):
        assert detect(CreEvent(0, 0), params(delta=1.0)) == 1.0

    def test_long_latency(self):
        assert detect(CreEvent(0, 0, t0_cycles=3.0), params(delta=25.0)) == 28.0


class TestPlanFlight:
    @pytest.mark.parametrize("m, p", [
        (Mapping(1, 1, params(d=5), (LogicalQubit(LatticePoint(8, 8), 5),),
                 40, 20), params(d=4)),
        (build_mapping(2, 2, params(d=5)), params(d=4)),
        (build_mapping(2, 2, params()), params(l=0.5)),
    ], ids=["single-qubit-d", "2x2-d", "2x2-l"])
    def test_rejects_params_of_another_mapping(self, m, p):
        # Holes move by p.d on the mapping's lattice: with p.d = 4 the d = 5
        # single qubit was planned hole0 -> (8, 4), hole1 -> (12, 4), and the
        # d = 5 2x2 chip was sent to row y = 1, which is not a channel.
        with pytest.raises(ValueError, match="the mapping's differ"):
            plan_flight(m, CreEvent(10.0, 8.0), p)

    def test_distant_strike_gives_empty_plan(self):
        m = build_mapping(2, 2, params())
        event = CreEvent(-100.0, -100.0)
        assert plan_flight(m, event, m.params) == MovePlan()

    def test_vertical_escape_preferred(self):
        # epicenter between the holes; an open channel sits directly above
        # and below, so the plan is one simultaneous vertical batch of
        # duration d rather than a 2d sequential horizontal shuffle
        p = params(r_max=4.0)
        m = build_mapping(1, 1, p)
        q = m.qubits[0]
        event = CreEvent((q.holes[0].center.x + 2) * p.l_mm,
                         q.holes[0].center.y * p.l_mm)
        plan = plan_flight(m, event, p)
        steps = [s for s in plan.steps if s.qubit_id == 0]
        assert plan.batch_count(0) == 1
        assert [s.target[0] for s in steps] == [h.center.x for h in q.holes]
        log = csv.DictReader(io.StringIO(
            simulate(m, event, p, plan).event_log_csv()))
        cycles = {row["event_kind"]: float(row["cycle"]) for row in log}
        assert cycles["move_complete"] == cycles["move_start"] + p.d

    def test_strike_on_slot_moves_neighbors(self):
        p = params(v_p=0.5, r_max=12.0)
        m = build_mapping(3, 3, p)
        center = m.qubits[4]
        cx = (center.holes[0].center.x + center.holes[1].center.x) / 2 * p.l_mm
        cy = center.holes[0].center.y * p.l_mm
        plan = plan_flight(m, CreEvent(cx, cy), p)
        assert set(plan.qubit_ids()) == {1, 3, 4, 5, 7}
        assert all(plan.batch_count(qid) <= 3 for qid in plan.qubit_ids())
        outcome = simulate(m, CreEvent(cx, cy), p, plan)
        assert all(outcome.survived.values())

    def test_distance_ties_go_to_lower_channel_then_lower_x(self):
        # Every target 2 columns from x lies sqrt(20) away. The strike sits
        # just left of the string midpoint and just below its row, so at
        # r_max 4.9 the nearest safe targets are x + 2 in the lower channel
        # and x - 2 in the upper one: the lower channel wins.
        p = params(v_p=0.0, r_max=4.9)
        m = Mapping(1, 1, p, (LogicalQubit(LatticePoint(10, 10), 4),), 40,
                    40)
        plan = plan_flight(m, CreEvent(11.75, 9.75), p)
        assert [s.target for s in plan.steps] == [(10, 6), (14, 6), (16, 6),
                                                  (12, 6)]

    def test_fallback_route_is_flagged(self):
        # Both safe routes from (5, 4) mm wait in the channel at y = 0, which
        # the front overruns at t = sqrt(20) before the run leaves at t = 6.
        p = params(v_p=1.0, r_max=5.0)
        m = build_mapping(1, 1, p)
        event = CreEvent(5.0, 4.0)
        plan = plan_flight(m, event, p)
        assert plan.fallback_qubits == (0,)
        assert [s.target for s in plan.steps] == [(4, 0), (8, 0), (9, 0),
                                                  (5, 0)]
        outcome = simulate(m, event, p, plan)
        assert outcome.destroyed_at == {0: math.sqrt(20)}
        # A slower front leaves the stopover clear: no fallback.
        slow = params(v_p=0.5, r_max=5.0)
        plan = plan_flight(m, event, slow)
        assert plan.steps and plan.fallback_qubits == ()
        assert simulate(m, event, slow, plan).destroyed_at == {}

    def test_unescapable_when_storm_covers_frame(self):
        p = params(r_max=500.0)
        m = build_mapping(1, 1, p)
        with pytest.raises(UnescapableError):
            plan_flight(m, CreEvent(m.width_mm / 2, m.height_mm / 2), p)

    def test_plan_independent_of_strike_time(self):
        # The front overruns the lower stopover (4, 0) before the horizontal
        # run leaves it, but not the upper one (4, 8). Judging the stopover
        # by the radius since t = 0 rather than since t0 sent qubit 0 down at
        # t0 = 50, where it was destroyed at t ~ 56.81.
        p = PhysicalParams(1.0, 4, 0.8, 2.0, 1.0, 7.0)
        m = build_mapping(2, 1, p)
        plans = {}
        for t0 in (0.0, 50.0):
            event = CreEvent(3.0, 3.7, t0)
            plans[t0] = plan_flight(m, event, p)
            outcome = simulate(m, event, p, plans[t0])
            assert all(outcome.survived.values()), t0
        assert ([s.target for s in plans[0.0].steps]
                == [s.target for s in plans[50.0].steps])
        assert [s.target for s in plans[0.0].steps
                if s.qubit_id == 0][-1] == (6, 8)


def eighths(lo, hi):
    """Multiples of 1/8 in [lo, hi]: exact in binary, so shifting a strike
    by an integer t0 cannot flip a time comparison by rounding."""
    return st.integers(int(lo * 8), int(hi * 8)).map(lambda k: k / 8)


def final_hole_centers(m, plan):
    centers = {(qid, k): (h.center.x, h.center.y)
               for qid, q in enumerate(m.qubits) for k, h in enumerate(q.holes)}
    for s in sorted(plan.steps, key=lambda s: s.start_cycle):
        centers[(s.qubit_id, s.hole_index)] = s.target
    return list(centers.values())


class TestPlanFlightProperties:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 3), cols=st.integers(1, 3), d=st.integers(4, 6),
           v_p=eighths(0.0, 3.0), delta=eighths(0.0, 4.0),
           r_max=eighths(0.0, 16.0), fx=st.floats(-0.1, 1.1),
           fy=st.floats(-0.1, 1.1), t0=st.integers(1, 1000))
    def test_plan_properties(self, rows, cols, d, v_p, delta, r_max, fx, fy,
                             t0):
        p = params(d=d, v_p=v_p, delta=delta, r_max=r_max)
        m = build_mapping(rows, cols, p)
        ex = round(fx * m.width_mm * 8) / 8
        ey = round(fy * m.height_mm * 8) / 8
        event = CreEvent(ex, ey)
        try:
            plan = plan_flight(m, event, p)
        except UnescapableError as exc:
            assert not is_safe_position(m.qubits[exc.qubit_id], event, p)
            return
        assert plan_flight(m, event, p) == plan
        assert all(plan.batch_count(qid) <= 3 for qid in plan.qubit_ids())

        centers = final_hole_centers(m, plan)
        for i, (ax, ay) in enumerate(centers):
            for bx, by in centers[i + 1:]:
                assert abs(ax - bx) >= d / 4 or abs(ay - by) >= d / 4

        def shape(pl):
            return [(s.qubit_id, s.hole_index, s.target) for s in pl.steps]

        later = CreEvent(ex, ey, float(t0))
        assert shape(plan_flight(m, later, p)) == shape(plan)

        # The fallback and a front that covers the string before the move
        # starts can still lose a planned qubit, but never after it leaves
        # its channel stopover for a safe target.
        t_move = detect(event, p) + 1
        outcome = simulate(m, event, p, plan)
        for qid in plan.qubit_ids():
            assert outcome.destroyed_at.get(qid, -math.inf) < t_move + d


    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 6), n=st.integers(1, 4),
           anchor=st.tuples(st.integers(-4, 24), st.integers(-4, 24)),
           size=st.tuples(st.integers(0, 40), st.integers(0, 40)),
           single=st.booleans(), v_p=eighths(0.0, 3.0),
           r_max=eighths(0.0, 12.0), fx=st.floats(-0.1, 1.1),
           fy=st.floats(-0.1, 1.1))
    def test_targets_lie_in_channel_rows(self, d, n, anchor, size, single,
                                         v_p, r_max, fx, fy):
        p = params(d=d, v_p=v_p, r_max=r_max)
        if single:
            q = LogicalQubit(LatticePoint(*anchor), d)
            m = Mapping(1, 1, p, (q,), *size)
        else:
            m = build_mapping(n, n, p)
        event = CreEvent(fx * max(m.width_mm, 1.0), fy * max(m.height_mm, 1.0))
        try:
            plan = plan_flight(m, event, p)
        except UnescapableError:
            return
        assert {s.target[1] for s in plan.steps} <= set(m.channel_ys)


class TestSimulate:
    def test_zero_speed_all_survive(self):
        p = params(v_p=0.0, r_max=1000.0)
        m = build_mapping(2, 2, p)
        event = CreEvent(m.width_mm / 2, m.height_mm / 2)
        outcome = simulate(m, event, p, MovePlan())
        assert all(outcome.survived.values())

    def test_stationary_qubit_on_epicenter_destroyed(self):
        p = params(r_max=100.0)
        m = build_mapping(1, 1, p)
        hx, hy = m.qubits[0].holes[0].center.physical(p.l_mm)
        outcome = simulate(m, CreEvent(hx, hy), p, MovePlan())
        assert outcome.survived[0] is False
        assert 0 in outcome.destroyed_at

    def test_executed_plan_saves_qubit(self):
        p = params(v_p=0.5, r_max=6.0)
        m = build_mapping(2, 2, p)
        event = CreEvent(5.0, 6.0)
        no_move = simulate(m, event, p, MovePlan())
        assert no_move.survived[0] is False
        plan = plan_flight(m, event, p)
        moved = simulate(m, event, p, plan)
        assert all(moved.survived.values())

    def test_displacement_plan_translates_whole_qubit(self):
        p = params(d=5, v_p=1.0, r_max=7.0)
        q = LogicalQubit(LatticePoint(0, 0), 5)
        m = Mapping(1, 1, p, (q,), 60, 20)
        event = CreEvent(-1.0, 0.0)
        doomed = simulate(m, event, p, MovePlan())
        assert doomed.survived[0] is False
        plan = displacement_plan(0, q, 8, 0, detect(event, p) + 1)
        saved = simulate(m, event, p, plan)
        assert saved.survived[0] is True

    @pytest.mark.parametrize("dx, dy, lost_at", [(3, 2, None),
                                                 (3, 0, math.sqrt(2))])
    def test_diagonal_displacement_moves_qubit_to_target(self, dx, dy, lost_at):
        # A (3, 2) displacement was once simulated at (3, 0), whose string
        # end qubits lie sqrt(2) mm from the strike: the front took it there
        # at t = sqrt(2). At (3, 2) the string stays beyond r_max.
        p = PhysicalParams(1.0, 4, 1.0, 0.0, 1.0, 2.5)
        q = LogicalQubit(LatticePoint(0, 0), 4)
        m = Mapping(1, 1, p, (q,), 40, 20)
        event = CreEvent(5.0, -1.0)
        outcome = simulate(m, event, p, displacement_plan(0, q, dx, dy, 1.0))
        assert outcome.destroyed_at.get(0) == lost_at

    def test_no_hole_overlap_during_execution(self):
        p = params(v_p=0.5, r_max=12.0)
        m = build_mapping(3, 3, p)
        event = CreEvent(14.0, 12.0)
        plan = plan_flight(m, event, p)
        d = p.d
        # hole centers per qubit at each cycle, using the same anchoring
        # rule the simulator applies (target from batch start)
        horizon = int(math.ceil(event.t0_cycles + 40))
        for t in range(0, horizon):
            centers = []
            for qid, q in enumerate(m.qubits):
                steps = [s for s in plan.steps
                         if s.qubit_id == qid and s.start_cycle <= t]
                pos = {0: q.holes[0].center, 1: q.holes[1].center}
                for s in sorted(steps, key=lambda s: s.start_cycle):
                    pos[s.hole_index] = LatticePoint(*s.target)
                centers.extend(pos.values())
            for i, a in enumerate(centers):
                for b in centers[i + 1:]:
                    assert abs(a.x - b.x) >= d / 4 or abs(a.y - b.y) >= d / 4

    def test_deterministic_event_log(self):
        p = params(v_p=0.5, r_max=12.0)
        m = build_mapping(3, 3, p)
        event = CreEvent(14.0, 12.0)
        log1 = simulate(m, event, p, plan_flight(m, event, p)).event_log_csv()
        log2 = simulate(m, event, p, plan_flight(m, event, p)).event_log_csv()
        assert log1 == log2
        assert log1.splitlines()[0] == "cycle,event_kind,qubit_id,detail"
        kinds = {line.split(",")[1] for line in log1.splitlines()[1:]}
        assert {"strike", "detected", "move_start", "move_complete",
                "dissipated", "survived"} <= kinds


class TestContinuousTime:
    def test_destroyed_between_integer_cycles(self):
        # The string clearance from (2, 2) mm is sqrt(5) mm, so the front
        # covers the string at t = sqrt(5) ~ 2.24, before the move starts at
        # t = 2.5; sampling at integer cycles misses it (radius 2 at t = 2,
        # and the qubit has moved away by t = 3).
        p = params(d=4, v_p=1.0, delta=1.5, r_max=6.0)
        q = LogicalQubit(LatticePoint(0, 0), 4)
        m = Mapping(1, 1, p, (q,), 40, 20)
        event = CreEvent(2.0, 2.0)
        plan = displacement_plan(0, q, 0, -4, detect(event, p) + 1)
        outcome = simulate(m, event, p, plan)
        assert outcome.survived[0] is False
        assert outcome.destroyed_at[0] == pytest.approx(math.sqrt(5))

    # r_max stays 0 or above 1e-6 mm, so that the front lives for more than
    # the float resolution of t0 and the oracle can see it.
    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 8), l=st.floats(0.5, 2.0),
           v_p=st.floats(0.25, 3.0), delta=st.floats(0.0, 8.0),
           r_max=st.just(0.0) | st.floats(1e-6, 20.0), t0=st.floats(0.0, 5.0),
           ex=st.floats(-8.0, 16.0), ey=st.floats(-8.0, 8.0),
           axis=st.sampled_from("xy"), shift=st.integers(-8, 8))
    # moves into the front: lost the moment the move starts, at t = 1
    @example(d=2, l=1.0, v_p=1.0, delta=0.0, r_max=3.0, t0=0.0, ex=-1.0,
             ey=0.0, axis="x", shift=-2)
    def test_matches_disc_count_oracle(self, d, l, v_p, delta, r_max, t0,
                                       ex, ey, axis, shift):
        p = params(l=l, d=d, v_p=v_p, delta=delta, r_max=r_max)
        q = LogicalQubit(LatticePoint(0, 0), d)
        m = Mapping(1, 1, p, (q,), 40, 40)
        event = CreEvent(ex, ey, t0)
        t_move = detect(event, p) + 1
        dx, dy = (shift, 0) if axis == "x" else (0, shift)
        plan = displacement_plan(0, q, dx, dy, t_move)
        outcome = simulate(m, event, p, plan)
        front = (event, p)
        t_end = t0 + p.t_dissipate_cycles

        def at(t):
            return q if t < t_move else q.translated(dx, dy)

        def overwhelmed(t, pos):
            return brute_force_compromised(front, pos, t) >= d - 1

        grid = [t0 + k / 16 for k in range(int((t_end - t0) * 16) + 1)]
        grid += [t for t in (t_move, t_end) if t0 <= t <= t_end]
        if outcome.survived[0]:
            assert not any(overwhelmed(t, at(t)) for t in grid)
        else:
            t_lost = outcome.destroyed_at[0]
            assert t0 <= t_lost <= t_end
            t_check = min(t_lost + 1e-9, t_end)
            assert overwhelmed(t_check, at(t_lost))
            assert not any(overwhelmed(t, at(t)) for t in grid if t < t_lost)


class TestSafety:
    def test_safe_iff_string_point_clears_r_max(self):
        p = params(d=4, r_max=5.0)
        q = LogicalQubit(LatticePoint(0, 0), 4)
        near = CreEvent(2.0, 0.0)     # clearance 1 mm < r_max
        far = CreEvent(2.0, 6.0)      # clearance > 6 mm
        assert not is_safe_position(q, near, p)
        assert is_safe_position(q, far, p)


class TestModelGap:
    """The solver's 1-D conditions are not conservative for a halfway strike.

    Condition 1 allows r < x0 - r + l(d - 1), but the whole string lies within
    about d*l/2 of its midpoint, so a point the solver calls feasible can lose
    the qubit before its move starts. This pins the documented gap.
    """

    @pytest.mark.parametrize("dx, dy", [(5, 0), (-5, 0), (0, 5)])
    def test_feasible_halfway_point_loses_qubit_before_move(self, dx, dy):
        p = PhysicalParams(1.0, 10, 1.0, 5.0, 1.0, 10.0, 5.0)
        for convention in (HALF_D_MM, HALF_SEPARATION):
            assert check_feasibility(p, StrikeScenario(HALFWAY, convention))
        q = LogicalQubit(LatticePoint(0, 0), p.d)
        m = Mapping(1, 1, p, (q,), 40, 40)
        event = CreEvent(5.0, 0.0)  # the string midpoint
        t_move = detect(event, p) + 1
        assert t_move == 6.0
        outcome = simulate(m, event, p,
                           displacement_plan(0, q, dx, dy, t_move))
        assert outcome.destroyed_at[0] == 4.0


class TestFlightDigest:
    """Pins plan_flight and simulate outputs over 1 000 seeded random strikes.

    The digest covers each plan's steps (qubit_id, hole_index, target,
    start_cycle), the event log, and the qubit named by UnescapableError. A
    change that alters any plan or log must update FLIGHT_DIGEST and say so
    in CHANGES.md. Raw destroyed_at floats are left out, so that a last-ulp
    difference in math.hypot between Python versions cannot flip it; the log
    prints them to six significant digits.
    """

    FLIGHT_DIGEST = ("01012e257d9080c2321f148d6fc5824b"
                     "1628a389b03d4cbfe3c8e0d1fc984c4d")

    def test_flight_outputs_match_digest(self):
        rng = random.Random(2024)
        h = hashlib.sha256()
        for _ in range(1000):
            d = rng.randint(2, 9)
            p = PhysicalParams(rng.choice((0.5, 1.0, 2.0)), d,
                               rng.choice((0.0, rng.uniform(0.1, 3.0))),
                               rng.uniform(0.0, 4.0), 1.0, rng.uniform(0.0, 20.0))
            m = build_mapping(rng.randint(1, 5), rng.randint(1, 5), p)
            event = CreEvent(rng.uniform(-0.1, 1.1) * m.width_mm,
                             rng.uniform(-0.1, 1.1) * m.height_mm,
                             rng.choice((0.0, 0.5, 7.0)))
            try:
                plan = plan_flight(m, event, p)
            except UnescapableError as exc:
                h.update(f"unescapable {exc.qubit_id}\n".encode())
                continue
            h.update(repr([(s.qubit_id, s.hole_index, s.target, s.start_cycle)
                           for s in plan.steps]).encode())
            h.update(simulate(m, event, p, plan).event_log_csv().encode())
        assert h.hexdigest() == self.FLIGHT_DIGEST


def reference_plan_flight(m, event, p):
    """Independent oracle: the sort-and-scan planner, before plan_flight
    indexed its obstacles and pruned its walk. It sorts every candidate
    target by (distance, y2, x2) and tests each leg against every other hole.
    """
    d = p.d
    t_move = detect(event, p) + 1.0

    def leg_blocked(a, b, obstacles):
        s = d * HOLE_SIDE_FRACTION
        x_lo, x_hi = min(a[0], b[0]) - s, max(a[0], b[0]) + s
        y_lo, y_hi = min(a[1], b[1]) - s, max(a[1], b[1]) + s
        return any(x_lo < hx < x_hi and y_lo < hy < y_hi
                   for hx, hy in obstacles)

    threatened = [(qid, q) for qid, q in enumerate(m.qubits)
                  if not is_safe_position(q, event, p)]
    threatened.sort(key=lambda item: (
        min(event.distance_mm(pt.physical(p.l_mm))
            for pt in item[1].all_points()),
        item[0]))
    occupancy = {qid: ((q.anchor.x, q.anchor.y), (q.anchor.x + d, q.anchor.y))
                 for qid, q in enumerate(m.qubits)}
    steps, fallback_qubits = [], []
    for qid, q in threatened:
        x, y = q.anchor.x, q.anchor.y
        channels = [y2 for y2 in (y - d, y + d) if 0 <= y2 <= m.height_units]
        candidates = sorted((math.hypot(x2 - x, y2 - y), y2, x2)
                            for y2 in channels
                            for x2 in range(0, m.width_units - d + 1))
        overrun = {y2: _span_crossing(q.translated(0, y2 - y), t_move,
                                      t_move + d, event, p) is not None
                   for y2 in channels}
        obstacles = [h for other, hs in occupancy.items() if other != qid
                     for h in hs]
        chosen = fallback = None
        for _, y2, x2 in candidates:
            if not is_safe_position(q.translated(x2 - x, y2 - y), event, p):
                continue
            if any(leg_blocked(a, b, obstacles) for a, b in (
                    ((x, y), (x, y2)), ((x + d, y), (x + d, y2)),
                    ((x, y2), (x2, y2)), ((x + d, y2), (x2 + d, y2)))):
                continue
            if fallback is None:
                fallback = (x2, y2)
            if not overrun[y2]:
                chosen = (x2, y2)
                break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            raise UnescapableError(qid)
        x2, y2 = chosen
        if overrun[y2]:
            fallback_qubits.append(qid)
        steps += [MoveStep(qid, 0, (x, y2), t_move),
                  MoveStep(qid, 1, (x + d, y2), t_move)]
        if x2 != x:
            order = (1, 0) if x2 > x else (0, 1)
            for k, hole_index in enumerate(order):
                hx = x2 + d if hole_index == 1 else x2
                steps.append(MoveStep(qid, hole_index, (hx, y2),
                                      t_move + d * (k + 1)))
        occupancy[qid] = ((x2, y2), (x2 + d, y2))
    return MovePlan(tuple(steps), tuple(fallback_qubits))


class TestReferencePlanner:
    """plan_flight against the sort-and-scan oracle on large mappings, where
    blocked legs, overrun channels and long outward walks are common."""

    def test_matches_reference_on_large_mappings(self):
        rng = random.Random(8)
        mappings = {}
        outcomes = []
        for _ in range(60):
            v_p, r_max = rng.choice(((2.5, 10.0), (0.05, 10.0),
                                     (0.05, rng.uniform(4.0, 24.0))))
            d = rng.choice((3, 4, 4, 5))
            n = rng.randint(6, 16)
            if (n, d) not in mappings:
                mappings[n, d] = build_mapping(n, n, params(d=d))
            m = mappings[n, d]
            p = params(d=d, v_p=v_p, delta=rng.uniform(1.05, 1.95),
                       r_max=r_max)
            event = CreEvent(rng.uniform(0.0, m.width_mm),
                             rng.uniform(0.0, m.height_mm),
                             rng.choice((0.0, 7.0)))
            results = []
            for planner in (plan_flight, reference_plan_flight):
                try:
                    results.append(planner(m, event, p))
                except UnescapableError as exc:
                    results.append(exc.qubit_id)
            assert results[0] == results[1], (n, d, p, event)
            outcomes.append(results[0])
        # The draw covers all three outcomes.
        assert any(isinstance(o, int) for o in outcomes)
        assert any(isinstance(o, MovePlan) and o.fallback_qubits
                   for o in outcomes)
        assert any(isinstance(o, MovePlan) and len(o.steps) > 20
                   for o in outcomes)
