import csv
import hashlib
import importlib
import io
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crflight.mapping import Mapping, build_mapping
from crflight.model import (HOLE_SIDE_FRACTION, CreEvent, LatticePoint,
                            LogicalQubit, PhysicalParams, string_clearance_at)
from crflight.simulate import (MovePlan, MoveStep, UnescapableError,
                               _crossing, _threatened, detect,
                               displacement_plan, plan_flight, simulate)
from crflight.solver import (HALF_D_MM, HALF_SEPARATION, HALFWAY,
                             StrikeScenario, check_feasibility)

from brute_force import brute_force_clearance, brute_force_compromised


def params(l=1.0, d=4, v_p=2.5, delta=1.0, t_c=1.0, r_max=6.0, dl=1.0):
    return PhysicalParams(l, d, v_p, delta, t_c, r_max, dl)


def translated(q, dx, dy):
    """The qubit q moved by (dx, dy) lattice units."""
    return LogicalQubit(LatticePoint(q.anchor.x + dx, q.anchor.y + dy),
                        q.code_distance)


class TestDetect:
    def test_zero_latency(self):
        assert detect(CreEvent(0, 0), params(delta=0.0)) == 0.0

    def test_one_cycle(self):
        assert detect(CreEvent(0, 0), params(delta=1.0)) == 1.0

    def test_long_latency(self):
        assert detect(CreEvent(0, 0, t0_cycles=3.0), params(delta=25.0)) == 28.0


# (mapping, params of another mapping): holes move by p.d on the mapping's
# lattice, and the row index is in the mapping's lattice units.
OTHER_MAPPING_PARAMS = pytest.mark.parametrize("m, p", [
    (Mapping(1, 1, params(d=5), (LogicalQubit(LatticePoint(8, 8), 5),),
             40, 20), params(d=4)),
    (build_mapping(2, 2, params(d=5)), params(d=4)),
    (build_mapping(2, 2, params()), params(l=0.5)),
], ids=["single-qubit-d", "2x2-d", "2x2-l"])


class TestPlanFlight:
    @OTHER_MAPPING_PARAMS
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
            q = m.qubits[exc.qubit_id]
            assert brute_force_clearance(q, event, p.l_mm) < p.r_max_mm
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
    @OTHER_MAPPING_PARAMS
    def test_rejects_params_of_another_mapping(self, m, p):
        # simulate once judged such a p silently: with l_mm = 0.5 it put the
        # 2x2 chip's qubits at half their distances and lost qubit 3 at
        # t ~ 1.61, which the mapping's own l_mm keeps out of reach.
        with pytest.raises(ValueError, match="the mapping's differ"):
            simulate(m, CreEvent(10.0, 8.0), p, MovePlan())

    def test_zero_speed_all_survive(self):
        p = params(v_p=0.0, r_max=1000.0)
        m = build_mapping(2, 2, p)
        event = CreEvent(m.width_mm / 2, m.height_mm / 2)
        outcome = simulate(m, event, p, MovePlan())
        assert all(outcome.survived.values())

    def test_stationary_qubit_on_epicenter_destroyed(self):
        p = params(r_max=100.0)
        m = build_mapping(1, 1, p)
        hole = m.qubits[0].holes[0].center
        outcome = simulate(m, CreEvent(hole.x * p.l_mm, hole.y * p.l_mm), p,
                           MovePlan())
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
            return q if t < t_move else translated(q, dx, dy)

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
        # The planner moves exactly the qubits whose clearance is below r_max.
        p = params(d=4, r_max=5.0)
        q = LogicalQubit(LatticePoint(0, 0), 4)
        m = Mapping(1, 1, p, (q,), 40, 40)
        near = CreEvent(2.0, 0.0)     # clearance 1 mm < r_max
        far = CreEvent(2.0, 6.0)      # clearance > 6 mm
        assert brute_force_clearance(q, near, p.l_mm) < p.r_max_mm
        assert brute_force_clearance(q, far, p.l_mm) > 6.0
        assert plan_flight(m, near, p).qubit_ids() == (0,)
        assert plan_flight(m, far, p) == MovePlan()


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
                  if brute_force_clearance(q, event, p.l_mm) < p.r_max_mm]
    threatened.sort(key=lambda item: (
        min(math.hypot((item[1].anchor.x + k) * p.l_mm - event.x_mm,
                       item[1].anchor.y * p.l_mm - event.y_mm)
            for k in range(d + 1)),
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
        overrun = {y2: _crossing(brute_force_clearance(translated(q, 0, y2 - y),
                                                       event, p.l_mm),
                                 t_move, t_move + d, event, p) is not None
                   for y2 in channels}
        obstacles = [h for other, hs in occupancy.items() if other != qid
                     for h in hs]
        chosen = fallback = None
        for _, y2, x2 in candidates:
            moved = translated(q, x2 - x, y2 - y)
            if brute_force_clearance(moved, event, p.l_mm) < p.r_max_mm:
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

    def test_matches_reference_on_monte_carlo_traffic(self):
        # Simulator-mode Monte Carlo's traffic in the benchmark: 1x1 to 4x4
        # chips, d = 4, v_p 2.5, r_max 8, delta 1.5, uniform strikes at t0 0.
        rng = random.Random(21)
        p = params(d=4, v_p=2.5, delta=1.5, r_max=8.0)
        mappings = [build_mapping(n, n, p) for n in range(1, 5)]
        outcomes = []
        for _ in range(400):
            m = rng.choice(mappings)
            event = CreEvent(rng.uniform(0.0, m.width_mm),
                             rng.uniform(0.0, m.height_mm), 0.0)
            results = []
            for planner in (plan_flight, reference_plan_flight):
                try:
                    results.append(planner(m, event, p))
                except UnescapableError as exc:
                    results.append(exc.qubit_id)
            assert results[0] == results[1], (m.rows, event)
            outcomes.append(results[0])
        assert any(isinstance(o, int) for o in outcomes)
        assert any(isinstance(o, MovePlan) and o.fallback_qubits
                   for o in outcomes)
        assert any(isinstance(o, MovePlan) and o.steps and not o.fallback_qubits
                   for o in outcomes)

    def test_blocked_vertical_legs_close_a_channel(self):
        # Qubit 1 sits two rows above qubit 0, across both of its upward
        # legs, so qubit 0 must flee down, not through qubit 1 into row 12.
        p = params(d=4, v_p=0.05, delta=1.0, r_max=7.0)
        m = Mapping(1, 1, p, (LogicalQubit(LatticePoint(8, 8), 4),
                              LogicalQubit(LatticePoint(8, 10), 4)), 30, 20)
        event = CreEvent(10.0, 6.0)
        plan = plan_flight(m, event, p)
        assert plan == reference_plan_flight(m, event, p)
        mine = [s.target for s in plan.steps if s.qubit_id == 0]
        assert mine[:2] == [(8, 4), (12, 4)] and (2, 4) in mine
        assert all(y2 != 12 for _, y2 in mine)

    def test_walk_starts_at_first_column_in_bounds(self):
        # An anchor two columns left of the chip: its nearest targets lie
        # k = 2 columns right, and the walk must not drop that direction
        # while k is too small to reach the chip.
        p = params(d=4, v_p=0.05, delta=1.0, r_max=3.0)
        m = Mapping(1, 1, p, (LogicalQubit(LatticePoint(-2, 8), 4),), 30, 20)
        event = CreEvent(0.0, 8.0)
        plan = plan_flight(m, event, p)
        assert plan == reference_plan_flight(m, event, p)
        assert plan.steps[-1].target == (0, 4)

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(2, 6),
           anchor=st.tuples(st.integers(-4, 24), st.integers(-4, 24)),
           size=st.tuples(st.integers(0, 40), st.integers(0, 40)),
           second=st.none() | st.tuples(st.integers(-12, 12),
                                        st.integers(1, 5), st.booleans()),
           v_p=st.sampled_from((0.0, 0.05, 0.3, 2.5)), delta=eighths(0.0, 3.0),
           r_max=eighths(0.0, 12.0), fx=st.floats(-0.1, 1.1),
           fy=st.floats(-0.1, 1.1))
    def test_matches_reference_on_drawn_chips(self, d, anchor, size, second,
                                              v_p, delta, r_max, fx, fy):
        # One qubit anywhere on a frame of any size, anchors off the chip
        # included, or two whose rows lie 1 to d - 1 apart, so that one
        # qubit's holes can block the other's vertical legs.
        p = params(d=d, v_p=v_p, delta=delta, r_max=r_max)
        qubits = [LogicalQubit(LatticePoint(*anchor), d)]
        if second is not None:
            dx, dy, below = second
            dy = 1 + (dy - 1) % (d - 1)
            qubits.append(LogicalQubit(LatticePoint(
                anchor[0] + dx, anchor[1] + (-dy if below else dy)), d))
        m = Mapping(1, 1, p, tuple(qubits), *size)
        event = CreEvent(fx * max(m.width_mm, 1.0), fy * max(m.height_mm, 1.0))
        results = []
        for planner in (plan_flight, reference_plan_flight):
            try:
                results.append(planner(m, event, p))
            except UnescapableError as exc:
                results.append(exc.qubit_id)
        assert results[0] == results[1]


# The module, which the package's simulate function shadows as an attribute.
SIMULATE_MODULE = importlib.import_module("crflight.simulate")


def every_qubit(m, event, p):
    """Stands in for ``_threatened``: a pass over every qubit with the
    brute-force clearance."""
    return [qid for qid, q in enumerate(m.qubits)
            if brute_force_clearance(q, event, p.l_mm) < p.r_max_mm]


class TestCullingOracle:
    """plan_flight and simulate find the threatened qubits through the
    mapping's row index. Checked here against passes over every qubit: the
    brute-force threatened set, the reference planner, and simulate with
    ``_threatened`` replaced by ``every_qubit``."""

    def test_matches_every_qubit_pass(self, monkeypatch):
        rng = random.Random(13)
        kinds = set()
        for _ in range(600):
            d = rng.randint(2, 5)
            # Several qubits per row on a 2d pitch, so every row keeps its
            # channels, listed in a shuffled order so ids are not x order.
            anchors = [(d + 2 * d * j, d + 2 * d * i) for i in range(3)
                       for j in range(5) if rng.random() < 0.6] or [(d, d)]
            rng.shuffle(anchors)
            p = params(l=rng.choice((0.5, 1.0, 2.5)), d=d,
                       v_p=rng.choice((0.0, 0.05, rng.uniform(0.1, 3.0))),
                       delta=rng.uniform(0.0, 3.0),
                       r_max=rng.choice((0.0, rng.uniform(0.5, 8.0), 200.0)))
            m = Mapping(1, 1, p, tuple(LogicalQubit(LatticePoint(*a), d)
                                       for a in anchors), 10 * d + d, 6 * d)
            event = CreEvent(rng.uniform(-0.2, 1.2) * m.width_mm,
                             rng.uniform(-0.2, 1.2) * m.height_mm,
                             rng.choice((0.0, 7.0)))
            near = _threatened(m, event, p)
            assert near == every_qubit(m, event, p)
            kinds.add("culled" if len(near) < len(m.qubits) else "all near")

            results = []
            for planner in (plan_flight, reference_plan_flight):
                try:
                    results.append(planner(m, event, p))
                except UnescapableError as exc:
                    results.append(exc.qubit_id)
            assert results[0] == results[1], (anchors, p, event)
            qid = rng.randrange(len(m.qubits))
            plans = [MovePlan(), displacement_plan(
                qid, m.qubits[qid], rng.randint(-3 * d, 3 * d),
                rng.randint(-3 * d, 3 * d), detect(event, p) + 1.0)]
            if isinstance(results[0], MovePlan):
                plans.append(results[0])
            for plan in plans:
                got = simulate(m, event, p, plan)
                with monkeypatch.context() as patch:
                    patch.setattr(SIMULATE_MODULE, "_threatened", every_qubit)
                    want = simulate(m, event, p, plan)
                assert got == want
                assert list(got.destroyed_at) == list(want.destroyed_at)
                assert got.event_log_csv() == want.event_log_csv()
                if got.destroyed_at:
                    kinds.add("lost")
        assert kinds == {"culled", "all near", "lost"}

    @pytest.mark.parametrize("l", [1.0, 0.5])
    def test_clearance_equal_to_r_max_is_safe(self, l):
        # The string ends (1, 0) and (3, 0) lie 4.12 l and exactly 5 l (a
        # 3-4-5 triangle) from the strike at (0, 4) l, so the clearance is
        # r_max: the front stops at the far end, and the qubit stays put.
        q = LogicalQubit(LatticePoint(0, 0), 4)
        event = CreEvent(0.0, 4.0 * l)
        for r_max, safe in ((5.0 * l, True), (5.0 * l + 1e-9, False)):
            p = params(l=l, v_p=1.0, r_max=r_max)
            m = Mapping(1, 1, p, (q,), 40, 40)
            assert brute_force_clearance(q, event, l) == 5.0 * l
            assert string_clearance_at(0, 0, 4, event, l) == 5.0 * l
            assert _threatened(m, event, p) == ([] if safe else [0])
            plan = plan_flight(m, event, p)
            assert (plan == MovePlan()) is safe
            outcome = simulate(m, event, p, MovePlan())
            assert outcome.survived == {0: safe}


def reference_destruction_times(m, event, p, plan):
    """Independent oracle: the span walk over LogicalQubit objects. Every
    qubit holds its mapped position, then, in step start order, the qubit
    anchored at each step's target less hole_index * d along x; each span is
    judged by the brute-force clearance and _crossing."""
    destroyed_at = {}
    for qid, q in enumerate(m.qubits):
        d = q.code_distance
        spans = [(-math.inf, q)]
        for s in sorted((s for s in plan.steps if s.qubit_id == qid),
                        key=lambda s: s.start_cycle):
            anchor = LatticePoint(s.target[0] - s.hole_index * d, s.target[1])
            if anchor != spans[-1][1].anchor:
                spans.append((s.start_cycle, LogicalQubit(anchor, d)))
        for k, (start, moved) in enumerate(spans):
            end = spans[k + 1][0] if k + 1 < len(spans) else math.inf
            t = _crossing(brute_force_clearance(moved, event, p.l_mm), start,
                          end, event, p)
            if t is not None:
                destroyed_at[qid] = t
                break
    return destroyed_at


class TestSpanWalkOracle:
    """simulate's destruction times, values and order, against the span walk
    over LogicalQubit objects, for the empty, a displacement and the
    planner's plan, and for the planner's steps in any order."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4), d=st.integers(2, 6),
           l=st.sampled_from((0.5, 1.0, 2.0)),
           v_p=st.sampled_from((0.05, 2.5)) | st.floats(0.1, 3.0),
           delta=st.floats(0.0, 5.0), r_max=st.floats(0.5, 20.0),
           t0=st.sampled_from((0.0, 7.0)) | st.floats(0.0, 50.0),
           fx=st.floats(-0.2, 1.2), fy=st.floats(-0.2, 1.2),
           shift=st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
           order=st.randoms(use_true_random=False))
    # the planner's route: a vertical batch, then a two-batch run, and the
    # front overruns the stopover at t = sqrt(20)
    @example(rows=1, cols=1, d=4, l=1.0, v_p=1.0, delta=1.0, r_max=5.0,
             t0=0.0, fx=5 / 12, fy=0.5, shift=(0, -4),
             order=random.Random(1))
    def test_matches_object_walk(self, rows, cols, d, l, v_p, delta, r_max,
                                 t0, fx, fy, shift, order):
        p = params(l=l, d=d, v_p=v_p, delta=delta, r_max=r_max)
        m = build_mapping(rows, cols, p)
        event = CreEvent(fx * m.width_mm, fy * m.height_mm, t0)
        qid = len(m.qubits) // 2
        plans = [MovePlan(), displacement_plan(qid, m.qubits[qid], *shift,
                                               detect(event, p) + 1.0)]
        try:
            plans.append(plan_flight(m, event, p))
        except UnescapableError:
            pass
        for plan in plans:
            want = list(reference_destruction_times(m, event, p, plan).items())
            got = simulate(m, event, p, plan).destroyed_at
            assert list(got.items()) == want
            steps = list(plan.steps)
            order.shuffle(steps)
            got = simulate(m, event, p, MovePlan(tuple(steps))).destroyed_at
            assert list(got.items()) == want


def reference_event_log_csv(timeline):
    """Independent oracle: every row of the event log, survivors included,
    written through csv.writer."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["cycle", "event_kind", "qubit_id", "detail"])
    for cycle, kind, qid, detail in timeline:
        w.writerow([f"{cycle:g}", kind, "" if qid is None else qid, detail])
    return buf.getvalue()


class TestReportOracle:
    """simulate puts the survivor records into its sorted timeline as one
    block, and event_log_csv preformats their rows. Checked here against a
    full sort of the timeline and the csv.writer rendering of it."""

    # On a 2x2 d = 4 chip, (0.3, 0.25) of the frame is qubit 0's string
    # midpoint, (6, 4) mm. The examples take t0 = 0, 0.5 and 7.
    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4), d=st.integers(2, 6),
           l=st.sampled_from((0.5, 1.0, 2.0)),
           v_p=st.sampled_from((0.0, 0.05, 2.5, 50.0)) | st.floats(0.1, 3.0),
           delta=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 5.0),
           r_max=st.just(0.0) | st.floats(0.5, 40.0),
           t0=st.sampled_from((0.0, 0.5, 7.0)) | st.floats(0.0, 100.0),
           fx=st.floats(-0.5, 1.5), fy=st.floats(-0.5, 1.5),
           planned=st.booleans())
    # v_p = 0: the survivors sit at t0, next to the strike
    @example(rows=2, cols=2, d=4, l=1.0, v_p=0.0, delta=1.0, r_max=6.0,
             t0=0.5, fx=0.3, fy=0.25, planned=True)
    # delta = 0: detected at t0; a move completes after dissipation
    @example(rows=2, cols=2, d=4, l=1.0, v_p=0.5, delta=0.0, r_max=6.0,
             t0=0.0, fx=0.3, fy=0.25, planned=True)
    # a fast front: dissipated at t0 + 0.06, moves start and complete later
    @example(rows=2, cols=2, d=4, l=1.0, v_p=50.0, delta=1.0, r_max=3.0,
             t0=7.0, fx=0.3, fy=0.25, planned=True)
    # destroys every qubit: no survivor records
    @example(rows=2, cols=2, d=4, l=1.0, v_p=2.5, delta=1.0, r_max=40.0,
             t0=0.0, fx=0.3, fy=0.25, planned=False)
    # threatens none: every qubit survives
    @example(rows=2, cols=2, d=4, l=1.0, v_p=2.5, delta=1.0, r_max=6.0,
             t0=0.5, fx=-0.5, fy=-0.5, planned=True)
    def test_timeline_sorted_and_log_matches_writer(
            self, rows, cols, d, l, v_p, delta, r_max, t0, fx, fy, planned):
        p = params(l=l, d=d, v_p=v_p, delta=delta, r_max=r_max)
        m = build_mapping(rows, cols, p)
        event = CreEvent(fx * m.width_mm, fy * m.height_mm, t0)
        plan = MovePlan()
        if planned:
            try:
                plan = plan_flight(m, event, p)
            except UnescapableError:
                pass
        outcome = simulate(m, event, p, plan)
        timeline = list(outcome.timeline)
        assert timeline == sorted(timeline, key=lambda rec: (
            rec[0], rec[1], -1 if rec[2] is None else rec[2]))
        assert [rec[2] for rec in timeline if rec[1] == "survived"] == [
            qid for qid, ok in outcome.survived.items() if ok]
        assert outcome.event_log_csv() == reference_event_log_csv(timeline)
