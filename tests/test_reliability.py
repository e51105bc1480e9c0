import hashlib
import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crflight.mapping import build_mapping
from crflight.model import HOLE_SIDE_FRACTION, CreEvent, PhysicalParams
from crflight.reliability import (FRAME_HEIGHT_CELLS, FRAME_WIDTH_CELLS,
                                  HOLE_CELLS, ReliabilityParams,
                                  _trial_failures, failure_probability,
                                  monte_carlo_failure, p_few_hits)
from crflight.simulate import UnescapableError, plan_flight, simulate


def mpmath_poisson_cdf(k, mean):
    """Reference P[N <= k] at 50 decimal digits, summed term by term."""
    with mpmath.workdps(50):
        mean = mpmath.mpf(mean)
        total = mpmath.mpf(0)
        for i in range(k + 1):
            total += mpmath.e ** (-mean) * mean ** i / mpmath.factorial(i)
        return float(total)


class TestHoleHit:
    def test_canonical_frame(self):
        # two hole cells in the 10 x 5-cell reference frame
        assert ReliabilityParams(0.1, 1.0, 11).p_hole_hit == 2.0 / 50.0

    @pytest.mark.parametrize("d, l_mm", [(2, 1.0), (5, 0.3), (11, 1.0),
                                         (24, 2.5), (101, 0.07)])
    def test_matches_monte_carlo_frame(self, d, l_mm):
        # The analytic Monte Carlo samples two unit hole cells in a frame of
        # cells d * l_mm * HOLE_SIDE_FRACTION on a side: in mm, the holes lie
        # d * l_mm apart, centred in the frame and wholly inside it.
        cell = d * l_mm * HOLE_SIDE_FRACTION
        (nx, ny), (fx, fy) = HOLE_CELLS
        assert (fx - nx) * cell == pytest.approx(d * l_mm, rel=1e-12)
        assert (nx + fx) / 2 == FRAME_WIDTH_CELLS / 2
        assert ny == fy == FRAME_HEIGHT_CELLS / 2
        assert 0.5 <= nx and fx <= FRAME_WIDTH_CELLS - 0.5
        assert ReliabilityParams(0.1, 1.0, d).p_hole_hit == pytest.approx(
            2 / (FRAME_WIDTH_CELLS * FRAME_HEIGHT_CELLS), rel=1e-12)


class TestPoissonTail:
    def test_no_events(self):
        assert p_few_hits(11, 0.1, 0.0) == 1.0
        assert p_few_hits(11, 0.0, 5.0) == 1.0

    def test_smallest_distance_is_bare_exponential(self):
        # d = 2 keeps only the zero-event term
        assert p_few_hits(2, 1.0, 0.1) == pytest.approx(math.exp(-0.1), rel=1e-15)

    def test_matches_reference_sum(self):
        for d, mean in [(2, 0.1), (5, 1.0), (11, 3.0), (50, 40.0), (200, 10.0)]:
            got = p_few_hits(d, mean, 1.0)
            want = mpmath_poisson_cdf(d - 2, mean)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d, mean", [(800, 720.0), (800, 740.0),
                                         (900, 744.0), (2000, 1000.0)])
    def test_matches_reference_sum_where_exp_underflows(self, d, mean):
        # exp(-mean) is subnormal above mean ~708 and 0.0 above ~745. A sum
        # started from it lost precision (2.6e-3 at (800, 740)), then gave
        # 0.0 where the answer is 1.0.
        want = mpmath_poisson_cdf(d - 2, mean)
        assert p_few_hits(d, mean, 1.0) == pytest.approx(want, rel=1e-9)

    def test_stops_once_terms_reach_zero(self):
        # The loop once ran d - 1 times after its terms reached 0.0, which
        # took about 8 s at this d.
        start = time.perf_counter()
        assert p_few_hits(10**8, 0.1, 1.0) == p_few_hits(1000, 0.1, 1.0)
        assert time.perf_counter() - start < 1.0

    @given(st.integers(2, 100), st.floats(0.0, 20.0))
    def test_monotone_in_d(self, d, mean):
        assert p_few_hits(d, mean, 1.0) <= p_few_hits(d + 1, mean, 1.0)

    @given(st.integers(2, 50), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_monotone_in_mean(self, d, m1, m2):
        if m1 > m2:
            m1, m2 = m2, m1
        # monotone up to rounding in the term sum (a few ulps near 1.0)
        assert p_few_hits(d, m1, 1.0) >= p_few_hits(d, m2, 1.0) - 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            p_few_hits(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            p_few_hits(5, 1.0, -1.0)


class TestFailureProbability:
    def test_instant_flight_leaves_only_hole_risk(self):
        r = ReliabilityParams(0.1, 0.0, 11)
        assert failure_probability(r) == pytest.approx(0.04, abs=1e-15)

    def test_smallest_distance_slow_flight(self):
        r = ReliabilityParams(1.0, 0.1, 2)
        want = 1.0 - 0.96 * math.exp(-0.1)
        assert failure_probability(r) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(0.13135607868547894, rel=1e-15)

    def test_bounded(self):
        for tau in (0.0, 0.1, 1.0, 100.0):
            p = failure_probability(ReliabilityParams(1.0, tau, 5))
            assert 0.0 <= p <= 1.0

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
    def test_monotone_in_tau(self, t1, t2):
        if t1 > t2:
            t1, t2 = t2, t1
        a = failure_probability(ReliabilityParams(1.0, t1, 7))
        b = failure_probability(ReliabilityParams(1.0, t2, 7))
        assert a <= b

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ReliabilityParams(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            ReliabilityParams(1.0, -1.0, 5)
        with pytest.raises(ValueError):
            ReliabilityParams(1.0, 1.0, 1)

    def test_infinite_rate_always_fails(self):
        # exp(-inf) * inf in the Poisson recurrence used to give NaN
        assert p_few_hits(5, math.inf, 1.0) == 0.0
        assert failure_probability(ReliabilityParams(math.inf, 1.0, 11)) == 1.0

    def test_nan_rate_times_duration_rejected(self):
        # inf * 0 = NaN slipped past the m < 0 check and came out as NaN.
        with pytest.raises(ValueError, match="lambda \\* tau must be >= 0"):
            failure_probability(ReliabilityParams(math.inf, 0.0, 11))

    def test_params_reject_nan(self):
        with pytest.raises(ValueError):
            ReliabilityParams(math.nan, 1.0, 5)
        with pytest.raises(ValueError):
            ReliabilityParams(1.0, math.nan, 5)


class TestMonteCarlo:
    def setup_method(self):
        self.p = PhysicalParams(1.0, 4, 2.5, 1.0, 1.0, 5.0)
        self.m = build_mapping(2, 2, self.p)

    def test_same_seed_reproduces(self):
        r = ReliabilityParams(1.0, 0.1, 2)
        a = monte_carlo_failure(self.m, self.p, r, 2000, seed=7)
        b = monte_carlo_failure(self.m, self.p, r, 2000, seed=7)
        assert a == b

    def test_different_seed_differs(self):
        r = ReliabilityParams(1.0, 0.1, 2)
        a = monte_carlo_failure(self.m, self.p, r, 2000, seed=7)
        b = monte_carlo_failure(self.m, self.p, r, 2000, seed=8)
        assert a != b

    def test_tracks_analytic_model(self):
        r = ReliabilityParams(1.0, 0.1, 2)
        est, hw = monte_carlo_failure(self.m, self.p, r, 20000, seed=1)
        assert abs(est - failure_probability(r)) < 3.0 * (hw / 1.96)

    def test_prefix_stability(self):
        # the first n trials are the same regardless of how many more are
        # requested
        r = ReliabilityParams(1.0, 0.5, 3)
        for predicate in ("analytic", "simulator"):
            short = _trial_failures(self.m, self.p, r, 500, 3, predicate)
            lng = _trial_failures(self.m, self.p, r, 1000, 3, predicate)
            assert short.dtype == bool and short.shape == (500,)
            assert np.array_equal(lng[:500], short)

    def test_simulator_mode_rejects_other_code_distance(self):
        # Strikes are counted against r.d but the simulated qubits have the
        # mapping's d: on this d = 4 chip r.d = 4 gave 0.08 and r.d = 12 gave 0.0.
        p = PhysicalParams(1.0, 4, 0.5, 1.0, 1.0, 6.0)
        m = build_mapping(2, 2, p)
        r = ReliabilityParams(1.0, 1.0, 12)
        with pytest.raises(ValueError, match="simulator mode needs r.d = 4"):
            monte_carlo_failure(m, p, r, 400, seed=1, predicate="simulator")
        # analytic mode samples its own reference frame, so any r.d is fine
        est, _ = monte_carlo_failure(m, p, r, 400, seed=1)
        assert 0.0 < est < 1.0

    def test_simulator_mode_rejects_params_of_another_mapping(self):
        # At lambda * tau = 60 every trial fails by count, so the check in
        # the flight never ran: l_mm = 2 on this l = 1 chip gave (1.0, 0.0),
        # where lambda * tau = 0.5 raised.
        r = ReliabilityParams(60.0, 1.0, self.p.d)
        for p in (replace(self.p, l_mm=2.0), replace(self.p, d=5)):
            with pytest.raises(ValueError, match="the mapping's differ"):
                monte_carlo_failure(self.m, p, r, 200, 4, predicate="simulator")

    def test_analytic_mode_needs_no_mapping(self):
        r = ReliabilityParams(1.0, 0.5, self.p.d)
        assert (monte_carlo_failure(None, self.p, r, 500, seed=3)
                == monte_carlo_failure(self.m, self.p, r, 500, seed=3))
        with pytest.raises(ValueError, match="simulator mode needs a mapping"):
            monte_carlo_failure(None, self.p, r, 500, seed=3,
                                predicate="simulator")

    @given(st.integers(0, 2 ** 32), st.integers(2, 12),
           st.floats(0.0, 15.0), st.floats(0.1, 3.0))
    def test_analytic_mode_matches_trial_loop(self, seed, d, mean, l_mm):
        # Oracle: draw the same two Philox streams and judge each trial in
        # plain Python with the scalar hole-cell test.
        n = 300
        r = ReliabilityParams(1.0, mean, d)
        p = PhysicalParams(l_mm, d, 2.5, 1.0, 1.0, 5.0)
        point_seed, count_seed = np.random.SeedSequence(seed).spawn(2)
        u = np.random.Generator(np.random.Philox(point_seed)).random((n, 2))
        counts = np.random.Generator(np.random.Philox(count_seed)).poisson(mean, n)
        cell = d * l_mm / 4.0
        width, height = 10 * cell, 5 * cell
        holes = [(width / 2.0 - d * l_mm / 2.0, height / 2.0),
                 (width / 2.0 + d * l_mm / 2.0, height / 2.0)]
        want = []
        for i in range(n):
            x, y = u[i, 0] * width, u[i, 1] * height
            in_hole = any(abs(x - cx) < cell / 2.0 and abs(y - cy) < cell / 2.0
                          for cx, cy in holes)
            want.append(in_hole or int(counts[i]) >= d - 1)
        got = _trial_failures(self.m, p, r, n, seed, "analytic")
        assert got.tolist() == want

    def test_simulator_mode_skips_trials_failed_by_count(self, monkeypatch):
        # mean 60 with d = 4: every trial draws at least 3 strikes
        r = ReliabilityParams(60.0, 1.0, self.p.d)

        def boom(*args, **kwargs):
            raise AssertionError("a failed trial was flown")

        monkeypatch.setattr("crflight.reliability._flight_lost", boom)
        est, hw = monte_carlo_failure(self.m, self.p, r, 200, seed=4,
                                      predicate="simulator")
        assert est == 1.0 and hw == 0.0

    def test_returns_python_floats(self):
        # the CLI writes repr() of both values into reliability.csv
        r = ReliabilityParams(1.0, 0.1, 2)
        est, hw = monte_carlo_failure(self.m, self.p, r, 100, seed=1)
        assert type(est) is float and type(hw) is float

    def test_simulator_mode_runs(self):
        r = ReliabilityParams(1.0, 0.1, self.p.d)
        est, hw = monte_carlo_failure(self.m, self.p, r, 50, seed=2,
                                      predicate="simulator")
        assert 0.0 <= est <= 1.0
        assert hw >= 0.0

    def test_rejects_bad_arguments(self):
        r = ReliabilityParams(1.0, 0.1, 2)
        with pytest.raises(ValueError):
            monte_carlo_failure(self.m, self.p, r, 0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_failure(self.m, self.p, r, 10, seed=1, predicate="bogus")
        # numpy's Poisson draw rejects a mean above about 9.2e18
        with pytest.raises(ValueError, match=r"lambda_per_s \* tau_s = 1e\+300"):
            monte_carlo_failure(self.m, self.p, ReliabilityParams(1e300, 1.0, 2),
                                10, seed=1)


class TestSimulatorModeOracle:
    """Simulator-mode flags against the full flight report: a trial fails
    when d - 1 or more strikes arrive, when the planner finds no escape, or
    when ``simulate`` reports any qubit of the chip lost."""

    def test_matches_simulate_report(self):
        r = ReliabilityParams(3.0, 0.5, 4)
        n = 120
        kinds = set()
        for v_p, delta, r_max in ((2.5, 1.5, 8.0),   # the benchmark's physics
                                  (0.5, 1.0, 6.0),   # the README's chip
                                  (1.0, 1.0, 5.0)):
            p = PhysicalParams(1.0, 4, v_p, delta, 1.0, r_max)
            for side, seed in ((1, 3), (2, 5), (3, 8), (4, 13)):
                m = build_mapping(side, side, p)
                point_seed, count_seed = np.random.SeedSequence(seed).spawn(2)
                u = np.random.Generator(np.random.Philox(point_seed)).random(
                    (n, 2))
                counts = np.random.Generator(np.random.Philox(
                    count_seed)).poisson(r.lambda_per_s * r.tau_s, n)
                want = []
                for i in range(n):
                    event = CreEvent(float(u[i, 0] * m.width_mm),
                                     float(u[i, 1] * m.height_mm), 0.0)
                    try:
                        plan = plan_flight(m, event, p)
                        outcome = simulate(m, event, p, plan)
                        lost = not all(outcome.survived.values())
                        if plan.fallback_qubits:
                            kinds.add("fallback")
                        kinds.add("lost" if lost else "survived")
                    except UnescapableError:
                        lost = True
                        kinds.add("unescapable")
                    want.append(bool(counts[i] >= r.d - 1) or lost)
                got = _trial_failures(m, p, r, n, seed, "simulator")
                assert got.tolist() == want, (v_p, side)
        assert kinds == {"unescapable", "fallback", "lost", "survived"}


def public_flags(m, p, r, n, seed, kinds):
    """Simulator-mode flags judged through the public flight API only: a
    trial fails when d - 1 or more strikes arrive, when plan_flight raises
    UnescapableError, or when simulate reports any qubit of the chip lost.
    Adds each flown trial's outcomes to ``kinds``; "lost later" is a loss
    while the qubit planned first survives."""
    point_seed, count_seed = np.random.SeedSequence(seed).spawn(2)
    u = np.random.Generator(np.random.Philox(point_seed)).random((n, 2))
    counts = np.random.Generator(np.random.Philox(count_seed)).poisson(
        r.lambda_per_s * r.tau_s, n)
    flags = []
    for i in range(n):
        if counts[i] >= r.d - 1:
            flags.append(True)
            continue
        event = CreEvent(float(u[i, 0] * m.width_mm),
                         float(u[i, 1] * m.height_mm), 0.0)
        try:
            plan = plan_flight(m, event, p)
        except UnescapableError:
            kinds.add("unescapable")
            flags.append(True)
            continue
        survived = simulate(m, event, p, plan).survived
        lost = not all(survived.values())
        if plan.fallback_qubits:
            kinds.add("fallback")
        kinds.add("lost" if lost else "survived")
        if lost and plan.steps and survived[plan.steps[0].qubit_id]:
            kinds.add("lost later")
        flags.append(lost)
    return flags


class TestSimulatorModeProperty:
    """Simulator mode stops a trial at its first lost qubit. Checked per
    trial, on drawn chips and physics, against the public flight API."""

    def test_matches_public_flight(self):
        kinds = set()

        @settings(max_examples=150, deadline=None)
        @given(rows=st.integers(1, 4), cols=st.integers(1, 4),
               d=st.integers(2, 6), l=st.sampled_from((0.5, 1.0, 2.0)),
               v_p=st.sampled_from((0.0, 0.05, 2.5)) | st.floats(0.1, 3.0),
               delta=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 5.0),
               r_max=st.just(0.0) | st.floats(0.5, 20.0),
               mean=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32))
        # Every trial flies, and they fall back, are lost, survive, find no
        # escape, and once lose a qubit planned after one that survives.
        @example(rows=3, cols=3, d=4, l=1.0, v_p=1.0, delta=0.5, r_max=12.0,
                 mean=0.0, seed=2)
        def check(rows, cols, d, l, v_p, delta, r_max, mean, seed):
            p = PhysicalParams(l, d, v_p, delta, 1.0, r_max)
            m = build_mapping(rows, cols, p)
            r = ReliabilityParams(1.0, mean, d)
            want = public_flags(m, p, r, 30, seed, kinds)
            got = _trial_failures(m, p, r, 30, seed, "simulator")
            assert got.tolist() == want

        check()
        assert kinds == {"unescapable", "fallback", "lost", "survived",
                         "lost later"}


class TestSimulatorModeDigest:
    """Pins simulator-mode Monte Carlo flags, and so every estimate, per
    seed: three physics on every chip from 1x1 to 3x3, 200 trials each. A
    change that alters any flag must update SIM_MC_DIGEST and say so in
    CHANGES.md."""

    SIM_MC_DIGEST = ("79b3650a5dbfba5f3af18c08de9ccce4"
                     "503718d1b5cfb9eef2819c08f5b18d15")

    def test_flags_match_digest(self):
        h = hashlib.sha256()
        for k, (l, d, v_p, delta, r_max) in enumerate((
                (1.0, 4, 2.5, 1.5, 8.0),    # the benchmark's physics
                (1.0, 4, 1.0, 0.5, 12.0),
                (0.5, 5, 1.0, 0.0, 5.0))):
            p = PhysicalParams(l, d, v_p, delta, 1.0, r_max)
            r = ReliabilityParams(2.0, 0.5, d)
            for rows in (1, 2, 3):
                for cols in (1, 2, 3):
                    m = build_mapping(rows, cols, p)
                    flags = _trial_failures(m, p, r, 200, 100 * k + 10 * rows
                                            + cols, "simulator")
                    h.update(np.packbits(flags).tobytes())
        assert h.hexdigest() == self.SIM_MC_DIGEST
