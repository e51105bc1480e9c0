"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
``PASS``/``FAIL`` line (visible with ``pytest -s`` or on failure).
"""

import math
import random
import time

import mpmath
import numpy as np

from crflight.mapping import Mapping, build_mapping
from crflight.model import CreEvent, LatticePoint, LogicalQubit, PhysicalParams
from crflight.reliability import (ReliabilityParams, failure_probability,
                                  monte_carlo_failure, p_few_hits)
from crflight.simulate import (MovePlan, UnescapableError, detect,
                               displacement_plan, plan_flight, simulate)
from crflight.solver import (AT_HOLE, HALFWAY, StrikeScenario,
                             check_condition1, check_feasibility,
                             min_code_distance, sweep)


def canonical(l=1.0, d=11, v_p=2.5, delta=1.0, t_c=1.0, r_max=63.0, dl=1.0):
    return PhysicalParams(l, d, v_p, delta, t_c, r_max, dl)


def report(label, ok):
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def min_d_by_scenario(result):
    out = {HALFWAY: {}, AT_HOLE: {}}
    for row in result.rows:
        out[row.scenario][row.value] = row.min_d
    return out


def test_criterion_1_qubit_size_sweep():
    """Min code distance vs qubit size: monotone, ordered, converging."""
    start = time.time()
    values = [float(v) for v in range(1, 61)]
    by = min_d_by_scenario(sweep("l", values, canonical()))
    elapsed = time.time() - start

    ok = elapsed < 1.0
    for kind in (HALFWAY, AT_HOLE):
        ds = [by[kind][v] for v in values]
        ok = ok and all(d is not None for d in ds)
        ok = ok and all(a >= b for a, b in zip(ds, ds[1:]))
    ok = ok and all(by[AT_HOLE][v] >= by[HALFWAY][v] for v in values)
    # the two strike positions agree for every size past some threshold,
    # i.e. the range ends with a non-empty run of equal values
    unequal = [v for v in values if by[AT_HOLE][v] != by[HALFWAY][v]]
    ok = ok and (not unequal or max(unequal) < values[-1])
    report("criterion 1: qubit-size sweep shape", ok)


def test_criterion_2_storm_radius_sweep():
    """Min code distance vs max storm radius: monotone and in-band."""
    start = time.time()
    values = [float(v) for v in range(1, 101)]
    by = min_d_by_scenario(sweep("r_max", values, canonical()))
    elapsed = time.time() - start

    ok = elapsed < 5.0
    for kind in (HALFWAY, AT_HOLE):
        ds = [by[kind][v] for v in values]
        ok = ok and all(d is not None for d in ds)
        ok = ok and all(a <= b for a, b in zip(ds, ds[1:]))
        ok = ok and all(5 <= d <= 120 for d in ds)
        ok = ok and 5 <= ds[0] <= 20
        ok = ok and 35 <= ds[-1] <= 140
    report("criterion 2: storm-radius sweep band", ok)


def test_criterion_3_solver_matches_exhaustive_scan():
    """Solver agrees with a direct d-scan on 1000 random parameter sets."""
    start = time.time()
    rng = random.Random(1234)
    ok = True
    for _ in range(1000):
        p = canonical(l=rng.uniform(0.2, 12.0), v_p=rng.uniform(0.0, 6.0),
                      delta=rng.uniform(0.0, 25.0), t_c=rng.uniform(0.5, 2.0),
                      r_max=rng.uniform(0.0, 120.0), dl=rng.uniform(0.0, 50.0))
        for kind in (HALFWAY, AT_HOLE):
            s = StrikeScenario(kind)
            x0 = lambda d: 0.0 if kind == AT_HOLE else d / 2.0
            want = None
            for d in range(2, 501):
                r = p.v_p_mm_per_us * p.t_c_us * (p.delta_cycles + 1)
                reach = (x0(d) - r) + p.l_mm * (d - 1)
                if r < reach and p.r_max_mm < reach + p.move_displacement_mm:
                    want = d
                    break
            if min_code_distance(p, s) != want:
                ok = False
    ok = ok and (time.time() - start) < 10.0
    report("criterion 3: solver vs exhaustive scan (1000 draws)", ok)


def test_criterion_4_feasibility_matches_simulation():
    """Feasible instances survive in simulation; doomed ones are destroyed."""
    start = time.time()
    rng = random.Random(777)
    ok = True

    def instance(require):
        """Random (params, scenario kind) pair satisfying ``require``."""
        while True:
            p = canonical(l=rng.uniform(0.2, 5.0), d=rng.randint(2, 60),
                          v_p=rng.uniform(0.0, 5.0),
                          delta=rng.uniform(0.0, 25.0),
                          t_c=rng.uniform(0.5, 2.0),
                          r_max=rng.uniform(0.0, 100.0),
                          dl=rng.uniform(0.0, 50.0))
            kind = rng.choice((HALFWAY, AT_HOLE))
            if require(p, kind):
                return p, kind

    def scenario_setup(p, kind):
        """One qubit at the origin, strike ``x0`` beyond its near hole."""
        x0 = 0.0 if kind == AT_HOLE else p.d / 2.0
        q = LogicalQubit(LatticePoint(0, 0), p.d)
        shift = int(math.ceil(p.move_displacement_mm / p.l_mm))
        m = Mapping(1, 1, p, (q,), 2 * p.d + shift + 4, 2 * p.d)
        event = CreEvent(-x0, 0.0, 0.0)
        return q, m, event, shift

    n = 0
    while n < 1000:
        p, kind = instance(
            lambda p, k: check_feasibility(p, StrikeScenario(k)))
        q, m, event, shift = scenario_setup(p, kind)
        plan = displacement_plan(0, q, shift, 0, detect(event, p) + 1.0)
        if not simulate(m, event, p, plan).survived[0]:
            ok = False
        n += 1

    n = 0
    while n < 200:
        def doomed(p, k):
            x0 = 0.0 if k == AT_HOLE else p.d / 2.0
            return (not check_condition1(p, StrikeScenario(k))
                    and p.v_p_mm_per_us > 0
                    and p.r_max_mm > x0 + p.l_mm * (p.d - 1))
        p, kind = instance(doomed)
        q, m, event, _ = scenario_setup(p, kind)
        if simulate(m, event, p, MovePlan()).survived[0]:
            ok = False
        n += 1

    ok = ok and (time.time() - start) < 60.0
    report("criterion 4: feasibility verdicts match simulation", ok)


def test_criterion_5_planner_batch_bound():
    """Every planned escape needs at most three sequential move batches."""
    start = time.time()
    p = PhysicalParams(1.0, 4, 2.5, 1.0, 1.0, 5.0)
    ok = True
    for n in (1, 2, 3, 4):
        m = build_mapping(n, n, p)
        for x in np.arange(0.0, m.width_mm + 1e-9, 0.5):
            for y in np.arange(0.0, m.height_mm + 1e-9, 0.5):
                event = CreEvent(float(x), float(y), 0.0)
                try:
                    plan = plan_flight(m, event, p)
                except UnescapableError:
                    ok = False
                    continue
                for qid in plan.qubit_ids():
                    if plan.batch_count(qid) > 3:
                        ok = False
    ok = ok and (time.time() - start) < 60.0
    report("criterion 5: every escape plan uses at most three batches", ok)


def test_criterion_6_failure_probability_endpoints():
    """Analytic failure probability hits both closed-form endpoints."""
    fast = failure_probability(ReliabilityParams(0.1, 1e-15, 11))
    slow = failure_probability(ReliabilityParams(0.1, 1.0, 2))
    ok = abs(fast - 0.04) < 1e-12
    ok = ok and abs(slow - 0.13135607868547894) < 1e-9
    report("criterion 6: failure-probability endpoints", ok)


def test_criterion_7_monte_carlo_agreement():
    """1e5-trial Monte Carlo agrees with the analytic value and is seeded."""
    start = time.time()
    p = canonical(d=2)
    m = build_mapping(1, 1, p)
    r = ReliabilityParams(1.0, 0.1, 2)
    est, hw = monte_carlo_failure(m, p, r, 100_000, seed=0)
    sigma = hw / 1.96
    ok = abs(est - failure_probability(r)) <= 3.0 * sigma
    ok = ok and monte_carlo_failure(m, p, r, 100_000, seed=0) == (est, hw)
    ok = ok and (time.time() - start) < 300.0
    report("criterion 7: Monte Carlo within 3 sigma, reproducible", ok)


def test_criterion_8_poisson_tail_accuracy():
    """Poisson tail term agrees with a 50-digit reference to 1e-12."""
    ok = True
    with mpmath.workdps(50):
        for mean in (0.0, 0.1, 1.0, 5.0, 10.0):
            for d in (2, 3, 11, 50, 200):
                got = p_few_hits(d, mean, 1.0)
                mm = mpmath.mpf(mean)
                want = float(sum(mpmath.e ** (-mm) * mm ** k / mpmath.factorial(k)
                                 for k in range(d - 1)))
                if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300):
                    ok = False
    report("criterion 8: Poisson tail matches high-precision reference", ok)
