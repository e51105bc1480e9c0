"""Output checks written independently of the crflight code they check.

Each function restates the model from its definition (README / solver
docstring) instead of calling the routine under test, so a defect in that
routine shows here as a mismatch.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

HALF_D_MM = "half_d_mm"
AT_HOLE = "at_hole"


def _x0(kind: str, convention: str, d, l):
    if kind == AT_HOLE:
        return 0.0 * d
    if convention == HALF_D_MM:
        return d / 2.0
    return d * l / 2.0


def _survives(l, v_p, delta, t_c, r_max, dl, kind, convention, d):
    """Both strict survival inequalities at code distance d (scalar or array)."""
    r = (v_p * t_c) * (delta + 1.0)
    x0 = _x0(kind, convention, d, l)
    return (r < (x0 - r) + l * (d - 1)) & (r_max < (x0 - r) + dl + l * (d - 1))


def scan_min_d(p, kind: str, convention: str, d_max: int):
    """Exhaustive d-scan: the smallest d in [2, d_max] that survives, or None."""
    for d in range(2, d_max + 1):
        if _survives(p.l_mm, p.v_p_mm_per_us, p.delta_cycles, p.t_c_us,
                     p.r_max_mm, p.move_displacement_mm, kind, convention, d):
            return d
    return None


def feasible_within(l, v_p, delta, t_c, r_max, dl, kind, convention, d_max):
    """Vectorised feasibility at d_max. Both margins grow with d, so a point
    that survives at some d <= d_max also survives at d_max."""
    return _survives(np.asarray(l), np.asarray(v_p), delta, t_c,
                     np.asarray(r_max), dl, kind, convention, d_max)


def sweep_monotone(parameter: str, rows) -> bool:
    """min d never falls as r_max or delta grows, never rises as l grows.

    Infeasible rows count as an infinite distance."""
    per_scenario = {}
    for r in rows:
        per_scenario.setdefault(r.scenario, []).append(
            (r.value, math.inf if r.min_d is None else r.min_d))
    for series in per_scenario.values():
        series.sort()
        ds = [d for _, d in series]
        pairs = list(zip(ds, ds[1:]))
        if parameter == "l":
            ok = all(b <= a for a, b in pairs)
        else:
            ok = all(b >= a for a, b in pairs)
        if not ok:
            return False
    return True


def poisson_cdf_mp(k_max: int, mean: float) -> float:
    """P[N <= k_max] for N ~ Poisson(mean), summed with 50 significant digits."""
    import mpmath
    with mpmath.workdps(50):
        m = mpmath.mpf(mean)
        total = mpmath.fsum(m ** k / mpmath.factorial(k) for k in range(k_max + 1))
        return float(mpmath.e ** (-m) * total)


def binomial_halfwidth(estimate: float, n: int) -> float:
    return 1.96 * math.sqrt(max(estimate * (1.0 - estimate), 0.0) / n)


def plan_problems(mapping, plan, d: int):
    """Invariants of a flee plan; returns a list of violations.

    At most three sequential batches per qubit, and no two hole footprints
    (squares of side d/4) overlap once every move has completed.
    """
    problems = []
    batches = {}
    final = {}
    for qid, q in enumerate(mapping.qubits):
        for k, h in enumerate(q.holes):
            final[(qid, k)] = (h.center.x, h.center.y)
    for s in sorted(plan.steps, key=lambda s: s.start_cycle):
        batches.setdefault(s.qubit_id, set()).add(s.start_cycle)
        final[(s.qubit_id, s.hole_index)] = tuple(s.target)
    for qid, starts in batches.items():
        if len(starts) > 3:
            problems.append(f"qubit {qid} uses {len(starts)} batches")
    keys = list(final)
    xy = np.array([final[k] for k in keys], dtype=float)
    side = d / 4.0
    for i, (qid, k) in enumerate(keys):
        if qid not in batches:
            continue
        close = ((np.abs(xy[:, 0] - xy[i, 0]) < side)
                 & (np.abs(xy[:, 1] - xy[i, 1]) < side))
        close[i] = False
        if close.any():
            j = int(np.argmax(close))
            problems.append(f"hole {qid}.{k} collides with hole "
                            f"{keys[j][0]}.{keys[j][1]}")
    return problems


def string_clearance_mm(qubit, epicenter, l_mm: float) -> float:
    """Largest distance from the epicenter to a data qubit of the string."""
    (hx, hy) = (qubit.holes[0].center.x, qubit.holes[0].center.y)
    (gx, gy) = (qubit.holes[1].center.x, qubit.holes[1].center.y)
    d = qubit.code_distance
    ex, ey = epicenter
    return max(math.hypot((hx + (gx - hx) * k / d) * l_mm - ex,
                          (hy + (gy - hy) * k / d) * l_mm - ey)
               for k in range(1, d))


def csv_header(text: str):
    return next(csv.reader(io.StringIO(text)), None)
