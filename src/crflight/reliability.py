"""Failure-probability model for cosmic-ray strikes, plus a Monte Carlo

estimator that cross-checks it.

The analytic model: a logical qubit is lost if the strike lands inside
one of its two holes (probability ``p_hole_hit``, the package's only hole
rule), or if d - 1 or more strikes arrive while the qubit is still in
flight. Strike arrivals are Poisson with mean lambda * tau, so

    P(failure) = 1 - (1 - p_hole_hit) * P[N <= d - 2]

The simulator Monte Carlo mode judges each strike by the string rule
alone, so it counts no hole hits and answers a different question.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from .mapping import Mapping
from .model import CreEvent, PhysicalParams
from .simulate import _check_params, _flight_lost

# Reference frame for the hole-hit probability: a region 10 cells wide by
# 5 cells tall, each cell d * model.HOLE_SIDE_FRACTION on a side, holding
# one two-hole qubit. Its hole cells are centred d lattice units, so
# 1 / HOLE_SIDE_FRACTION = 4 cells, apart; in cell units the frame is the
# same for every d and lattice spacing. TestHoleHit pins the spacing.
FRAME_WIDTH_CELLS = 10
FRAME_HEIGHT_CELLS = 5
HOLE_CELLS = ((3.0, 2.5), (7.0, 2.5))

ANALYTIC_PREDICATE = "analytic"
SIMULATOR_PREDICATE = "simulator"


@dataclass(frozen=True)
class ReliabilityParams:
    lambda_per_s: float   # chip CRE rate
    tau_s: float          # time to move the logical qubit to safety
    d: int                # code distance
    # Two hole cells of the reference frame, which the analytic Monte Carlo
    # samples; any other value would break that cross-check.
    p_hole_hit: ClassVar[float] = 2.0 / (FRAME_WIDTH_CELLS * FRAME_HEIGHT_CELLS)

    def __post_init__(self) -> None:
        if not self.lambda_per_s >= 0:
            raise ValueError(f"lambda_per_s must be >= 0, got {self.lambda_per_s}")
        if not self.tau_s >= 0:
            raise ValueError(f"tau_s must be >= 0, got {self.tau_s}")
        if not self.d >= 2:
            raise ValueError(f"d must be >= 2, got {self.d}")


def p_few_hits(d: int, lambda_per_s: float, tau_s: float) -> float:
    """P[N <= d - 2] for N ~ Poisson(lambda * tau).

    Computed with the stable term recurrence term_{k+1} = term_k * m/(k+1),
    or, where its start exp(-m) is not a normal float, each term from its log.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    m = lambda_per_s * tau_s
    if not m >= 0:  # NaN too, as from inf * 0
        raise ValueError(f"lambda * tau must be >= 0, got {m}")
    if m == math.inf:
        return 0.0  # every term is 0.0; m - 40 sqrt(m) below has no floor
    # Where exp(-m) is not a normal float, each term comes from its log, from
    # k = m - 40 sqrt(m) on: the terms below sum to under e^-800 (Chernoff).
    logs = math.exp(-m) < sys.float_info.min
    k0 = max(0, math.floor(m - 40 * math.sqrt(m))) if logs else 1
    term = total = 0.0 if logs else math.exp(-m)
    for k in range(k0, d - 1):
        term = (math.exp(k * math.log(m) - m - math.lgamma(k + 1)) if logs
                else term * (m / k))
        if term == 0.0 and k > m:
            break  # past the mode, every later term is 0.0 too
        total += term
    return min(total, 1.0)


def failure_probability(r: ReliabilityParams) -> float:
    """Chance the logical qubit is lost despite fleeing."""
    return 1.0 - (1.0 - r.p_hole_hit) * p_few_hits(r.d, r.lambda_per_s, r.tau_s)


def _trial_failures(m: Optional[Mapping], p: PhysicalParams, r: ReliabilityParams,
                    n_trials: int, seed: int, predicate: str) -> np.ndarray:
    """Boolean failure flag per trial.

    Two Philox streams spawned from ``seed`` are read in order: one gives
    each trial's epicenter (uniforms 2i and 2i + 1), the other its Poisson
    strike count. The first n flags are therefore the same for any
    ``n_trials``. A trial with d - 1 or more strikes fails whatever its
    epicenter, so simulator mode flies only the rest, each judged by
    ``simulate._flight_lost``.
    """
    point_seed, count_seed = np.random.SeedSequence(seed).spawn(2)
    u = np.random.Generator(np.random.Philox(point_seed)).random((n_trials, 2))
    count_rng = np.random.Generator(np.random.Philox(count_seed))
    mean = r.lambda_per_s * r.tau_s
    try:
        counts = count_rng.poisson(mean, n_trials)
    except ValueError as exc:
        raise ValueError(f"lambda_per_s * tau_s = {mean!r} is out of range for "
                         "numpy's Poisson draw (at most about 9.2e18)") from exc
    failed = counts >= r.d - 1
    if predicate == ANALYTIC_PREDICATE:
        x, y = u[:, 0] * FRAME_WIDTH_CELLS, u[:, 1] * FRAME_HEIGHT_CELLS
        for cx, cy in HOLE_CELLS:
            failed |= (np.abs(x - cx) < 0.5) & (np.abs(y - cy) < 0.5)
        return failed
    for i in np.flatnonzero(~failed):
        failed[i] = _flight_lost(m, CreEvent(float(u[i, 0] * m.width_mm),
                                              float(u[i, 1] * m.height_mm), 0.0), p)
    return failed


def monte_carlo_failure(m: Optional[Mapping], p: PhysicalParams,
                        r: ReliabilityParams, n_trials: int, seed: int,
                        predicate: str = ANALYTIC_PREDICATE
                        ) -> Tuple[float, float]:
    """Failure fraction and 95% binomial half-width over seeded trials.

    ``analytic`` mirrors the analytic model's assumptions: a uniform
    epicenter over the reference frame (failure if inside a hole cell)
    plus a Poisson count of strikes during tau (failure at d - 1 or
    more); it reads neither ``m`` nor ``p``. ``simulator`` instead runs
    the flee simulator on the mapping ``m`` for each sampled strike, and
    any lost qubit fails the chip.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if predicate not in (ANALYTIC_PREDICATE, SIMULATOR_PREDICATE):
        raise ValueError(f"unknown predicate {predicate!r}")
    if predicate == SIMULATOR_PREDICATE:
        if m is None:
            raise ValueError("simulator mode needs a mapping")
        if r.d != m.params.d:
            raise ValueError(f"simulator mode needs r.d = {m.params.d}, got {r.d}")
        _check_params(m, p)
    failed = _trial_failures(m, p, r, n_trials, seed, predicate)
    estimate = int(np.count_nonzero(failed)) / n_trials
    halfwidth = 1.96 * math.sqrt(max(estimate * (1.0 - estimate), 0.0) / n_trials)
    return estimate, halfwidth
