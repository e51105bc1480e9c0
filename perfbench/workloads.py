"""The benchmark's workloads: seeded inputs, the timed operation, its checks.

``build(name, seed, tmp_dir)`` returns a ``Workload`` whose ``ops`` list is
made only from the seed. The list is a sequence of blocks; each block holds
the workload's full mix in a seeded order. The timed phase runs the whole
list in repeated passes, so each op is timed several times. The harness
times ``Op.run`` and then calls ``Op.verify`` outside the timed region.
Layers are reached through their module attributes so that a tracer
installed on those attributes sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

cli, mapping, reliability, simulate, solver = (
    importlib.import_module("crflight." + name)
    for name in ("cli", "mapping", "reliability", "simulate", "solver"))
from crflight.model import CreEvent, PhysicalParams  # noqa: E402

# Captured before any tracer wraps it: checks re-plan without being traced.
_plan_flight_untraced = simulate.plan_flight

_UNSEEN = object()


class Op:
    """One timed operation.

    ``failure`` is evaluated on every run (e.g. a non-zero exit). The first
    output is checked in full by ``check``; later runs of the same op must
    give the same ``digest``.
    """

    kind = "op"
    _first = _UNSEEN

    def run(self):
        raise NotImplementedError

    def failure(self, out):
        return None

    def check(self, out):
        return None

    def digest(self, out):
        return out

    def counts(self, out):
        return {}

    def reset(self):
        pass

    def verify(self, out):
        """None, or ``(category, message)`` for a failed operation."""
        reason = self.failure(out)
        if reason:
            return ("exit", reason)
        key = self.digest(out)
        if self._first is _UNSEEN:
            self._first = key
            reason = self.check(out)
            return ("check", f"{self.kind}: {reason}") if reason else None
        if key != self._first:
            return ("check", f"{self.kind}: output differs from its first run")
        return None


@dataclass
class Workload:
    ops: list
    gate_len: int        # one block; traced runs repeat ops[:gate_len]
    info: dict = field(default_factory=dict)


def _blocks(rng, n_blocks, make_block):
    ops = []
    for _ in range(n_blocks):
        block = make_block(rng)
        ops.extend(block[i] for i in rng.permutation(len(block)))
    return ops


def _jittered(rng, lo, hi, n):
    """One uniform draw in each of n equal slices of [lo, hi), sorted."""
    return lo + (np.arange(n) + rng.uniform(0.0, 1.0, n)) * ((hi - lo) / n)


# -- design-sweep ------------------------------------------------------------

D_MAX = solver.DEFAULT_D_MAX
POINT_BOX = {"l_mm": (0.05, 3.0), "v_p_mm_per_us": (0.0, 10.0),
             "r_max_mm": (0.0, 300.0)}
BLOCK_POINTS = 400
BLOCK_INFEASIBLE = 34            # 8.5 % of the point solves in every block
SCAN_SHARE = 0.1                 # point solves re-checked by exhaustive scan
SWEEP_VALUES = 40
SWEEP_GRIDS = {"l": (0.05, 3.0), "r_max": (1.0, 300.0), "delta": (0.1, 25.0)}
CONVENTIONS = (solver.HALF_D_MM, solver.HALF_SEPARATION)
DESIGN_BLOCKS = 4


class PointSolve(Op):
    kind = "solver.min_code_distance"

    def __init__(self, params, scenario, scan):
        self.params, self.scenario, self.scan = params, scenario, scan

    def run(self):
        return solver.min_code_distance(self.params, self.scenario, D_MAX)

    def check(self, out):
        if not self.scan:
            return None
        want = oracles.scan_min_d(self.params, self.scenario.kind,
                                  self.scenario.x0_convention, D_MAX)
        return None if out == want else f"min d {out} != exhaustive scan {want}"


class SweepRoundTrip(Op):
    kind = "solver.sweep"

    def __init__(self, parameter, values, base, convention):
        self.parameter, self.values = parameter, values
        self.base, self.convention = base, convention

    def run(self):
        result = solver.sweep(self.parameter, self.values, self.base,
                              scenarios=solver.SCENARIOS,
                              x0_convention=self.convention, d_max=D_MAX)
        buf = io.StringIO()
        solver.write_sweep_csv(result, buf)
        return result, solver.read_sweep_csv(io.StringIO(buf.getvalue()))

    def digest(self, out):
        return out[0]

    def check(self, out):
        result, back = out
        if back != result:
            return "CSV round trip changed the sweep"
        if len(result.rows) != len(self.values) * len(solver.SCENARIOS):
            return f"{len(result.rows)} rows for {len(self.values)} values"
        if not oracles.sweep_monotone(self.parameter, result.rows):
            return f"{self.parameter} sweep is not monotone"
        return None


def _draw_points(rng, n_feasible, n_infeasible):
    """Seeded draws from POINT_BOX with an exact infeasible count."""
    combos = [(k, c) for k in solver.SCENARIOS for c in CONVENTIONS]
    feasible, infeasible = [], []
    while len(feasible) < n_feasible or len(infeasible) < n_infeasible:
        n = 2048
        cols = {k: rng.uniform(lo, hi, n) for k, (lo, hi) in POINT_BOX.items()}
        which = rng.integers(len(combos), size=n)
        ok = np.empty(n, dtype=bool)
        for j, (kind, conv) in enumerate(combos):
            ok_j = oracles.feasible_within(cols["l_mm"], cols["v_p_mm_per_us"],
                                           1.0, 1.0, cols["r_max_mm"], 1.0,
                                           kind, conv, D_MAX)
            ok[which == j] = ok_j[which == j]
        for i in range(n):
            pick = feasible if ok[i] else infeasible
            want = n_feasible if ok[i] else n_infeasible
            if len(pick) < want:
                pick.append((float(cols["l_mm"][i]),
                             float(cols["v_p_mm_per_us"][i]),
                             float(cols["r_max_mm"][i]), combos[which[i]]))
    return feasible + infeasible


def _design_block(rng):
    ops = []
    for l, v_p, r_max, (kind, conv) in _draw_points(
            rng, BLOCK_POINTS - BLOCK_INFEASIBLE, BLOCK_INFEASIBLE):
        p = PhysicalParams(l, 11, v_p, 1.0, 1.0, r_max)
        ops.append(PointSolve(p, solver.StrikeScenario(kind, conv),
                              bool(rng.uniform() < SCAN_SHARE)))
    for parameter, (lo, hi) in SWEEP_GRIDS.items():
        for conv in CONVENTIONS:
            base = PhysicalParams(float(rng.uniform(0.8, 1.2)), 11,
                                  float(rng.uniform(2.0, 3.0)),
                                  float(rng.uniform(0.5, 1.5)), 1.0,
                                  float(rng.uniform(50.0, 80.0)))
            values = [float(v) for v in _jittered(rng, lo, hi, SWEEP_VALUES)]
            ops.append(SweepRoundTrip(parameter, values, base, conv))
    return ops


def build_design_sweep(seed, tmp_dir):
    rng = np.random.default_rng([seed, 1])
    ops = _blocks(rng, DESIGN_BLOCKS, _design_block)
    return Workload(ops, gate_len=len(ops) // DESIGN_BLOCKS,
                    info={"block": {"point_solves": BLOCK_POINTS,
                                    "infeasible": BLOCK_INFEASIBLE,
                                    "sweeps": len(SWEEP_GRIDS) * len(CONVENTIONS),
                                    "sweep_values": SWEEP_VALUES},
                          "d_max": D_MAX, "point_box": POINT_BOX})


# -- flee-storm --------------------------------------------------------------

FLEE_D = 4
FLEE_R_MAX = 10.0
OVERRUN_R_MAX = 63.0             # paper default: no target escapes it
REGIME_V_P = {"fast": 2.5, "slow": 0.05, "overrun": 2.5}
# (regime, mapping side n for an n x n mapping, strikes per block). Fast
# fronts are planner-bound and slow fronts simulator-bound; the weights give
# each of plan_flight and simulate at least a third of the traced time, and
# put the median op inside the steady slow 12x12 class.
FLEE_MIX = (("fast", 2, 8), ("fast", 4, 12), ("fast", 8, 6), ("fast", 12, 4),
            ("fast", 16, 4),
            ("slow", 2, 8), ("slow", 4, 12), ("slow", 8, 30), ("slow", 12, 30),
            ("slow", 16, 60),
            ("overrun", 2, 4))
FLEE_BLOCKS = 1
REPLAN_SHARE = 0.125             # strikes re-planned to check determinism


class Strike(Op):
    kind = "flee"

    def __init__(self, m, p, event, replan):
        self.m, self.p, self.event, self.replan = m, p, event, replan

    def run(self):
        try:
            plan = simulate.plan_flight(self.m, self.event, self.p)
        except simulate.UnescapableError as exc:
            return exc.qubit_id
        outcome = simulate.simulate(self.m, self.event, self.p, plan)
        return plan, outcome, outcome.event_log_csv()

    def digest(self, out):
        if isinstance(out, int):
            return out
        plan, outcome, log = out
        return plan, outcome.destroyed_at, hashlib.sha256(log.encode()).digest()

    def check(self, out):
        ev = (self.event.x_mm, self.event.y_mm)
        if isinstance(out, int):
            # A model outcome, not a failure, if the qubit named is threatened.
            q = self.m.qubits[out]
            if oracles.string_clearance_mm(q, ev, self.p.l_mm) >= self.p.r_max_mm:
                return f"unescapable qubit {out} is not threatened"
            return None
        plan, outcome, log = out
        problems = oracles.plan_problems(self.m, plan, self.p.d)
        if problems:
            return "; ".join(problems[:3])
        if self.replan and _plan_flight_untraced(self.m, self.event, self.p) != plan:
            return "re-planning the same strike gave another plan"
        t0 = self.event.t0_cycles
        t_end = t0 + self.p.r_max_mm / (self.p.v_p_mm_per_us * self.p.t_c_us)
        for qid, t in outcome.destroyed_at.items():
            if not t0 <= t <= t_end:
                return f"qubit {qid} destroyed at {t}, outside [{t0}, {t_end}]"
        if set(outcome.survived) != set(range(len(self.m.qubits))):
            return "survival not reported for every qubit"
        if oracles.csv_header(log) != ["cycle", "event_kind", "qubit_id", "detail"]:
            return "unexpected event log header"
        return None


def _flee_block(mappings):
    def make(rng):
        ops = []
        for regime, n, count in FLEE_MIX:
            m = mappings[n]
            # Latin-hypercube epicenters over the mapping, one per row/column slice.
            xs = _jittered(rng, 0.0, m.width_mm, count)[rng.permutation(count)]
            ys = _jittered(rng, 0.0, m.height_mm, count)
            for x, y in zip(xs, ys):
                r_max = OVERRUN_R_MAX if regime == "overrun" else FLEE_R_MAX
                p = PhysicalParams(1.0, FLEE_D, REGIME_V_P[regime],
                                   float(rng.uniform(1.05, 1.95)), 1.0, r_max)
                ops.append(Strike(m, p, CreEvent(float(x), float(y), 0.0),
                                  bool(rng.uniform() < REPLAN_SHARE)))
        return ops
    return make


def build_flee_storm(seed, tmp_dir):
    rng = np.random.default_rng([seed, 2])
    layout = PhysicalParams(1.0, FLEE_D, 2.5, 1.0, 1.0, FLEE_R_MAX)
    mappings = {n: mapping.build_mapping(n, n, layout)
                for n in sorted({n for _, n, _ in FLEE_MIX})}
    ops = _blocks(rng, FLEE_BLOCKS, _flee_block(mappings))
    return Workload(ops, gate_len=len(ops) // FLEE_BLOCKS,
                    info={"d": FLEE_D, "r_max_mm": FLEE_R_MAX,
                          "v_p_mm_per_us": dict(REGIME_V_P),
                          "mix_per_block": [list(m) for m in FLEE_MIX]})


# -- reliability-mc ----------------------------------------------------------

ANALYTIC_TRIALS = 2000
SIM_TRIALS = 40
SIM_PARAMS = dict(l_mm=1.0, d=4, v_p_mm_per_us=2.5, delta_cycles=1.5,
                  t_c_us=1.0, r_max_mm=8.0)
SIM_SIDE = 3
BLOCK_ANALYTIC, BLOCK_SIM = 8, 2
RELIABILITY_BLOCKS = 6


class TauPoint(Op):
    kind = "reliability"

    def __init__(self, m, p, r, n_trials, seed, predicate):
        self.m, self.p, self.r = m, p, r
        self.n_trials, self.seed, self.predicate = n_trials, seed, predicate

    def run(self):
        analytic = reliability.failure_probability(self.r)
        est, hw = reliability.monte_carlo_failure(
            self.m, self.p, self.r, self.n_trials, self.seed,
            predicate=self.predicate)
        return analytic, est, hw

    def check(self, out):
        analytic, est, hw = out
        r, n = self.r, self.n_trials
        few = oracles.poisson_cdf_mp(r.d - 2, r.lambda_per_s * r.tau_s)
        got = reliability.p_few_hits(r.d, r.lambda_per_s, r.tau_s)
        if not math.isclose(got, few, rel_tol=1e-12, abs_tol=1e-300):
            return f"p_few_hits {got!r} != 50-digit Poisson sum {few!r}"
        want = 1.0 - (1.0 - r.p_hole_hit) * few
        if not math.isclose(analytic, want, rel_tol=1e-12, abs_tol=1e-15):
            return f"failure_probability {analytic!r} != {want!r}"
        if abs(est * n - round(est * n)) > 1e-6 or not 0.0 <= est <= 1.0:
            return f"estimate {est!r} is not a failure fraction of {n} trials"
        if not math.isclose(hw, oracles.binomial_halfwidth(est, n), rel_tol=1e-9):
            return f"half-width {hw!r} does not match the estimate"
        if self.predicate == reliability.ANALYTIC_PREDICATE:
            # Half-widths at the analytic value: an estimate of exactly 0 or
            # 1 has a zero half-width of its own.
            if abs(est - analytic) > 4.0 * oracles.binomial_halfwidth(analytic, n):
                return f"MC {est} is over 4 half-widths from analytic {analytic}"
        else:
            # Failing needs only d - 1 strikes in flight, so the simulator's
            # loss rate is at least the Poisson tail.
            tail = 1.0 - few
            if est < tail - 4.0 * oracles.binomial_halfwidth(tail, n):
                return f"simulator MC {est} is below the Poisson tail {tail}"
        return None


def _reliability_block(m, p):
    def make(rng):
        ops = []
        for _ in range(BLOCK_ANALYTIC):
            lam = float(rng.uniform(0.5, 5.0))
            mean = 10.0 ** float(rng.uniform(-2.0, 1.0))
            r = reliability.ReliabilityParams(lam, mean / lam,
                                              int(rng.integers(2, 13)))
            ops.append(TauPoint(m, p, r, ANALYTIC_TRIALS,
                                int(rng.integers(2 ** 31)),
                                reliability.ANALYTIC_PREDICATE))
        for _ in range(BLOCK_SIM):
            lam = float(rng.uniform(2.0, 4.0))
            mean = float(rng.uniform(2.3, 3.1))   # Poisson tail 0.40 .. 0.60
            r = reliability.ReliabilityParams(lam, mean / lam, p.d)
            ops.append(TauPoint(m, p, r, SIM_TRIALS, int(rng.integers(2 ** 31)),
                                reliability.SIMULATOR_PREDICATE))
        return ops
    return make


def build_reliability_mc(seed, tmp_dir):
    rng = np.random.default_rng([seed, 3])
    p = PhysicalParams(**SIM_PARAMS)
    m = mapping.build_mapping(SIM_SIDE, SIM_SIDE, p)
    ops = _blocks(rng, RELIABILITY_BLOCKS, _reliability_block(m, p))
    return Workload(ops, gate_len=len(ops) // RELIABILITY_BLOCKS,
                    info={"analytic_trials": ANALYTIC_TRIALS,
                          "simulator_trials": SIM_TRIALS,
                          "simulator_mapping": f"{SIM_SIDE}x{SIM_SIDE}",
                          "simulator_params": SIM_PARAMS,
                          "per_block": {"analytic": BLOCK_ANALYTIC,
                                        "simulator": BLOCK_SIM}})


# -- cli-defaults ------------------------------------------------------------

# The configuration documented in the README, every key at its default.
DEFAULT_CONFIG = """\
l_mm = 1.0
v_p_mm_per_us = 2.5
delta_cycles = 1.0
t_c_us = 1.0
r_max_mm = 63.0
move_displacement_mm = 1.0
d = 11
d_max = 500
x0_convention = half_d_mm
scenario = both
rows = 1
cols = 1
lambda_per_s = 0.1
tau_s_min = 0.0001
tau_s_max = 1.0
tau_points = 50
n_trials = 10000
seed = 0
"""
# Only `reliability` runs with fewer Monte Carlo trials than the default.
CLI_RELIABILITY_TRIALS = 200
# One round: each subcommand once.
CLI_ROUND = ("sweep-l", "sweep-rmax", "sweep-delta", "simulate",
             "reliability", "replicate-paper")
CLI_ROUNDS = 6
SWEEP_HEADER = ["param", "value", "scenario", "min_d", "feasible"]
CLI_HEADERS = {
    "sweep_l.csv": SWEEP_HEADER, "sweep_r_max.csv": SWEEP_HEADER,
    "sweep_delta.csv": SWEEP_HEADER, "replicate_l.csv": SWEEP_HEADER,
    "replicate_r_max.csv": SWEEP_HEADER, "replicate_delta.csv": SWEEP_HEADER,
    "reliability.csv": ["tau", "analytic_failure", "mc_failure", "mc_halfwidth"],
    "event_log.csv": ["cycle", "event_kind", "qubit_id", "detail"],
}
MANIFEST_KEYS = {"tool", "subcommand", "config", "seed", "outputs"}


class CliCall(Op):
    kind = "cli"

    def __init__(self, subcommand, config_path, out_dir, seed):
        self.subcommand, self.out_dir = subcommand, out_dir
        self.kind = "cli." + subcommand
        self.argv = [subcommand, "--config", str(config_path),
                     "--out", str(out_dir), "--seed", str(seed)]
        self.stderr = io.StringIO()

    def run(self):
        with contextlib.redirect_stderr(self.stderr):
            return cli.main(self.argv)

    def _artifacts(self):
        if not self.out_dir.is_dir():
            return {}
        return {f.name: f.read_bytes() for f in sorted(self.out_dir.iterdir())}

    def failure(self, code):
        if code != 0:
            msg = self.stderr.getvalue().strip().splitlines()
            return f"{self.kind} exited {code}" + (f": {msg[-1]}" if msg else "")
        return None

    def digest(self, code):
        return code, tuple((name, hashlib.sha256(data).digest())
                           for name, data in self._artifacts().items())

    def counts(self, code):
        return {"cli.artifact_bytes": sum(map(len, self._artifacts().values()))}

    def check(self, code):
        files = self._artifacts()
        try:
            manifest = json.loads(files["run-manifest.json"])
        except (KeyError, ValueError) as exc:
            return f"no readable run-manifest.json ({exc!r})"
        if not MANIFEST_KEYS <= set(manifest):
            return f"manifest lacks {sorted(MANIFEST_KEYS - set(manifest))}"
        for name in manifest["outputs"]:
            if name not in files:
                return f"listed output {name} was not written"
            if name in CLI_HEADERS:
                header = oracles.csv_header(files[name].decode())
                if header != CLI_HEADERS[name]:
                    return f"{name} header {header}"
            elif name.endswith(".json"):
                json.loads(files[name])
        return None

    def reset(self):
        self.stderr.seek(0)
        self.stderr.truncate()
        if self.out_dir.is_dir():
            for f in self.out_dir.iterdir():
                f.unlink()


def build_cli_defaults(seed, tmp_dir):
    rng = np.random.default_rng([seed, 4])
    tmp_dir = Path(tmp_dir)
    default_cfg = tmp_dir / "default.cfg"
    default_cfg.write_text(DEFAULT_CONFIG)
    reliability_cfg = tmp_dir / "reliability.cfg"
    reliability_cfg.write_text(DEFAULT_CONFIG.replace(
        "n_trials = 10000", f"n_trials = {CLI_RELIABILITY_TRIALS}"))
    ops = []
    for _ in range(CLI_ROUNDS):
        round_seed = int(rng.integers(2 ** 32))
        for sub in CLI_ROUND:
            cfg = reliability_cfg if sub == "reliability" else default_cfg
            ops.append(CliCall(sub, cfg, tmp_dir / "out" / sub, round_seed))
    return Workload(ops, gate_len=len(CLI_ROUND),
                    info={"round": list(CLI_ROUND),
                          "reliability_n_trials": CLI_RELIABILITY_TRIALS,
                          "default_n_trials": 10000})


_BY_NAME = {
    "design-sweep": build_design_sweep,
    "flee-storm": build_flee_storm,
    "reliability-mc": build_reliability_mc,
    "cli-defaults": build_cli_defaults,
}


def build(name, seed, tmp_dir):
    return _BY_NAME[name](seed, tmp_dir)
