"""In-memory span tracer that wraps crflight's public functions from outside.

A span is ``[name, start, end, parent, op_id]``; ``parent`` is the index of
the enclosing span or -1. Wrappers are installed on every crflight module
attribute that refers to a traced function, so calls the program makes to
itself (``sweep`` -> ``min_code_distance``, ``cli.main`` -> ``plan_flight``)
nest under their caller. Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# ``crflight.simulate`` is shadowed by the function of that name on the
# package, so modules are fetched by their full name.
cli, config, mapping, reliability, simulate, solver = (
    importlib.import_module("crflight." + name)
    for name in ("cli", "config", "mapping", "reliability", "simulate", "solver"))

LAYERS = ("solver", "mapping", "simulate", "reliability", "cli", "config")


def _t_dissipate_cycles(p) -> float:
    per_cycle = p.v_p_mm_per_us * p.t_c_us
    return math.inf if per_cycle == 0 else p.r_max_mm / per_cycle


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = "setup"
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, on_result=None, on_error=None):
        spans, stack = self.spans, self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(counts, exc)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if on_result is not None:
                on_result(counts, result, args, kwargs)
            return result

        return traced

    def install(self):
        """Replace each traced function wherever a crflight module names it."""
        targets = [
            (solver.min_code_distance, "solver.min_code_distance", _count_solve, None),
            (solver.sweep, "solver.sweep", _count_sweep, None),
            (solver.write_sweep_csv, "solver.csv", None, None),
            (solver.read_sweep_csv, "solver.csv", None, None),
            (mapping.build_mapping, "mapping.build_mapping", _count_mapping, None),
            (simulate.plan_flight, "simulate.plan_flight", _count_plan, _count_unescapable),
            (simulate.simulate, "simulate.simulate", _count_sim, None),
            (reliability.failure_probability, "reliability.failure_probability", None, None),
            (reliability.monte_carlo_failure, _mc_name, _count_mc, None),
            (config.parse_config, "config.parse_config", None, None),
            (cli.main, _cli_name, _count_cli, None),
        ]
        modules = [m for n, m in sys.modules.items()
                   if n == "crflight" or n.startswith("crflight.")]
        for fn, name, on_result, on_error in targets:
            wrapped = self._wrap(fn, name, on_result, on_error)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)
        method = simulate.SimOutcome.event_log_csv
        self._patched.append((simulate.SimOutcome, "event_log_csv", method))
        simulate.SimOutcome.event_log_csv = self._wrap(
            method, "simulate.event_log", _count_log)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _count_solve(counts, result, args, kwargs):
    if result is None:
        counts["solver.min_code_distance.infeasible"] += 1


def _count_sweep(counts, result, args, kwargs):
    counts["solver.sweep.rows"] += len(result.rows)


def _count_mapping(counts, result, args, kwargs):
    counts["mapping.build_mapping.qubits"] += len(result.qubits)


def _count_plan(counts, result, args, kwargs):
    counts["simulate.plan_flight.threatened_qubits"] += len(result.qubit_ids())
    counts["simulate.plan_flight.move_steps"] += len(result.steps)


def _count_unescapable(counts, exc):
    if isinstance(exc, simulate.UnescapableError):
        counts["simulate.plan_flight.unescapable"] += 1


def _count_sim(counts, result, args, kwargs):
    m, p = args[0], args[2]
    counts["simulate.simulate.destroyed_qubits"] += sum(
        1 for ok in result.survived.values() if not ok)
    # Computed from the inputs, not measured: the work a per-cycle
    # simulator does is qubits x (cycles to dissipation + 1).
    td = _t_dissipate_cycles(p)
    if math.isfinite(td):
        counts["simulate.qubit_cycles"] += len(m.qubits) * (math.floor(td) + 1)


def _count_log(counts, result, args, kwargs):
    counts["simulate.event_log.bytes"] += len(result.encode())


def _mc_name(args, kwargs):
    mode = kwargs.get("predicate", args[5] if len(args) > 5
                      else reliability.ANALYTIC_PREDICATE)
    if mode == reliability.SIMULATOR_PREDICATE:
        return "reliability.mc_simulator"
    return "reliability.mc_analytic"


def _count_mc(counts, result, args, kwargs):
    n = args[3] if len(args) > 3 else kwargs["n_trials"]
    counts[_mc_name(args, kwargs) + ".trials"] += n
    counts["reliability.mc_failures"] += round(result[0] * n)


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + (argv[0] if argv else "?")


def _count_cli(counts, result, args, kwargs):
    if result != 0:
        counts["cli.nonzero_exits"] += 1


def self_times(spans, first, op_time_s):
    """Self time per layer over spans[first:], plus the harness's share.

    A span's self time is its duration minus its children's durations.
    Harness time is op time not covered by any top-level span, so the layer
    self times and the harness time add up to ``op_time_s``.
    """
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    top = 0.0
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        out[name.split(".", 1)[0]] += (end - start) - child[i]
        if parent < first:
            top += end - start
    out["harness"] = op_time_s - top
    return out


def span_stats(spans, first):
    """name -> (calls, busy seconds, median seconds) over spans[first:]."""
    durations = defaultdict(list)
    for name, start, end, _, _ in spans[first:]:
        durations[name].append(end - start)
    return {name: (len(d), math.fsum(d), statistics.median(d))
            for name, d in durations.items()}
