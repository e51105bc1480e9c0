"""crflight benchmark harness.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload on the crflight sources in ``src/`` of the checkout that
holds this file, from one process and one thread. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it holds the run's context
(versions, nproc, tail percentile, failure reasons). See perfbench/README.md.
"""

import os

# One thread for every numeric library, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
TMP_ROOT = ROOT / ".perfbench-tmp"

WORKLOADS = ("design-sweep", "flee-storm", "reliability-mc", "cli-defaults")
DEFAULT_SEED = 1
HOLDOUT_SEED = 1009
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
MIN_PASSES = 4                  # the warm-up pass and at least three timed

# Counts that must repeat exactly for a given seed and source tree.
GATED_COUNTS = ("solver.min_code_distance.infeasible",
                "simulate.plan_flight.threatened_qubits",
                "simulate.plan_flight.move_steps",
                "simulate.plan_flight.unescapable",
                "simulate.qubit_cycles",
                "reliability.mc_analytic.trials",
                "reliability.mc_simulator.trials")

# Spans reported with calls and busy time, and the unit of their p50 if any.
SPAN_METRICS = (("solver.min_code_distance", "us"), ("solver.sweep", None),
                ("solver.csv", None), ("mapping.build_mapping", None),
                ("simulate.plan_flight", "ms"), ("simulate.simulate", "ms"),
                ("simulate.event_log", None),
                ("reliability.failure_probability", None),
                ("reliability.mc_analytic", None),
                ("reliability.mc_simulator", None),
                ("config.parse_config", None))
CLI_SUBCOMMANDS = ("sweep-l", "sweep-rmax", "sweep-delta", "simulate",
                   "reliability", "replicate-paper")
COUNT_METRICS = ("solver.min_code_distance.infeasible", "solver.sweep.rows",
                 "mapping.build_mapping.qubits",
                 "simulate.plan_flight.unescapable",
                 "simulate.plan_flight.threatened_qubits",
                 "simulate.plan_flight.move_steps",
                 "simulate.simulate.destroyed_qubits", "simulate.qubit_cycles",
                 "simulate.event_log.bytes", "reliability.mc_analytic.trials",
                 "reliability.mc_simulator.trials", "reliability.mc_failures",
                 "cli.nonzero_exits", "cli.artifact_bytes")


class BenchError(Exception):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit "
                         "(used to time set-up in a fresh interpreter)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def import_program():
    """Import crflight from this checkout's src/, never from elsewhere."""
    if not (SRC / "crflight" / "__init__.py").is_file():
        raise BenchError(f"no crflight sources at {SRC / 'crflight'}")
    sys.path.insert(0, str(SRC))
    import crflight
    if SRC not in Path(crflight.__file__).resolve().parents:
        raise BenchError(f"imported crflight from {crflight.__file__}, not {SRC}")
    return crflight


def source_hash():
    h = hashlib.sha256()
    for d in (SRC / "crflight", HERE):
        for f in sorted(d.glob("*.py")):
            h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


# -- timing helpers ------------------------------------------------------------

def run_op(op, failures):
    """Time one op, then verify it outside the timed region."""
    t0 = perf_counter()
    try:
        out = op.run()
        reason = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, reason = None, ("error", f"{op.kind}: {type(exc).__name__}: {exc}")
    dt = perf_counter() - t0
    if reason is None:
        reason = op.verify(out)
    if reason is not None:
        failures[reason] += 1
    return dt, out


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it,
    with that percentile and the number of samples beyond it. Runs of ten or
    fewer operations report their maximum."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def measure_setup(workload, seed):
    """Median wall time from spawning a fresh interpreter to inputs ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
                line = proc.stdout.readline() if ready else ""
                t1 = perf_counter()
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        if i:  # the first probe only fills the bytecode caches
            times.append(t1 - t0)
    return statistics.median(times), times


# -- the two kinds of run ------------------------------------------------------

def timed_run(workloads, args, tmp):
    setup_s, probes = measure_setup(args.workload, args.seed)
    t0 = perf_counter()
    wl = workloads.build(args.workload, args.seed, tmp)
    in_process_setup = perf_counter() - t0
    gc.collect()
    gc.freeze()
    # The whole op list is one pass. Pass 0 warms up and is not timed; later
    # passes repeat it until --seconds have passed, so every op has samples
    # from every part of the run. The run ends at a block boundary, so the
    # ops run hold the workload's mix.
    ops, n_ops = wl.ops, len(wl.ops)
    samples = [[] for _ in ops]
    failures = Counter()
    deadline = perf_counter() + args.seconds
    attempted = 0
    while (attempted < MIN_PASSES * n_ops or attempted % wl.gate_len
           or perf_counter() < deadline):
        j = attempted % n_ops
        dt, _ = run_op(ops[j], failures)
        ops[j].reset()
        samples[j].append(dt)
        attempted += 1
    # An op's latency is the upper quartile of its timed samples. The host's
    # speed has bursts of up to +50 % lasting seconds; the upper quartile
    # keeps its steady state and drops those bursts as long as they cover
    # under a quarter of the run.
    latencies = [statistics.quantiles(times[1:], n=4, method="inclusive")[2]
                 for times in samples]
    failed = sum(failures.values())
    tail_s, tail_pct, beyond = tail(latencies)
    all_timed = [t for times in samples for t in times[1:]]
    metrics = {
        "ops_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_op_ratio": (1.0 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"ops_per_pass": n_ops, "timed_passes": attempted / n_ops - 1,
            "op_time_s": math.fsum(all_timed),
            "ops_per_s_all_samples": len(all_timed) / math.fsum(all_timed),
            "tail_percentile": tail_pct, "tail_samples": len(latencies),
            "tail_samples_beyond": beyond,
            "setup_probes_s": probes, "in_process_setup_s": in_process_setup}
    return wl, attempted, failures, metrics, info


def traced_run(workloads, args, tmp):
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl = workloads.build(args.workload, args.seed, tmp)
    finally:
        tracer.uninstall()
    setup_counts = Counter(tracer.counts)
    first = len(tracer.spans)
    gc.collect()
    gc.freeze()
    gate = wl.ops[:wl.gate_len]
    failures = Counter()
    untraced_s, traced_s, pass_counts = [], [], []

    def one_pass(k, traced):
        total = 0.0
        if traced:
            tracer.counts.clear()
            tracer.install()
        try:
            for j, op in enumerate(gate):
                tracer.op_id = f"{k}:{j}"
                dt, out = run_op(op, failures)
                if traced and out is not None:
                    tracer.counts.update(op.counts(out))
                op.reset()
                total += dt
        finally:
            if traced:
                tracer.uninstall()
                pass_counts.append(Counter(tracer.counts))
        (traced_s if traced else untraced_s).append(total)

    # Untraced and traced passes alternate, each pair in the other order from
    # the last, so drift in machine speed does not land on one side.
    deadline = perf_counter() + args.seconds
    k = 0
    while True:
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            one_pass(k, traced)
        k += 1
        if perf_counter() >= deadline:
            break
    passes = k

    gate_problems = []
    counts = pass_counts[0]
    for c in pass_counts[1:]:
        if any(c[name] != counts[name] for name in GATED_COUNTS):
            gate_problems.append("gated counts differ between passes of one run")
            break
    gate_problems += check_against_earlier_runs(args, {
        name: setup_counts[name] + counts[name] for name in GATED_COUNTS})

    traced_total = math.fsum(traced_s)
    self_s = spans.self_times(tracer.spans, first, traced_total)
    if not math.isclose(math.fsum(self_s.values()), traced_total,
                        rel_tol=1e-9, abs_tol=1e-9):
        gate_problems.append("layer self times do not add up to the traced wall time")
    if min(self_s.values()) < -1e-9:
        gate_problems.append("negative self time: spans do not nest")
    for problem in gate_problems:
        failures[("check", problem)] += 1

    metrics = per_layer_metrics(tracer.spans, first, passes, setup_counts,
                                counts, self_s, traced_total, math.fsum(untraced_s))
    write_spans(args, tracer.spans)
    attempted = 2 * passes * len(gate)
    info = {"gate_pass_ops": len(gate), "passes": passes,
            "gated_counts": {n: setup_counts[n] + counts[n] for n in GATED_COUNTS},
            "self_s_per_pass": {k: v / passes for k, v in self_s.items()},
            "spans": len(tracer.spans)}
    return wl, attempted, failures, metrics, info


def per_layer_metrics(span_list, first, passes, setup_counts, counts,
                      self_s, traced_total, untraced_total):
    """Per-layer metrics for set-up plus one gate pass (times: pass mean)."""
    from spans import span_stats
    setup = span_stats(span_list[:first], 0)
    traced = span_stats(span_list, first)
    m = {}
    for name, p50_unit in SPAN_METRICS:
        s_calls, s_busy, _ = setup.get(name, (0, 0.0, 0.0))
        t_calls, t_busy, t_p50 = traced.get(name, (0, 0.0, 0.0))
        m[name + ".calls"] = (s_calls + t_calls // passes, "count")
        m[name + ".busy_s"] = (s_busy + t_busy / passes, "s")
        if p50_unit == "us":
            m[name + ".p50_us"] = (t_p50 * 1e6, "us")
        elif p50_unit == "ms":
            m[name + ".p50_ms"] = (t_p50 * 1e3, "ms")
    for name in ("reliability.mc_analytic", "reliability.mc_simulator"):
        trials = setup_counts[name + ".trials"] + counts[name + ".trials"]
        busy = m[name + ".busy_s"][0]
        m[name + ".us_per_trial"] = (busy / trials * 1e6 if trials else 0.0, "us")
    for name in COUNT_METRICS:
        unit = "bytes" if name.endswith("bytes") else "count"
        if name == "simulate.qubit_cycles":
            unit = "count-computed"
        m[name] = (setup_counts[name] + counts[name], unit)
    for sub in CLI_SUBCOMMANDS:
        calls, busy, _ = traced.get("cli." + sub, (0, 0.0, 0.0))
        m[f"cli.{sub}.wall_s"] = (busy / calls if calls else 0.0, "s")
    for layer, seconds in self_s.items():
        m[f"self_s.{layer}"] = (seconds / passes, "s")
    m["trace.wall_s"] = (traced_total / passes, "s")
    m["trace.untraced_wall_s"] = (untraced_total / passes, "s")
    m["trace.overhead_s"] = ((traced_total - untraced_total) / passes, "s")
    return m


def check_against_earlier_runs(args, gated):
    """Compare gated counts with an earlier run of this seed on these sources."""
    path = OUT_DIR / "gate" / f"{args.workload}-seed{args.seed}-{source_hash()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != gated:
            diff = sorted(k for k in gated if earlier.get(k) != gated[k])
            return [f"gated counts differ from an earlier run of this seed: {diff}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(gated, sort_keys=True) + "\n")
    return []


def write_spans(args, spans):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as fh:
        for name, start, end, parent, op_id in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op_id}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    try:
        crflight = import_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import numpy
    import workloads

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, tmp)
            print("ready", flush=True)
            return 0
        run = traced_run if args.trace else timed_run
        try:
            wl, attempted, failures, metrics, info = run(workloads, args, tmp)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    failed = sum(failures.values())
    by_kind = Counter()
    for (category, _), n in failures.items():
        by_kind[category] += n
    correct = by_kind["check"] == 0 and by_kind["error"] == 0
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "crflight": crflight.__version__,
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "failed_op_ratio": failed / attempted,
        "failures_by_kind": dict(by_kind),
        "failures": [{"kind": c, "reason": r, "ops": n}
                     for (c, r), n in failures.most_common(10)],
        **wl.info, **info,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"context": context, **result}, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
