"""Command-line front end.

    crflight <subcommand> --config <path> [--out <dir>] [--seed <u64>]

Subcommands: sweep-l, sweep-rmax, sweep-delta, simulate, reliability,
replicate-paper. Each writes CSV artifacts plus a run-manifest JSON
recording the fully resolved configuration and seed. Set CRFLIGHT_LOG
to a logging level name (DEBUG, INFO, ...) to control verbosity.

Exit codes: 0 success, 2 configuration error, 3 range error,
4 no escape plan exists, 5 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import solver
from .config import ConfigError, parse_config, sweep_values_from
from .mapping import build_mapping
from .model import CreEvent, PhysicalParams
from .reliability import ReliabilityParams, failure_probability, monte_carlo_failure
from .simulate import UnescapableError, plan_flight, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RANGE = 3
EXIT_UNESCAPABLE = 4
EXIT_IO = 5

log = logging.getLogger("crflight")

# Sweep subcommand -> swept parameter
SWEEP_SUBCOMMANDS = {"sweep-l": "l", "sweep-rmax": "r_max", "sweep-delta": "delta"}


def _physical_params(cfg) -> PhysicalParams:
    return PhysicalParams(cfg["l_mm"], cfg["d"], cfg["v_p_mm_per_us"],
                          cfg["delta_cycles"], cfg["t_c_us"], cfg["r_max_mm"],
                          cfg["move_displacement_mm"])


def _scenarios(cfg):
    return solver.SCENARIOS if cfg["scenario"] == "both" else (cfg["scenario"],)


def _write_manifest(out_dir: Path, subcommand: str, cfg, outputs) -> None:
    manifest = {
        "tool": "crflight",
        "subcommand": subcommand,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "seed": cfg["seed"],
        "outputs": sorted(outputs),
    }
    (out_dir / "run-manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _default_sweep_values(name, cfg):
    defaults = {"l": (1.0, 60.0), "r_max": (1.0, 100.0), "delta": (1.0, 25.0)}
    values = sweep_values_from(cfg)
    if values is None:
        start, stop = defaults[name]
        values = [start + i for i in range(int(stop - start) + 1)]
    return values


def _write_sweeps(out_dir: Path, subcommand: str, cfg, results) -> int:
    for out_name, result in results.items():
        out_path = out_dir / out_name
        with out_path.open("w", newline="") as fh:
            solver.write_sweep_csv(result, fh)
        log.info("wrote %s (%d rows)", out_path, len(result.rows))
    _write_manifest(out_dir, subcommand, cfg, list(results))
    return EXIT_OK


def _run_sweep(subcommand: str, cfg, out_dir: Path) -> int:
    name = SWEEP_SUBCOMMANDS[subcommand]
    result = solver.sweep(name, _default_sweep_values(name, cfg),
                          _physical_params(cfg), scenarios=_scenarios(cfg),
                          x0_convention=cfg["x0_convention"],
                          d_max=cfg["d_max"])
    return _write_sweeps(out_dir, subcommand, cfg, {f"sweep_{name}.csv": result})


def _run_simulate(cfg, out_dir: Path) -> int:
    p = _physical_params(cfg)
    m = build_mapping(cfg["rows"], cfg["cols"], p)
    x = cfg["epicenter_x_mm"]
    y = cfg["epicenter_y_mm"]
    if x is None:
        x = m.width_mm / 2.0
    if y is None:
        y = m.height_mm / 2.0
    event = CreEvent(x, y, 0.0)
    try:
        plan = plan_flight(m, event, p)
    except UnescapableError as exc:
        # The usual cause is a d below the solver's answer, so name that.
        needed = ", ".join(
            f"{solver.min_code_distance(p, s, cfg['d_max']) or 'none up to d_max'}"
            f" ({s.kind})" for s in (solver.StrikeScenario(kind, cfg["x0_convention"])
                                     for kind in _scenarios(cfg)))
        print(f"crflight: {exc}; solver minimum d: {needed}; configured d = {p.d}",
              file=sys.stderr)
        return EXIT_UNESCAPABLE
    if plan.fallback_qubits:
        log.warning("qubit(s) %s fall back to a channel stopover the front "
                    "overruns", ", ".join(map(str, plan.fallback_qubits)))
    outcome = simulate(m, event, p, plan)
    (out_dir / "mapping.json").write_text(m.to_json() + "\n")
    (out_dir / "event_log.csv").write_text(outcome.event_log_csv())
    _write_manifest(out_dir, "simulate", cfg, ["mapping.json", "event_log.csv"])
    lost = [qid for qid, ok in outcome.survived.items() if not ok]
    log.info("simulated %dx%d mapping; %d qubit(s) lost", cfg["rows"],
             cfg["cols"], len(lost))
    return EXIT_OK


def _run_reliability(cfg, out_dir: Path) -> int:
    tau_min, tau_max = cfg["tau_s_min"], cfg["tau_s_max"]
    if cfg["tau_points"] < 1 or not tau_min > 0 or not tau_max >= tau_min:
        raise ValueError("tau grid requires 0 < tau_s_min <= tau_s_max, points >= 1")
    p = _physical_params(cfg)
    m = build_mapping(cfg["rows"], cfg["cols"], p)
    taus = np.logspace(math.log10(tau_min), math.log10(tau_max), cfg["tau_points"])
    rows = []
    for tau in taus:
        r = ReliabilityParams(cfg["lambda_per_s"], float(tau), cfg["d"])
        est, hw = monte_carlo_failure(m, p, r, cfg["n_trials"], cfg["seed"])
        rows.append([repr(float(tau)), repr(failure_probability(r)), repr(est),
                     repr(hw)])
    out_path = out_dir / "reliability.csv"
    with out_path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["tau", "analytic_failure", "mc_failure", "mc_halfwidth"])
        w.writerows(rows)
    _write_manifest(out_dir, "reliability", cfg, [out_path.name])
    log.info("wrote %s (%d tau points)", out_path, len(taus))
    return EXIT_OK


def _run_replicate_paper(cfg, out_dir: Path) -> int:
    """Published-style sweeps with per-point random detection latency in

    [1, 25] cycles and random move displacement in [1, 1e6] mm.
    """
    rng = np.random.default_rng(cfg["seed"])
    results = {}  # artifact name -> sweep
    base = _physical_params(cfg)
    for name in ("l", "r_max", "delta"):
        values = ([float(v) for v in range(1, 26)] if name == "delta"
                  else _default_sweep_values(name, cfg))
        points = []
        for v in sorted(values):  # the draws follow the value order
            delta = float(rng.uniform(1.0, 25.0)) if name != "delta" else v
            dl = float(rng.uniform(1.0, 1e6))
            points.append((v, replace(base, delta_cycles=delta,
                                      move_displacement_mm=dl)))
        results[f"replicate_{name}.csv"] = solver.sweep_points(
            name, points, _scenarios(cfg), cfg["x0_convention"], cfg["d_max"])
    # Written only once every sweep is solved: an error leaves no artifact.
    return _write_sweeps(out_dir, "replicate-paper", cfg, results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crflight",
        description="Cosmic-ray strike flee simulator and code-distance solver")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in (*SWEEP_SUBCOMMANDS, "simulate", "reliability", "replicate-paper"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, default=None)
        sp.add_argument("--out", type=Path, default=Path("."))
        sp.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("CRFLIGHT_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.subcommand in SWEEP_SUBCOMMANDS:
            return _run_sweep(args.subcommand, cfg, out_dir)
        if args.subcommand == "simulate":
            return _run_simulate(cfg, out_dir)
        if args.subcommand == "reliability":
            return _run_reliability(cfg, out_dir)
        return _run_replicate_paper(cfg, out_dir)
    except ConfigError as exc:
        print(f"crflight: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"crflight: range error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except OSError as exc:
        print(f"crflight: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
