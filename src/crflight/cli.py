"""Command-line front end.

    crflight <subcommand> --config <path> [--out <dir>] [--seed <u64>]

Subcommands: sweep-l, sweep-rmax, sweep-delta, simulate, reliability,
replicate-paper. Each runner maps the resolved configuration to its
artifacts, file name -> text. ``main`` writes them only once all are
solved, then a run-manifest JSON recording the fully resolved configuration
and seed. Set CRFLIGHT_LOG to a logging level name (DEBUG, INFO, ...) to
control verbosity.

Exit codes, all mapped in ``main``: 0 success, 2 configuration error,
3 range error, 4 no escape plan exists, 5 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import solver
from .config import ConfigError, default_config, parse_config, sweep_values_from
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

# Swept parameter -> (start, stop) of its unit-step grid when none is configured
DEFAULT_SWEEP_RANGES = {"l": (1.0, 60.0), "r_max": (1.0, 100.0),
                        "delta": (1.0, 25.0)}


def _physical_params(cfg) -> PhysicalParams:
    return PhysicalParams(cfg["l_mm"], cfg["d"], cfg["v_p_mm_per_us"],
                          cfg["delta_cycles"], cfg["t_c_us"], cfg["r_max_mm"],
                          cfg["move_displacement_mm"])


def _scenarios(cfg):
    return solver.SCENARIOS if cfg["scenario"] == "both" else (cfg["scenario"],)


def _sweep_csv(result: solver.SweepResult) -> str:
    buf = io.StringIO()
    solver.write_sweep_csv(result, buf)
    return buf.getvalue()


def _run_sweep(name: str, cfg):
    result = solver.sweep(name, sweep_values_from(cfg, DEFAULT_SWEEP_RANGES[name]),
                          _physical_params(cfg), scenarios=_scenarios(cfg),
                          x0_convention=cfg["x0_convention"],
                          d_max=cfg["d_max"])
    return {f"sweep_{name}.csv": _sweep_csv(result)}


def _run_simulate(cfg):
    p = _physical_params(cfg)
    m = build_mapping(cfg["rows"], cfg["cols"], p)
    x = cfg["epicenter_x_mm"]
    y = cfg["epicenter_y_mm"]
    if x is None:
        x = m.width_mm / 2.0
    if y is None:
        y = m.height_mm / 2.0
    event = CreEvent(x, y, 0.0)
    plan = plan_flight(m, event, p)
    if plan.fallback_qubits:
        log.warning("qubit(s) %s fall back to a channel stopover the front "
                    "overruns", ", ".join(map(str, plan.fallback_qubits)))
    outcome = simulate(m, event, p, plan)
    lost = [qid for qid, ok in outcome.survived.items() if not ok]
    log.info("simulated %dx%d mapping; %d qubit(s) lost", cfg["rows"],
             cfg["cols"], len(lost))
    return {"mapping.json": m.to_json() + "\n",
            "event_log.csv": outcome.event_log_csv()}


def _run_reliability(cfg):
    tau_min, tau_max = cfg["tau_s_min"], cfg["tau_s_max"]
    # One chain, so that NaN and inf fail here and not inside np.logspace.
    if cfg["tau_points"] < 1 or not 0 < tau_min <= tau_max < math.inf:
        raise ValueError("tau grid requires 0 < tau_s_min <= tau_s_max < inf, "
                         "points >= 1")
    p = _physical_params(cfg)  # range-checks d; analytic MC reads no mapping
    lines = ["tau,analytic_failure,mc_failure,mc_halfwidth"]
    for tau in np.logspace(math.log10(tau_min), math.log10(tau_max),
                           cfg["tau_points"]):
        r = ReliabilityParams(cfg["lambda_per_s"], float(tau), cfg["d"])
        est, hw = monte_carlo_failure(None, p, r, cfg["n_trials"], cfg["seed"])
        lines.append(",".join(map(repr, (r.tau_s, failure_probability(r), est, hw))))
    return {"reliability.csv": "\n".join(lines) + "\n"}


def _run_replicate_paper(cfg):
    """Published-style sweeps with per-point random detection latency in

    [1, 25] cycles and random move displacement in [1, 1e6] mm.
    """
    rng = np.random.default_rng(cfg["seed"])
    artifacts = {}
    base = _physical_params(cfg)
    for name in ("l", "r_max", "delta"):
        # The Δ sweep keeps its default grid whatever the configured one.
        grid = default_config() if name == "delta" else cfg
        values = sweep_values_from(grid, DEFAULT_SWEEP_RANGES[name])
        points = []
        for v in sorted(values):  # the draws follow the value order
            delta = float(rng.uniform(1.0, 25.0)) if name != "delta" else v
            dl = float(rng.uniform(1.0, 1e6))
            points.append((v, replace(base, delta_cycles=delta,
                                      move_displacement_mm=dl)))
        artifacts[f"replicate_{name}.csv"] = _sweep_csv(solver.sweep_points(
            name, points, _scenarios(cfg), cfg["x0_convention"], cfg["d_max"]))
    return artifacts


# Subcommand -> runner: resolved config -> {artifact file name: text}
RUNNERS = {"sweep-l": partial(_run_sweep, "l"),
           "sweep-rmax": partial(_run_sweep, "r_max"),
           "sweep-delta": partial(_run_sweep, "delta"),
           "simulate": _run_simulate, "reliability": _run_reliability,
           "replicate-paper": _run_replicate_paper}


def _write_outputs(out_dir: Path, subcommand: str, cfg, artifacts) -> None:
    """Write every artifact, then the manifest that lists them."""
    manifest = {
        "tool": "crflight",
        "subcommand": subcommand,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "seed": cfg["seed"],
        "outputs": sorted(artifacts),
    }
    artifacts = {**artifacts, "run-manifest.json":
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n"}
    for name, text in artifacts.items():
        (out_dir / name).write_text(text, newline="")
        log.info("wrote %s", out_dir / name)


def _solver_minimum_d(cfg) -> str:
    p = _physical_params(cfg)
    return ", ".join(
        f"{solver.min_code_distance(p, s, cfg['d_max']) or 'none up to d_max'}"
        f" ({s.kind})" for s in (solver.StrikeScenario(kind, cfg["x0_convention"])
                                 for kind in _scenarios(cfg)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crflight",
        description="Cosmic-ray strike flee simulator and code-distance solver")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, default=None)
        sp.add_argument("--out", type=Path, default=Path("."))
        sp.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("CRFLIGHT_LOG", "WARNING").upper()
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError(f"CRFLIGHT_LOG names no logging level: {level!r}")
        logging.basicConfig(level=level,
                            format="%(levelname)s %(name)s: %(message)s")
        log.setLevel(level)  # basicConfig does nothing once root has a handler
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        args.out.mkdir(parents=True, exist_ok=True)
        # Its own try, so that a range error while naming the solver's
        # minimum d (d_max < 2) still exits 3.
        try:
            artifacts = RUNNERS[args.subcommand](cfg)
        except UnescapableError as exc:
            # The usual cause is a d below the solver's answer, so name that.
            print(f"crflight: {exc}; solver minimum d: {_solver_minimum_d(cfg)}; "
                  f"configured d = {cfg['d']}", file=sys.stderr)
            return EXIT_UNESCAPABLE
        _write_outputs(args.out, args.subcommand, cfg, artifacts)
        return EXIT_OK
    except ConfigError as exc:
        print(f"crflight: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"crflight: range error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except MemoryError as exc:  # a size numpy cannot allocate
        print(f"crflight: range error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except OSError as exc:
        print(f"crflight: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
