"""Flat key=value experiment configuration.

Every physical quantity carries its unit in the key name so the file is
unambiguous. Unknown keys are an error.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from .solver import DEFAULT_D_MAX, HALF_D_MM, HALF_SEPARATION, SCENARIOS


class ConfigError(Exception):
    pass


def _float_list(raw: str) -> List[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


# key -> (parser, default)
KNOWN_KEYS = {
    "l_mm": (float, 1.0),
    "v_p_mm_per_us": (float, 2.5),
    "delta_cycles": (float, 1.0),
    "t_c_us": (float, 1.0),
    "r_max_mm": (float, 63.0),
    "move_displacement_mm": (float, 1.0),
    "d": (int, 11),
    "d_max": (int, DEFAULT_D_MAX),
    "x0_convention": (str, HALF_D_MM),
    "scenario": (str, "both"),           # halfway | at_hole | both
    "sweep_start": (float, None),
    "sweep_stop": (float, None),
    "sweep_step": (float, 1.0),
    "sweep_values": (_float_list, None),
    "rows": (int, 1),
    "cols": (int, 1),
    "epicenter_x_mm": (float, None),
    "epicenter_y_mm": (float, None),
    "lambda_per_s": (float, 0.1),
    "tau_s_min": (float, 1e-4),
    "tau_s_max": (float, 1.0),
    "tau_points": (int, 50),
    "n_trials": (int, 10000),
    "seed": (int, 0),
}

# key -> its allowed values, for keys that name a choice
CHOICES = {
    "x0_convention": (HALF_D_MM, HALF_SEPARATION),
    "scenario": (*SCENARIOS, "both"),
}


def default_config() -> Dict[str, object]:
    return {k: default for k, (_, default) in KNOWN_KEYS.items()}


def parse_config(path: Optional[Path]) -> Dict[str, object]:
    """Read a key=value file over the defaults. None returns pure defaults."""
    cfg = default_config()
    if path is None:
        return cfg
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        parser = KNOWN_KEYS[key][0]
        try:
            cfg[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if key in CHOICES and cfg[key] not in CHOICES[key]:
            raise ConfigError(f"{path}:{lineno}: {key} must be one of "
                              f"{', '.join(CHOICES[key])}, got {value!r}")
    return cfg


def sweep_values_from(cfg: Dict[str, object]) -> Optional[List[float]]:
    """Explicit list wins over start/stop/step; None if neither given."""
    if cfg["sweep_values"] is not None:
        return list(cfg["sweep_values"])
    if cfg["sweep_start"] is None or cfg["sweep_stop"] is None:
        return None
    start, stop = float(cfg["sweep_start"]), float(cfg["sweep_stop"])
    step = float(cfg["sweep_step"])
    if not step > 0:
        raise ConfigError(f"sweep_step must be > 0, got {step}")
    out = []
    v = start
    while v <= stop + 1e-9:
        out.append(round(v, 12))
        v += step
    return out
