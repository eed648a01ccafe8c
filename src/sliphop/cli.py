"""Command-line front end.

Subcommands:
    sweep <config>        grid sweep over (p_bar, k_theta), CSV/JSON out
    single <config>       chained hops from one apex, trajectory out
    fixed-point [config]  one fixed point, printed as JSON

Config files are flat key=value lines ('#' starts a comment).
COMMAND_KEYS declares each subcommand's keys once, with the function
that parses each value; every key is also a flag (--out for out_dir),
and a flag overrides the file. An empty value leaves a key unset; a
file key that no subcommand declares is a config error. Only the keys
that are set reach the library, which supplies every other default;
SINGLE_DEFAULTS holds the single-run gait and starting apex, which no
library type has. Exit codes: 0 success, 2 config error, 3 nothing
converged.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import fixedpoint as fp
from .errors import SlipError
from .harness import (ALL_PIPELINES, SweepConfig, run_single, run_sweep,
                      solve_point, to_json)
from .model import ApexState, ControlInputs, DEFAULT_PARAMS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALL_FAILED = 3


class ConfigError(Exception):
    pass


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value file; '#' comments and blank lines ignored. A key
    set twice is an error."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set "
                              f"on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value
    return values


def _opt_float(raw: str):
    return None if raw.lower() in ("none", "inf") else float(raw)


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _names(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


_PHYSICS = {"m": float, "k": float, "b": float, "r0": float, "g": float}
_GAINS = {"kp": float, "ki": float, "kd": float, "tau_max": _opt_float}
_STEPS = {"dt": float, "control_dt": float}
_GAIT = {"p_bar": float, "k_theta": float}
_COMMON = {"out_dir": str, **_PHYSICS, **_GAINS, **_STEPS}

COMMAND_KEYS = {
    "sweep": {**_COMMON, "p_bar_min": float, "p_bar_max": float,
              "p_bar_count": int, "k_theta_min": float,
              "k_theta_max": float, "k_theta_count": int,
              "pipelines": _names, "workers": int, "seed_chaining": _bool},
    "single": {**_COMMON, **_GAIT, "n_hops": int, "apex_x_dot": float,
               "apex_y": float, "k_theta_step_hop": int,
               "k_theta_step_value": float},
    "fixed-point": {**_COMMON, **_GAIT, "pipeline": str},
}

_KNOWN_KEYS = set().union(*COMMAND_KEYS.values())

SINGLE_DEFAULTS = {"p_bar": -0.79, "k_theta": 0.64, "apex_x_dot": 1.0,
                   "apex_y": 0.25, "n_hops": 20}

_FLAG_OPTIONS = {
    "out_dir": {"metavar": "OUT", "help": "output directory"},
    "pipelines": {"help": "comma list: " + ",".join(ALL_PIPELINES)},
    "pipeline": {"choices": ALL_PIPELINES},
}


def _config(args: argparse.Namespace) -> dict:
    """The command's keys set in its config file or flags, parsed.

    A file key that no subcommand declares is a config error; keys of
    other subcommands are ignored, so one file can serve them all.
    """
    keys, flags = COMMAND_KEYS[args.command], vars(args)
    text = parse_config_file(args.config) if args.config else {}
    for key in text:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    text.update((key, flags[key]) for key in keys if flags[key] is not None)
    cfg = {}
    for key, parse in keys.items():
        raw = text.get(key, "")
        if raw == "":
            continue
        try:
            cfg[key] = parse(raw)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"config key {key}={raw!r}: {err}") from err
    return cfg


def _pick(cfg: dict, keys) -> dict:
    return {key: cfg[key] for key in keys if key in cfg}


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config(args)
    out_dir = cfg.get("out_dir", "sweep_out")
    grid = {}
    for name in ("p_bar", "k_theta"):
        default = getattr(SweepConfig, f"{name}_range")
        grid[f"{name}_range"] = tuple(
            cfg.get(f"{name}_{end}", value)
            for end, value in zip(("min", "max", "count"), default))
    sweep = SweepConfig(
        params=replace(DEFAULT_PARAMS, **_pick(cfg, _PHYSICS)),
        out_dir=out_dir, **grid,
        **_pick(cfg, ("pipelines", "seed_chaining", "workers", *_GAINS,
                      *_STEPS)))
    report = run_sweep(sweep)
    n_ok = sum(1 for o in report.outcomes if o.result is not None)
    print(f"sweep: {n_ok}/{len(report.outcomes)} cells converged "
          f"in {report.runtime_s:.1f} s -> {out_dir}")
    for s in report.error_stats:
        print(f"  {s.predicted} vs {s.reference} {s.quantity}: "
              f"rms={s.rms:.4g} ({s.percent_rms:.1f}%) over {s.n} points")
    return EXIT_OK if n_ok else EXIT_ALL_FAILED


def _cmd_single(args: argparse.Namespace) -> int:
    cfg = {**SINGLE_DEFAULTS, **_config(args)}
    out_dir = cfg.get("out_dir", "single_out")
    params = replace(DEFAULT_PARAMS, **_pick(cfg, _PHYSICS))
    inputs = ControlInputs(**_pick(cfg, _GAIT), **_pick(cfg, _GAINS))
    apex = ApexState(x_dot=cfg["apex_x_dot"], y=cfg["apex_y"])
    step = tuple(_pick(cfg, ("k_theta_step_hop",
                             "k_theta_step_value")).values())
    if len(step) == 1:
        raise ConfigError("k_theta_step_hop and k_theta_step_value must be "
                          "given together")
    report = run_single(apex, inputs, params, n_hops=cfg["n_hops"],
                        k_theta_step=step or None, out_dir=out_dir,
                        **_pick(cfg, _STEPS))
    print(f"single: {len(report.hops)} hops -> {out_dir}")
    if report.failure:
        print(f"  stopped: {report.failure}")
    return EXIT_OK if report.hops else EXIT_ALL_FAILED


def _cmd_fixed_point(args: argparse.Namespace) -> int:
    cfg = _config(args)
    params = replace(DEFAULT_PARAMS, **_pick(cfg, _PHYSICS))
    if "p_bar" not in cfg or "k_theta" not in cfg:
        raise ConfigError("fixed-point requires --p-bar and --k-theta")
    inputs = ControlInputs(**_pick(cfg, _GAIT), **_pick(cfg, _GAINS))
    try:
        result = solve_point(cfg.get("pipeline", fp.CLOSED_FORM), inputs,
                             params, **_pick(cfg, _STEPS))
    except SlipError as err:
        print(to_json({"status": type(err).__name__, "phase": err.phase,
                       "message": str(err)}), end="")
        return EXIT_ALL_FAILED
    rho_known = not math.isnan(result.spectral_radius)
    doc = {
        "status": "converged",
        "pipeline": result.provenance,
        "apex": asdict(result.apex),
        "spectral_radius": result.spectral_radius if rho_known else None,
        "stable": result.stable if rho_known else None,
        "residual": None if math.isnan(result.residual) else result.residual,
        "newton_steps": result.newton_steps,
    }
    if result.touchdown is not None:
        doc["touchdown"] = asdict(result.touchdown)
    print(to_json(doc), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliphop",
        description="Hip-energized SLIP hopping gait analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary in (
            ("sweep", _cmd_sweep, "fixed-point grid sweep"),
            ("single", _cmd_single, "chained hop simulation"),
            ("fixed-point", _cmd_fixed_point, "single fixed point as JSON")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("config", nargs="?", help="key=value config file")
        for key in COMMAND_KEYS[name]:
            flag = "out" if key == "out_dir" else key.replace("_", "-")
            p.add_argument(f"--{flag}", dest=key,
                           **_FLAG_OPTIONS.get(key, {}))
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
