"""Command-line front end.

Subcommands:
    sweep <config>        grid sweep over (p_bar, k_theta), CSV/JSON out
    single <config>       chained hops from one apex, trajectory out
    fixed-point [config]  one fixed point, printed as JSON
    validate              report the stance-kernel path and check it

Config files are flat key=value lines ('#' starts a comment); CLI flags
override file values. Exit codes: 0 success, 2 config error, 3 all
points failed (or a failed validate check).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import fixedpoint as fp
from .errors import SlipError
from .harness import (ALL_PIPELINES, SweepConfig, run_single, run_sweep,
                      solve_point)
from .model import (ApexState, ControlInputs, DEFAULT_PARAMS, SlipParams,
                    StanceState)
from .simulate import (DEFAULT_CONTROL_DT, DEFAULT_DT, HAVE_NUMBA,
                       integrate_stance)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALL_FAILED = 3


class ConfigError(Exception):
    pass


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value file; '#' comments and blank lines ignored."""
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _get(cfg: dict[str, str], key: str, cast, default):
    if key not in cfg or cfg[key] == "":
        return default
    raw = cfg[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"config key {key}={raw!r}: {err}") from err


def _opt_float(raw: str):
    return None if raw.lower() in ("none", "inf") else float(raw)


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _params_from(cfg: dict[str, str]) -> SlipParams:
    return SlipParams(
        m=_get(cfg, "m", float, DEFAULT_PARAMS.m),
        k=_get(cfg, "k", float, DEFAULT_PARAMS.k),
        b=_get(cfg, "b", float, DEFAULT_PARAMS.b),
        r0=_get(cfg, "r0", float, DEFAULT_PARAMS.r0),
        g=_get(cfg, "g", float, DEFAULT_PARAMS.g),
    )


def _gains_from(cfg: dict[str, str]) -> dict:
    return dict(
        kp=_get(cfg, "kp", float, 100.0),
        ki=_get(cfg, "ki", float, 0.2),
        kd=_get(cfg, "kd", float, 0.05),
        tau_max=_get(cfg, "tau_max", _opt_float, None),
    )


def _load_config(path: str | None, overrides: dict[str, str]) -> dict[str, str]:
    cfg = parse_config_file(path) if path else {}
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output directory")
    for name in ("m", "k", "b", "r0", "g", "kp", "ki", "kd", "tau-max",
                 "dt", "control-dt"):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"))


def _overrides(args: argparse.Namespace, keys: list[str]) -> dict[str, str]:
    out = {}
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = str(val)
    return out


_COMMON_KEYS = ["m", "k", "b", "r0", "g", "kp", "ki", "kd", "tau_max",
                "dt", "control_dt"]


def _cmd_sweep(args: argparse.Namespace) -> int:
    keys = _COMMON_KEYS + ["p_bar_min", "p_bar_max", "p_bar_count",
                           "k_theta_min", "k_theta_max", "k_theta_count",
                           "pipelines", "workers", "seed_chaining"]
    cfg = _load_config(args.config, _overrides(args, keys))
    out_dir = args.out or cfg.get("out_dir") or "sweep_out"
    gains = _gains_from(cfg)
    pipelines = tuple(
        s.strip() for s in
        _get(cfg, "pipelines", str, ",".join(ALL_PIPELINES)).split(",")
        if s.strip())
    sweep = SweepConfig(
        params=_params_from(cfg),
        p_bar_range=(_get(cfg, "p_bar_min", float, -1.55),
                     _get(cfg, "p_bar_max", float, -0.5),
                     _get(cfg, "p_bar_count", int, 20)),
        k_theta_range=(_get(cfg, "k_theta_min", float, 0.3),
                       _get(cfg, "k_theta_max", float, 0.75),
                       _get(cfg, "k_theta_count", int, 20)),
        pipelines=pipelines,
        out_dir=out_dir,
        seed_chaining=_get(cfg, "seed_chaining", _bool, True),
        workers=_get(cfg, "workers", int, 1),
        dt=_get(cfg, "dt", float, DEFAULT_DT),
        control_dt=_get(cfg, "control_dt", float, DEFAULT_CONTROL_DT),
        **gains,
    )
    report = run_sweep(sweep)
    n_ok = sum(1 for o in report.outcomes if o.result is not None)
    print(f"sweep: {n_ok}/{len(report.outcomes)} cells converged "
          f"in {report.runtime_s:.1f} s -> {out_dir}")
    for s in report.error_stats:
        print(f"  {s.predicted} vs {s.reference} {s.quantity}: "
              f"rms={s.rms:.4g} ({s.percent_rms:.1f}%) over {s.n} points")
    return EXIT_OK if n_ok else EXIT_ALL_FAILED


def _cmd_single(args: argparse.Namespace) -> int:
    keys = _COMMON_KEYS + ["p_bar", "k_theta", "n_hops", "apex_x_dot",
                           "apex_y", "k_theta_step_hop",
                           "k_theta_step_value"]
    cfg = _load_config(args.config, _overrides(args, keys))
    out_dir = args.out or cfg.get("out_dir") or "single_out"
    params = _params_from(cfg)
    inputs = ControlInputs(
        p_bar=_get(cfg, "p_bar", float, -0.79),
        k_theta=_get(cfg, "k_theta", float, 0.64),
        **_gains_from(cfg))
    apex = ApexState(x_dot=_get(cfg, "apex_x_dot", float, 1.0),
                     y=_get(cfg, "apex_y", float, 0.25))
    step_hop = _get(cfg, "k_theta_step_hop", int, None)
    step_val = _get(cfg, "k_theta_step_value", float, None)
    if (step_hop is None) != (step_val is None):
        raise ConfigError("k_theta_step_hop and k_theta_step_value must be "
                          "given together")
    step = None if step_hop is None else (step_hop, step_val)
    report = run_single(apex, inputs, params,
                        n_hops=_get(cfg, "n_hops", int, 20),
                        k_theta_step=step,
                        dt=_get(cfg, "dt", float, DEFAULT_DT),
                        control_dt=_get(cfg, "control_dt", float,
                                        DEFAULT_CONTROL_DT),
                        out_dir=out_dir)
    print(f"single: {len(report.hops)} hops -> {out_dir}")
    if report.failure:
        print(f"  stopped: {report.failure}")
    return EXIT_OK if report.hops else EXIT_ALL_FAILED


def _cmd_fixed_point(args: argparse.Namespace) -> int:
    keys = _COMMON_KEYS + ["p_bar", "k_theta", "pipeline"]
    cfg = _load_config(args.config, _overrides(args, keys))
    params = _params_from(cfg)
    p_bar = _get(cfg, "p_bar", float, None)
    k_theta = _get(cfg, "k_theta", float, None)
    if p_bar is None or k_theta is None:
        raise ConfigError("fixed-point requires --p-bar and --k-theta")
    pipeline = _get(cfg, "pipeline", str, fp.CLOSED_FORM)
    if pipeline not in ALL_PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}")
    inputs = ControlInputs(p_bar=p_bar, k_theta=k_theta, **_gains_from(cfg))
    dt = _get(cfg, "dt", float, DEFAULT_DT)
    control_dt = _get(cfg, "control_dt", float, DEFAULT_CONTROL_DT)
    try:
        result = solve_point(pipeline, inputs, params, dt=dt,
                             control_dt=control_dt)
    except SlipError as err:
        print(json.dumps({"status": type(err).__name__, "phase": err.phase,
                          "message": str(err)}, indent=2, sort_keys=True))
        return EXIT_ALL_FAILED
    doc = {
        "status": "converged",
        "pipeline": result.provenance,
        "apex": {"x_dot": result.apex.x_dot, "y": result.apex.y},
        "spectral_radius": None if math.isnan(result.spectral_radius)
        else result.spectral_radius,
        "stable": result.stable,
        "residual": None if math.isnan(result.residual) else result.residual,
        "newton_steps": result.newton_steps,
    }
    if result.touchdown is not None:
        doc["touchdown"] = {
            "r_dot_td": result.touchdown.r_dot_td,
            "theta_td": result.touchdown.theta_td,
            "theta_dot_td": result.touchdown.theta_dot_td,
            "theta_offset": result.touchdown.theta_offset,
        }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _kernel_path() -> str:
    if not HAVE_NUMBA:
        return "pure Python (numba not installed)"
    import numba
    if numba.config.DISABLE_JIT:
        return (f"pure Python (numba {numba.__version__}, "
                "NUMBA_DISABLE_JIT set)")
    return f"numba JIT (numba {numba.__version__})"


def _cmd_validate(_args: argparse.Namespace) -> int:
    """Check the stance kernel that is active in this environment.

    Every other identity (resets, flows, liftoff time, constraint roots,
    flight energy) is pure Python and checked by the test suite.
    """
    print(f"stance kernel: {_kernel_path()}")
    undamped = SlipParams(m=3.3, k=4000.0, b=0.0, r0=0.2)
    td = StanceState(r=undamped.r0, r_dot=-1.4, theta=0.0, theta_dot=0.0)
    lo, _ = integrate_stance(td, None, undamped)
    err = abs(lo.r_dot + td.r_dot)
    params = DEFAULT_PARAMS
    td = StanceState(r=params.r0, r_dot=-1.5, theta=0.3, theta_dot=-4.0)
    lo, _ = integrate_stance(td, None, params)
    force = abs(params.k * (lo.r - params.r0) + params.b * lo.r_dot)
    results = [
        ("undamped vertical bounce is symmetric", err <= 1e-6,
         f"|r_dot_lo + r_dot_td| = {err:.2e}"),
        ("leg force vanishes at the localized liftoff",
         force <= 1e-5 and lo.r_dot > 0.0, f"|force| = {force:.2e} N"),
    ]
    fails = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        fails += 0 if ok else 1
    print(f"{len(results) - fails}/{len(results)} invariants hold")
    return EXIT_OK if fails == 0 else EXIT_ALL_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliphop",
        description="Hip-energized SLIP hopping gait analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="fixed-point grid sweep")
    p_sweep.add_argument("config", nargs="?", help="key=value config file")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--p-bar-min", dest="p_bar_min")
    p_sweep.add_argument("--p-bar-max", dest="p_bar_max")
    p_sweep.add_argument("--p-bar-count", dest="p_bar_count")
    p_sweep.add_argument("--k-theta-min", dest="k_theta_min")
    p_sweep.add_argument("--k-theta-max", dest="k_theta_max")
    p_sweep.add_argument("--k-theta-count", dest="k_theta_count")
    p_sweep.add_argument("--pipelines", dest="pipelines",
                         help="comma list: " + ",".join(ALL_PIPELINES))
    p_sweep.add_argument("--workers", dest="workers")
    p_sweep.add_argument("--seed-chaining", dest="seed_chaining")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_single = sub.add_parser("single", help="chained hop simulation")
    p_single.add_argument("config", nargs="?")
    _add_common_flags(p_single)
    for name in ("p-bar", "k-theta", "n-hops", "apex-x-dot", "apex-y",
                 "k-theta-step-hop", "k-theta-step-value"):
        p_single.add_argument(f"--{name}", dest=name.replace("-", "_"))
    p_single.set_defaults(func=_cmd_single)

    p_fp = sub.add_parser("fixed-point", help="single fixed point as JSON")
    p_fp.add_argument("config", nargs="?")
    _add_common_flags(p_fp)
    p_fp.add_argument("--p-bar", dest="p_bar")
    p_fp.add_argument("--k-theta", dest="k_theta")
    p_fp.add_argument("--pipeline", dest="pipeline",
                      choices=list(ALL_PIPELINES))
    p_fp.set_defaults(func=_cmd_fixed_point)

    p_val = sub.add_parser("validate",
                           help="report and check the stance kernel")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
