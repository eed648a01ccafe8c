"""The benchmark's three workloads: seeded inputs, the timed call, and checks.

Every workload is a closed-loop batch job in one process (workers=1):
the next item starts only after the previous one finished. The seed
only generates inputs; the program sees nothing but those inputs.

* ``sweep-sim``: ``run_sweep`` with the closed-form and simulator-numeric
  pipelines on a 2x2 grid spanning criterion 1's ranges. Nearly all of
  its time is the RK4 stance kernel under Newton, fed ``np.float64``.
* ``sweep-analytic``: ``run_sweep`` with the closed-form and
  analytic-numeric pipelines on the full 20x20 criterion-1 grid. It
  never enters the stance kernel.
* ``single-hop``: ``run_single`` over 20 recorded hops with a mid-run
  ``k_theta`` step, writing its CSV and JSON outputs. One lane, Python
  floats, 1 kHz recording. The gait is drawn from a band around the
  README's default single run (p_bar=-0.79, k_theta=0.64), inside
  criterion 1's ranges: across the whole grid the stance and flight
  durations, and with them the work of 20 hops, vary by a factor of
  1.5 between seeds, against about 3% inside the band.

The timed calls look ``run_sweep`` and ``run_single`` up on the harness
module at call time, so the tracer's wrappers (tracing.py) see them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from sliphop import fixedpoint as fp
from sliphop import harness
from sliphop.analytic import return_map_analytic
from sliphop.errors import SlipError
from sliphop.harness import ANALYTIC_TOL, SIM_TOL, SweepConfig
from sliphop.model import ApexState, ControlInputs, DEFAULT_PARAMS
from sliphop.simulate import return_map_numeric

#: Seed reserved for confirming a claimed gain; never used while tuning.
HELD_OUT_SEED = 20201102

# Criterion 1's grid: (min, max, count) of p_bar and k_theta.
P_BAR_GRID = (-1.55, -0.5, 20)
K_THETA_GRID = (0.3, 0.75, 20)
# The seed moves both grid ends inward by this share of one criterion-1
# spacing. Below 0.3 the analytic-numeric pipeline has no solution at two
# k_theta = 0.3 cells (GaitFailure@aoa, a limit of the quadratic AoA
# approximation); below 0.35 one sweep-sim cell takes one Newton step
# fewer, which would make the work itself depend on the seed.
SHIFT_RANGE = (0.4, 1.0)

SIM_GRID_COUNT = 2
N_HOPS = 20
SINGLE_P_BAR = (-0.9, -0.7)
SINGLE_K_THETA = (0.6, 0.7)
SINGLE_STEP = 0.05  # largest k_theta change at the mid-run step

# Correctness tolerances. The README contract: the production integrator
# matches a dt=1e-6 RK4 reference to 1e-6 per component. A simulator
# fixed point converged to SIM_TOL under the production map therefore
# has a residual of at most SIM_TOL + 1e-6 under the reference map.
FINE_DT = 1e-6
HOP_TOL = 1e-6
FIXED_POINT_TOL = SIM_TOL + HOP_TOL
# README contract: closed-form fixed points zero the touchdown
# constraint polynomials to better than 1e-9 (criterion 8).
CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class SingleHopInputs:
    apex: ApexState
    inputs: ControlInputs
    n_hops: int
    k_theta_step: tuple[int, float]


@dataclass
class Check:
    """Outcome of one workload's correctness pass."""

    checked: int = 0
    misses: list[str] = field(default_factory=list)
    fine_dt_residual_max: float = 0.0


def _grid_shift(rng: random.Random) -> tuple[float, float]:
    share = rng.uniform(*SHIFT_RANGE)
    dp = (P_BAR_GRID[1] - P_BAR_GRID[0]) / (P_BAR_GRID[2] - 1)
    dk = (K_THETA_GRID[1] - K_THETA_GRID[0]) / (K_THETA_GRID[2] - 1)
    return share * dp, share * dk


def _sweep_inputs(seed: int, count: int,
                  pipelines: tuple[str, ...]) -> SweepConfig:
    sp, sk = _grid_shift(random.Random(seed))
    return SweepConfig(
        p_bar_range=(P_BAR_GRID[0] + sp, P_BAR_GRID[1] - sp, count),
        k_theta_range=(K_THETA_GRID[0] + sk, K_THETA_GRID[1] - sk, count),
        pipelines=pipelines, seed_chaining=True, workers=1)


def _single_inputs(seed: int, n_hops: int = N_HOPS) -> SingleHopInputs:
    rng = random.Random(seed)
    p_bar = rng.uniform(*SINGLE_P_BAR)
    k_theta = rng.uniform(*SINGLE_K_THETA)
    # start near the nominal speed of the momentum line x_dot = -p_bar/(m*r0)
    x_nom = -p_bar / (DEFAULT_PARAMS.m * DEFAULT_PARAMS.r0)
    apex = ApexState(x_dot=x_nom * rng.uniform(0.8, 1.0),
                     y=rng.uniform(0.24, 0.28))
    step_hop = rng.randint(n_hops // 3, 2 * n_hops // 3)
    step_value = k_theta + rng.uniform(-SINGLE_STEP, SINGLE_STEP)
    return SingleHopInputs(apex=apex,
                           inputs=ControlInputs(p_bar=p_bar, k_theta=k_theta),
                           n_hops=n_hops,
                           k_theta_step=(step_hop, step_value))


def _gait_at(hop: int, w: SingleHopInputs) -> ControlInputs:
    if hop >= w.k_theta_step[0]:
        return replace(w.inputs, k_theta=w.k_theta_step[1])
    return w.inputs


# --- the timed calls ---------------------------------------------------------

def _run_sweep(cfg: SweepConfig, out_dir: Path):
    return harness.run_sweep(replace(cfg, out_dir=str(out_dir)))


def _run_single(w: SingleHopInputs, out_dir: Path):
    return harness.run_single(w.apex, w.inputs, DEFAULT_PARAMS, w.n_hops,
                              k_theta_step=w.k_theta_step, out_dir=out_dir)


# --- operations and their failures -------------------------------------------

def sweep_statuses(report, cfg: SweepConfig) -> list[str]:
    """One status per operation: a grid cell under one pipeline."""
    return [o.status for o in report.outcomes]


def single_statuses(report, w: SingleHopInputs) -> list[str]:
    """One status per requested hop. A failed hop ends the run, so it and
    every hop after it carry the failure's status."""
    statuses = ["converged"] * len(report.hops)
    if report.failure is not None:
        # "hop <i>: <Status>: <message>"
        statuses += [report.failure.split(": ")[1]] * (
            w.n_hops - len(report.hops))
    return statuses


# --- correctness pass (outside every timed region) ---------------------------

def _fine_map(apex: ApexState, inputs: ControlInputs) -> ApexState:
    apex = ApexState(float(apex.x_dot), float(apex.y))
    return return_map_numeric(apex, inputs, DEFAULT_PARAMS, dt=FINE_DT,
                              record=False)[0]


def _deviation(a: ApexState, b: ApexState) -> float:
    return max(abs(a.x_dot - b.x_dot), abs(a.y - b.y))


def check_sweep(cfg: SweepConfig, report) -> Check:
    """Re-check every converged cell against an independent evaluation.

    Simulator fixed points go through a dt=1e-6 map, analytic-numeric
    ones through return_map_analytic, closed-form ones through their
    touchdown constraint polynomials.
    """
    chk = Check()
    for o in report.outcomes:
        if o.result is None:
            continue
        chk.checked += 1
        where = f"{o.pipeline} ({o.p_bar:.6g}, {o.k_theta:.6g})"
        z = o.result.apex
        inputs = cfg.inputs(o.p_bar, o.k_theta)
        try:
            if o.pipeline == fp.SIMULATOR_NUMERIC:
                dev = _deviation(_fine_map(z, inputs), z)
                chk.fine_dt_residual_max = max(chk.fine_dt_residual_max, dev)
                ok = dev <= FIXED_POINT_TOL
            elif o.pipeline == fp.ANALYTIC_NUMERIC:
                dev = _deviation(
                    return_map_analytic(z, inputs, cfg.params), z)
                ok = dev <= ANALYTIC_TOL
            else:
                dev = max(map(abs, fp.energy_speed_constraints(
                    o.result.touchdown, o.p_bar, o.k_theta, cfg.params)))
                ok = dev <= CONSTRAINT_TOL
        except SlipError as err:
            chk.misses.append(f"{where}: re-evaluation failed: {err}")
            continue
        if not (ok and math.isfinite(dev)):
            chk.misses.append(f"{where}: deviation {dev:.3e}")
    return chk


def check_single(w: SingleHopInputs, report) -> Check:
    """Re-run each recorded hop from its start apex under a dt=1e-6 map."""
    chk = Check()
    start = w.apex
    for h in report.hops:
        chk.checked += 1
        end = ApexState(h.x_dot, h.y)
        try:
            dev = _deviation(_fine_map(start, _gait_at(h.hop, w)), end)
        except SlipError as err:
            chk.misses.append(f"hop {h.hop}: re-evaluation failed: {err}")
        else:
            if not dev <= HOP_TOL:
                chk.misses.append(f"hop {h.hop}: deviation {dev:.3e}")
        start = end
    return chk


# --- workload table ----------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], Any]
    run: Callable[[Any, Path], Any]          # (inputs, out_dir) -> report
    statuses: Callable[[Any, Any], list[str]]  # (report, inputs)
    check: Callable[[Any, Any], Check]      # (inputs, report)
    outputs: tuple[str, ...]  # files compared byte for byte across repeats


WORKLOADS = {
    "sweep-sim": Workload(
        "sweep-sim",
        lambda seed: _sweep_inputs(seed, SIM_GRID_COUNT,
                                   (fp.CLOSED_FORM, fp.SIMULATOR_NUMERIC)),
        _run_sweep, sweep_statuses, check_sweep,
        ("sweep.csv", "errors.csv")),
    "sweep-analytic": Workload(
        "sweep-analytic",
        lambda seed: _sweep_inputs(seed, P_BAR_GRID[2],
                                   (fp.CLOSED_FORM, fp.ANALYTIC_NUMERIC)),
        _run_sweep, sweep_statuses, check_sweep,
        ("sweep.csv", "errors.csv")),
    "single-hop": Workload(
        "single-hop", _single_inputs, _run_single, single_statuses,
        check_single, ("trajectory.csv", "hops.csv", "single.json")),
}


# --- set-up probe ------------------------------------------------------------

def setup_probe(name: str, inputs) -> dict:
    """Arguments for a fresh interpreter that imports sliphop and runs the
    workload's first map evaluation (see run.SETUP_CODE)."""
    if name == "single-hop":
        return {"map": "simulator-recorded", "apex": [inputs.apex.x_dot,
                                                      inputs.apex.y],
                "p_bar": inputs.inputs.p_bar,
                "k_theta": inputs.inputs.k_theta}
    return {"map": "simulator" if name == "sweep-sim" else "analytic",
            "p_bar": inputs.p_bar_values()[0],
            "k_theta": inputs.k_theta_values()[0]}
