"""Batch front end: fixed-point dispatch, grid sweeps, single runs and
their output files.

solve_point is the one place that maps a pipeline name to its solver,
return map and tolerance; the sweep and the CLI both call it. A sweep
evaluates the requested pipelines over a (p_bar, k_theta) grid in
ALL_PIPELINES order, cheapest first, records per-point results or
phase-tagged failures, and aggregates the apex speed and height errors
of each pipeline against each costlier one (RMS and percent RMS). Each
simulator Newton solve starts from the same cell's analytic-numeric
fixed point and its exact Jacobian, which the sweep solves whether or
not it writes them, and seed chaining chains the analytic seeds only.

Output files are deterministic: fixed column order, fixed grid order.
Every table (sweep.csv, errors.csv, hops.csv) goes through _write_csv,
whose one cell rule writes each cell by its type's % conversion
(9-significant-digit floats, "" for None and NaN, CRLF line ends);
trajectory.csv is written by sliphop.trajectory.write_trajectory_csv,
next to the samples' layout rule. Every JSON document, the CLI's
included, goes through to_json. A hops.csv row is a HopSummary and an
errors.csv row an ErrorStats, whose fields are the columns; the JSON
objects of parameters, control inputs and apex states are their
dataclass fields. Every result record (PointOutcome, SweepReport, ...)
is a named tuple, built once from finished values and never assigned to.

`import sliphop` does not load this module: the package's batch names
(SweepConfig, run_sweep, ...) import it on first use, so a fresh
process that only evaluates maps or solves fixed points compiles none
of it. Importing it loads the hop recorder (sliphop.trajectory): run_single
builds its records, joining each hop's phase runs into one
RecordedSamples, so no sample row is built unless a caller reads one,
and write_single_outputs calls its write_trajectory_csv through this
module's global of that name. It loads no process pool and no
statistics module: run_sweep imports the pool only when it runs more
than one worker, and the stance kernel loads with the first stance
integration.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from . import fixedpoint as fp
from .errors import SlipError
from .model import ApexState, ControlInputs, DEFAULT_PARAMS, SlipParams
from .simulate import (DEFAULT_CONTROL_DT, DEFAULT_DT, check_steps,
                       return_map_numeric)
from .trajectory import (HybridTrajectory, RecordedSamples,
                         write_trajectory_csv)

ALL_PIPELINES = (fp.CLOSED_FORM, fp.ANALYTIC_NUMERIC, fp.SIMULATOR_NUMERIC)
SIM_TOL = 1e-10
ANALYTIC_TOL = 1e-9


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """lo + i*step for i < n - 1, then hi: np.linspace(lo, hi, n)'s values
    bit for bit, n = 1 (lo alone) and a step that underflows included."""
    lo, hi = float(lo), float(hi)
    if n == 1:
        return [lo + 0.0 * (hi - lo)]
    step = (hi - lo) / (n - 1)
    if step == 0.0:  # subnormal span: scale i first, as numpy does
        return [lo + i / (n - 1) * (hi - lo) for i in range(n - 1)] + [hi]
    return [lo + i * step for i in range(n - 1)] + [hi]


def _check_count(name: str, n, least: int = 1) -> None:
    """Raise ValueError unless n is an integer, as range() takes, >= least
    and <= sys.maxsize, the most items a list can hold."""
    if not hasattr(type(n), "__index__"):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"{name} must be <= {sys.maxsize}, got {n}")


@dataclass(frozen=True)
class SweepConfig:
    """Grid sweep description; ranges are (min, max, count) inclusive."""

    params: SlipParams = DEFAULT_PARAMS
    p_bar_range: tuple[float, float, int] = (-1.55, -0.5, 20)
    k_theta_range: tuple[float, float, int] = (0.3, 0.75, 20)
    pipelines: tuple[str, ...] = ALL_PIPELINES
    out_dir: str | None = None
    seed_chaining: bool = True
    workers: int = 1
    kp: float = ControlInputs.kp
    ki: float = ControlInputs.ki
    kd: float = ControlInputs.kd
    tau_max: float | None = ControlInputs.tau_max
    dt: float = DEFAULT_DT
    control_dt: float = DEFAULT_CONTROL_DT

    def __post_init__(self):
        for name in ("p_bar_range", "k_theta_range"):
            lo, hi, n = getattr(self, name)
            _check_count(f"{name} count", n)
            if lo > hi:
                raise ValueError(f"{name} must be ordered, got ({lo}, {hi})")
            if lo == hi and n > 1:
                raise ValueError(f"{name} has equal ends, so its count must "
                                 f"be 1, got {n}")
        # Every grid value lies between the range ends, so the two corner
        # cells' ControlInputs reject a non-finite end, a k_theta outside
        # [0, 1] or a bad gain now, before any cell is solved.
        p_lo, p_hi, _ = self.p_bar_range
        k_lo, k_hi, _ = self.k_theta_range
        self.inputs(p_lo, k_lo)
        self.inputs(p_hi, k_hi)
        for pipeline in self.pipelines:
            if pipeline not in ALL_PIPELINES:
                raise ValueError(f"unknown pipeline {pipeline!r}")
            if self.pipelines.count(pipeline) > 1:
                raise ValueError(f"pipeline {pipeline!r} repeated")
        if not self.pipelines:
            raise ValueError("at least one pipeline required")
        if not isinstance(self.seed_chaining, bool):
            raise ValueError(f"seed_chaining must be a bool, got "
                             f"{self.seed_chaining!r}")
        _check_count("workers", self.workers)
        check_steps(self.dt, self.control_dt)

    def inputs(self, p_bar: float, k_theta: float) -> ControlInputs:
        return ControlInputs(p_bar=p_bar, k_theta=k_theta, kp=self.kp,
                             ki=self.ki, kd=self.kd, tau_max=self.tau_max)

    def p_bar_values(self) -> list[float]:
        return _grid(*self.p_bar_range)

    def k_theta_values(self) -> list[float]:
        return _grid(*self.k_theta_range)


class PointOutcome(NamedTuple):
    """One (grid point, pipeline) cell: a result or a tagged failure."""

    p_bar: float
    k_theta: float
    pipeline: str
    result: fp.FixedPointResult | None = None
    status: str = "converged"


class ErrorStats(NamedTuple):
    """Apex prediction error of one pipeline against a reference."""

    predicted: str
    reference: str
    quantity: str  # "x_dot" | "y"
    n: int
    rms: float
    percent_rms: float        # sqrt(mean(((pred-ref)/ref)^2)) * 100
    rms_over_mean_ref: float  # rms / mean(|ref|) * 100


class SweepReport(NamedTuple):
    config: SweepConfig
    outcomes: list[PointOutcome]
    error_stats: list[ErrorStats]
    runtime_s: float

    def converged(self, pipeline: str) -> dict[tuple[float, float],
                                               fp.FixedPointResult]:
        return _converged(self.outcomes, pipeline)

    def status_counts(self) -> dict[str, Counter]:
        """Per requested pipeline, how many cells ended in each status
        ("converged" or the failure's tag)."""
        counts = {p: Counter() for p in self.config.pipelines}
        for o in self.outcomes:
            counts[o.pipeline][o.status] += 1
        return counts


def _converged(outcomes: list[PointOutcome], pipeline: str) -> dict:
    return {(o.p_bar, o.k_theta): o.result for o in outcomes
            if o.pipeline == pipeline and o.result is not None}


def _fail_status(err: SlipError) -> str:
    name = type(err).__name__
    return f"{name}@{err.phase}" if err.phase else name


def simulator_return_map(apex: ApexState, inputs: ControlInputs,
                         params: SlipParams, dt: float = DEFAULT_DT,
                         control_dt: float = DEFAULT_CONTROL_DT) -> ApexState:
    """Full-simulator return map with trajectory recording disabled.

    Bind dt/control_dt (functools.partial) to use other steps as a
    fixedpoint ReturnMap.
    """
    return return_map_numeric(apex, inputs, params, dt=dt,
                              control_dt=control_dt, record=False)[0]


def solve_point(pipeline: str, inputs: ControlInputs, params: SlipParams,
                seed: ApexState | None = None,
                jacobian: fp.Jacobian | None = None, dt: float = DEFAULT_DT,
                control_dt: float = DEFAULT_CONTROL_DT,
                ) -> fp.FixedPointResult:
    """The gait fixed point of one pipeline.

    The closed-form pipeline solves the touchdown constraints. The
    Newton pipelines run fixedpoint.numeric_fixed_point's Broyden
    iteration from seed: to ANALYTIC_TOL on the analytic map, with its
    exact Jacobian function (return_map_analytic_jacobian) for the
    start, the refreshes and stability, or to SIM_TOL on the simulator
    map at dt/control_dt, which has none and takes central differences.
    Broyden's matrix starts from jacobian, a map Jacobian at or near
    seed (the map's own Jacobian at seed when None); on the simulator
    map, a given jacobian gives way to the secant fit of two steps once
    they span the plane (fixedpoint.numeric_fixed_point). Without a seed,
    analytic-numeric starts from the closed form: its apex and its
    analytic-map Jacobian there. Simulator-numeric starts from the
    cell's analytic-numeric fixed point and its exact Jacobian, and
    from the closed form when that solve fails or the simulator solve
    from it does, as a sweep does with seed chaining on or off. Raises
    SlipError when the gait has no fixed point there, ValueError when
    the steps fail simulate.check_steps.
    """
    if pipeline not in ALL_PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    check_steps(dt, control_dt)
    if pipeline == fp.CLOSED_FORM or seed is None:
        closed = fp.closed_form_fixed_point(inputs.p_bar, inputs.k_theta,
                                            params)
        if pipeline == fp.CLOSED_FORM:
            return closed
        seed, jacobian = closed.apex, closed.jacobian
        if pipeline == fp.SIMULATOR_NUMERIC:
            try:
                anchor = solve_point(fp.ANALYTIC_NUMERIC, inputs, params,
                                     seed, jacobian=jacobian)
                return solve_point(pipeline, inputs, params, anchor.apex,
                                   jacobian=anchor.jacobian, dt=dt,
                                   control_dt=control_dt)
            except SlipError:
                pass  # from the closed form, below
    if pipeline == fp.SIMULATOR_NUMERIC:
        return_map = functools.partial(simulator_return_map, dt=dt,
                                       control_dt=control_dt)
        tol, map_jacobian = SIM_TOL, None
    else:
        return_map, tol = fp.return_map_analytic, ANALYTIC_TOL
        map_jacobian = fp.return_map_analytic_jacobian
    return fp.numeric_fixed_point(return_map, seed, inputs, params, tol=tol,
                                  provenance=pipeline, jacobian=jacobian,
                                  map_jacobian=map_jacobian)


def _solve_cell(cfg: SweepConfig, inputs: ControlInputs, pipeline: str,
                *seeds: fp.FixedPointResult | None) -> PointOutcome:
    """One cell. Without seeds (the closed form), one solve_point call
    from its own start. A Newton pipeline runs solve_point from each seed
    in turn, a fixed point whose apex and Jacobian start Broyden, until
    one converges; a None seed reads NoSeed, and the cell keeps the
    status of its last attempt."""
    result = None
    for seed in seeds or (None,):
        if seed is None and seeds:
            status = "NoSeed"
            continue
        try:
            result = solve_point(pipeline, inputs, cfg.params,
                                 seed and seed.apex,
                                 jacobian=seed and seed.jacobian,
                                 dt=cfg.dt, control_dt=cfg.control_dt)
        except SlipError as err:
            status = _fail_status(err)
        else:
            status = "converged"
            break
    return PointOutcome(inputs.p_bar, inputs.k_theta, pipeline, result, status)


def _sweep_row(cfg: SweepConfig, p_bar: float) -> list[PointOutcome]:
    """Evaluate one constant-p_bar row, pipelines in ALL_PIPELINES order.

    The closed form is solved at every cell and is each Newton cell's
    last seed. Analytic-numeric's first seed is the row's last analytic
    fixed point when seed chaining is on, and none when it is off; it is
    solved wherever a Newton pipeline is requested, and written only
    when analytic-numeric is. Simulator-numeric's first seed is the same
    cell's analytic fixed point, chained or not. Every seed is
    row-local, so results do not depend on the worker count.
    """
    rows: list[PointOutcome] = []
    chained = None  # the last analytic fixed point of the row
    newton = cfg.pipelines != (fp.CLOSED_FORM,)  # a Newton pipeline asked
    for k_theta in cfg.k_theta_values():
        inputs = cfg.inputs(p_bar, k_theta)
        closed = _solve_cell(cfg, inputs, fp.CLOSED_FORM)
        cells = {fp.CLOSED_FORM: closed}
        if newton:
            cells[fp.ANALYTIC_NUMERIC] = _solve_cell(
                cfg, inputs, fp.ANALYTIC_NUMERIC,
                chained if cfg.seed_chaining else None, closed.result)
            anchor = cells[fp.ANALYTIC_NUMERIC].result
            chained = anchor or chained
        if fp.SIMULATOR_NUMERIC in cfg.pipelines:
            cells[fp.SIMULATOR_NUMERIC] = _solve_cell(
                cfg, inputs, fp.SIMULATOR_NUMERIC, anchor, closed.result)
        rows += [cells[p] for p in ALL_PIPELINES if p in cfg.pipelines]
    return rows


def _mean(xs: list[float]) -> float:
    """statistics.fmean of a non-empty list, bit for bit, without
    importing statistics (and with it fractions, decimal and random)."""
    return math.fsum(xs) / len(xs)


def _error_stats(cfg: SweepConfig,
                 outcomes: list[PointOutcome]) -> list[ErrorStats]:
    """Each pipeline against each costlier one, costliest reference first."""
    ranked = [p for p in ALL_PIPELINES if p in cfg.pipelines]
    pairs = [(pred, ranked[i]) for i in reversed(range(len(ranked)))
             for pred in ranked[:i]]
    stats: list[ErrorStats] = []
    for pred_name, ref_name in pairs:
        pred = _converged(outcomes, pred_name)
        ref = _converged(outcomes, ref_name)
        keys = sorted(set(pred) & set(ref))
        if not keys:
            continue
        for qty in ("x_dot", "y"):
            dr = [getattr(ref[k].apex, qty) for k in keys]
            err = [getattr(pred[k].apex, qty) - r for k, r in zip(keys, dr)]
            rel = [e / r for e, r in zip(err, dr)]
            rms = math.sqrt(_mean([e * e for e in err]))
            pct = 100.0 * math.sqrt(_mean([q * q for q in rel]))
            over_mean = 100.0 * rms / _mean([abs(r) for r in dr])
            stats.append(ErrorStats(pred_name, ref_name, qty, len(keys),
                                    rms, pct, over_mean))
    return stats


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Evaluate the grid; failures never abort the sweep.

    Rows (constant p_bar) are independent work units; with workers > 1
    they run in parallel and are reassembled in grid order, so output is
    identical to a serial run. The report is built once, from the
    cells, their error statistics and the measured runtime. cfg.out_dir,
    when set, is created before the first cell, so a path that cannot be
    a directory raises OSError before any work.
    """
    t0 = time.perf_counter()
    if cfg.out_dir is not None:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    p_bars = cfg.p_bar_values()
    if cfg.workers > 1 and len(p_bars) > 1:
        # imported here: the pool loads multiprocessing and threading,
        # which a serial sweep never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_row = list(pool.map(_sweep_row, [cfg] * len(p_bars), p_bars))
    else:
        per_row = [_sweep_row(cfg, pb) for pb in p_bars]
    outcomes = [o for row in per_row for o in row]
    report = SweepReport(cfg, outcomes, _error_stats(cfg, outcomes),
                         time.perf_counter() - t0)
    if cfg.out_dir is not None:
        write_sweep_outputs(report, Path(cfg.out_dir))
    return report


# --- single-run harness -------------------------------------------------------

class HopSummary(NamedTuple):
    """One row of hops.csv, its fields the columns in order."""

    hop: int
    x_dot: float        # apex state at the end of the hop
    y: float
    p_liftoff: float
    theta_td: float
    theta_lo: float
    r_lo: float


class SingleRunReport(NamedTuple):
    hops: list[HopSummary]
    trajectory: HybridTrajectory
    final_apex: ApexState
    failure: str | None = None


def run_single(apex: ApexState, inputs: ControlInputs, params: SlipParams,
               n_hops: int, k_theta_step: tuple[int, float] | None = None,
               dt: float = DEFAULT_DT, control_dt: float = DEFAULT_CONTROL_DT,
               out_dir: str | Path | None = None) -> SingleRunReport:
    """Chain the simulator return map for n_hops, recording everything.

    k_theta_step = (hop_index, new_value) switches the touchdown gain
    from that hop onward; a hop_index that is not an integer >= 0 and
    < n_hops or a new_value that ControlInputs rejects raises ValueError
    before any hop, and so does an out_dir that cannot be created
    (OSError). Stops at the first gait failure, keeping the partial
    trajectory and a failure record. The trajectory's samples are the
    hops' phase runs in one RecordedSamples.
    """
    _check_count("n_hops", n_hops)
    check_steps(dt, control_dt)
    step_hop, stepped = n_hops, inputs
    if k_theta_step is not None:
        step_hop, k_theta = k_theta_step
        _check_count("k_theta_step hop", step_hop, least=0)
        if step_hop >= n_hops:
            raise ValueError(f"k_theta_step hop must be < n_hops = {n_hops}, "
                             f"got {step_hop}")
        stepped = replace(inputs, k_theta=k_theta)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    runs, events = [], []
    hops: list[HopSummary] = []
    failure = None
    t, x = 0.0, 0.0
    current = apex
    for hop in range(n_hops):
        gait = stepped if hop >= step_hop else inputs
        try:
            nxt, hop_traj = return_map_numeric(current, gait, params, dt=dt,
                                               control_dt=control_dt,
                                               record=True, t0=t, x0=x)
        except SlipError as err:
            failure = f"hop {hop}: {_fail_status(err)}: {err}"
            break
        runs += hop_traj.samples.runs
        events += hop_traj.events
        by_name = {e.name: e for e in hop_traj.events}
        td, lo = by_name["touchdown"].state, by_name["liftoff"].state
        hops.append(HopSummary(
            hop=hop, x_dot=nxt.x_dot, y=nxt.y, p_liftoff=lo["p_theta"],
            theta_td=td["theta"], theta_lo=lo["theta"], r_lo=lo["r"]))
        t, x = by_name["apex"].t, by_name["apex"].state["x"]
        current = nxt
    report = SingleRunReport(hops=hops,
                             trajectory=HybridTrajectory(
                                 RecordedSamples(runs), events),
                             final_apex=current, failure=failure)
    if out_dir is not None:
        write_single_outputs(report, inputs, params, Path(out_dir))
    return report


# --- deterministic file output ------------------------------------------------

# The % conversion of each cell type; "%.0s" prints nothing.
_CELL_FORMATS = {float: "%.9g", int: "%d", str: "%s", type(None): "%.0s"}


def _write_csv(path, header, rows) -> None:
    """Write the header, then the rows: each cell by its type's %
    conversion (floats to 9 significant digits, None and NaN empty),
    lines ended by CRLF. A cell of any other type (a bool, say) raises
    KeyError. Cells are not quoted, so no string cell may hold a comma,
    a quote or a line break."""
    text = "".join([",".join(["" if v != v else _CELL_FORMATS[type(v)] % v
                              for v in row]) + "\r\n"
                    for row in chain([header], rows)])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def to_json(doc) -> str:
    """The one JSON layout of every output file and printed document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _result_cells(r: fp.FixedPointResult | None) -> tuple:
    """The sweep.csv cells of one result, None for a failed cell; stable
    is None (unknown) where the spectral radius is NaN."""
    if r is None:
        return (None,) * 5
    stable = (None if r.spectral_radius != r.spectral_radius
              else "true" if r.stable else "false")
    return (r.apex.x_dot, r.apex.y, r.spectral_radius, stable, r.residual)


def write_sweep_outputs(report: SweepReport, out_dir: Path) -> None:
    """Emit sweep.csv, errors.csv and report.json into the existing
    out_dir."""
    _write_csv(out_dir / "sweep.csv",
               ("p_bar", "k_theta", "pipeline", "x_dot_star", "y_star",
                "spectral_radius", "stable", "residual", "status"),
               ((o.p_bar, o.k_theta, o.pipeline, *_result_cells(o.result),
                 o.status) for o in report.outcomes))
    _write_csv(out_dir / "errors.csv",
               ("predicted", "reference", "quantity", "n_points", "rms",
                "percent_rms", "rms_over_mean_ref"),
               report.error_stats)
    cfg = report.config
    counts = report.status_counts()
    doc = {
        "config": {
            "params": asdict(cfg.params),
            "p_bar_range": list(cfg.p_bar_range),
            "k_theta_range": list(cfg.k_theta_range),
            "pipelines": list(cfg.pipelines),
            "seed_chaining": cfg.seed_chaining,
            "gains": {"kp": cfg.kp, "ki": cfg.ki, "kd": cfg.kd,
                      "tau_max": cfg.tau_max},
            "dt": cfg.dt,
            "control_dt": cfg.control_dt,
        },
        "points_per_pipeline": {p: c.total() for p, c in counts.items()},
        "converged_per_pipeline": {p: c["converged"]
                                   for p, c in counts.items()},
        "failures": {p: {s: n for s, n in c.items() if s != "converged"}
                     for p, c in counts.items() if c.total() > c["converged"]},
        "error_stats": [s._asdict() for s in report.error_stats],
    }
    (out_dir / "report.json").write_text(to_json(doc))


def write_single_outputs(report: SingleRunReport, inputs: ControlInputs,
                         params: SlipParams, out_dir: Path) -> None:
    """Emit trajectory.csv, hops.csv and single.json into the existing
    out_dir."""
    write_trajectory_csv(report.trajectory, out_dir / "trajectory.csv")
    _write_csv(out_dir / "hops.csv", HopSummary._fields, report.hops)
    doc = {
        "params": asdict(params),
        "inputs": asdict(inputs),
        "hops_completed": len(report.hops),
        "final_apex": asdict(report.final_apex),
        "failure": report.failure,
    }
    (out_dir / "single.json").write_text(to_json(doc))
