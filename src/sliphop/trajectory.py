"""The hop recorder: 1 kHz samples, the hybrid event log and their checks.

record_hop turns one simulator hop, its touchdown and liftoff states and
its recorded stance, into a HybridTrajectory: the hop's phase runs and
its events. A phase run is (phase, launch_speed, floats), floats the
float columns of the run's trajectory.csv rows: in stance the ten
columns but the phase, launch_speed None; in flight t, x, y and y_dot,
the leg state and tau empty and x_dot the run's one launch speed.
Descent and ascent are sampled in closed form at the control period,
the stance rows are the stance loop's own, transposed once and moved to
Cartesian coordinates about the toe, and the events carry the states
the hop passed through.

phase_runs, the runs' one layout rule, checks each run and yields it
with its float sum. HybridTrajectory.validate and write_trajectory_csv
both run it, so this is the one module that knows a run's columns. The
writer formats each run with one % of the row format its phase fixes,
taking the float cells alone: the phase, flight's empty cells and a
flight run's launch speed are literal text, so "nan" shows only in a
NaN float cell, and only a run whose float sum is NaN is searched for
it, to write it empty.

simulate.return_map_numeric imports this module the first time it
records a hop, so a process that never records compiles none of it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .model import (ApexState, SlipParams, StanceState, liftoff_reset,
                    polar_to_cartesian)
from .simulate import StanceSegment, ascent_time, descent_time


class TrajectoryEvent(NamedTuple):
    name: str  # "touchdown" | "bottom" | "liftoff" | "apex"
    t: float
    state: dict[str, float] | None = None  # event-localized state snapshot


_PHASE_NEXT = {"descent": "stance", "stance": "ascent", "ascent": "descent"}
_WIDTH = {"descent": 4, "stance": 10, "ascent": 4}  # float columns per run


def phase_runs(runs):
    """Each phase run (phase, launch_speed, floats) of runs with total,
    once the run is checked: its phase is one of the cycle's and follows
    the previous run's; floats are its phase's float columns (ten in
    stance, four in flight), of one length of at least one row, and
    their cells are real numbers (float() of their sum raises no
    TypeError or OverflowError; NaN and infinities are numbers);
    launch_speed is None in stance and a float, not NaN, in flight.
    total is float() of the floats' sum, NaN where a cell is NaN or
    infinities of both signs meet. Raises ValueError naming the first
    run that breaks this rule, by its index in runs."""
    prev = None
    for i, (phase, v, floats) in enumerate(runs):
        if phase not in _PHASE_NEXT:
            raise ValueError(f"unknown phase {phase!r} in run {i}")
        if prev is not None and phase != _PHASE_NEXT[prev]:
            raise ValueError(f"phase {prev!r} -> {phase!r} breaks the "
                             "descent->stance->ascent cycle")
        prev = phase
        try:
            (n,) = {*map(len, floats)}  # the rows, one count for all
            total = float(sum(map(sum, floats)))
        except (TypeError, ValueError, OverflowError):
            n = 0
        if (not n or len(floats) != _WIDTH[phase]
                or (v is not None if phase == "stance" else
                    type(v) is not float or v != v)):
            raise ValueError(f"{phase} run {i} breaks its phase's layout")
        yield phase, v, floats, total


_HEADER = "t,phase,r,r_dot,theta,theta_dot,x,y,x_dot,y_dot,tau\r\n"
_STANCE_ROW = "%.9g,stance" + ",%.9g" * 9 + "\r\n"


def _check_event_times(events) -> None:
    """Raise ValueError unless the event times strictly increase."""
    times = [e.t for e in events]
    for a, b in zip(times, times[1:]):
        if not b > a:
            raise ValueError(f"event times not increasing: {a} >= {b}")


def write_trajectory_csv(traj: HybridTrajectory, path) -> None:
    """Write the 1 kHz sample rows; 9 significant digits, '.' decimal,
    NaN empty, lines ended by CRLF. The runs (phase_runs) and the
    event times are checked as validate() checks them, before the file
    is opened: a trajectory that validate() rejects raises its
    ValueError and writes nothing. An int or a bool in a float cell is
    written as %.9g writes it."""
    texts = [_HEADER]
    for phase, speed, floats, total in phase_runs(traj.runs):
        fmt = (_STANCE_ROW if speed is None else
               f"%.9g,{phase},,,,,%.9g,%.9g,{speed:.9g},%.9g,\r\n")
        n, k = len(floats[0]), len(floats)
        cells = [None] * (k * n)
        for i, col in enumerate(floats):
            cells[i::k] = col
        text = fmt * n % tuple(cells)
        texts.append(text if total == total else text.replace("nan", ""))
    _check_event_times(traj.events)
    with open(path, "w", newline="") as fh:
        fh.writelines(texts)


class HybridTrajectory(NamedTuple):
    """Time-stamped hop record: the 1 kHz samples as phase runs
    (phase, launch_speed, floats), in time order, plus the hybrid event
    log."""

    runs: Sequence[tuple] = ()
    events: Sequence[TrajectoryEvent] = ()

    def validate(self) -> None:
        """Check the runs against phase_runs' layout rule and the event
        times for strict increase; raise ValueError otherwise."""
        for _ in phase_runs(self.runs):
            pass
        _check_event_times(self.events)


def _flight_run(t0: float, duration: float, x0: float, x_dot: float,
                y0: float, y_dot0: float, g: float, phase: str,
                sample_dt: float) -> tuple:
    """The flight run sampled every sample_dt from t0 for duration: its
    t, x, y and y_dot columns, x_dot its one launch speed."""
    ts = [t for i in range(int(math.floor(duration / sample_dt)) + 1)
          if (t := i * sample_dt) <= duration]
    return phase, x_dot, (tuple([t0 + t for t in ts]),
                          tuple([x0 + x_dot * t for t in ts]),
                          tuple([y0 + y_dot0 * t - 0.5 * g * t * t
                                 for t in ts]),
                          tuple([y_dot0 - g * t for t in ts]))


def record_hop(apex: ApexState, next_apex: ApexState, s_td: StanceState,
               s_lo: StanceState, seg: StanceSegment, params: SlipParams,
               control_dt: float, t0: float, x0: float) -> HybridTrajectory:
    """The trajectory of one hop from apex to next_apex through the
    touchdown state s_td and the liftoff state s_lo of the recorded
    stance seg: samples every control_dt in flight, the stance rows,
    and the touchdown, bottom (when found), liftoff and apex events, in
    absolute time from t0 with the fore-aft position starting at x0.
    Its runs are the descent, stance and ascent runs."""
    t_td = descent_time(apex, s_td.theta, params)
    x_dot_lo, y_lo, y_dot_lo = liftoff_reset(s_lo.r, s_lo.r_dot, s_lo.theta,
                                             s_lo.theta_dot)
    t_up = ascent_time(y_dot_lo, params)
    t_touch = t0 + t_td
    t_lift = t_touch + seg.t_liftoff
    # stance: the body moves about the toe, which stays where it landed
    toe_x = x0 + apex.x_dot * t_td - polar_to_cartesian(
        s_td.r, s_td.r_dot, s_td.theta, s_td.theta_dot)[0]
    rows = []
    for t, r, dr, th, dth, tau in seg.samples:
        x, y, x_dot, y_dot = polar_to_cartesian(r, dr, th, dth)
        rows.append((t_touch + t, r, dr, th, dth, toe_x + x, y, x_dot,
                     y_dot, tau))
    x_lo = toe_x + polar_to_cartesian(s_lo.r, s_lo.r_dot, s_lo.theta,
                                      s_lo.theta_dot)[0]
    runs = (
        _flight_run(t0, t_td, x0, apex.x_dot, apex.y, 0.0, params.g,
                    "descent", control_dt),
        ("stance", None, tuple(zip(*rows))),
        _flight_run(t_lift, t_up, x_lo, x_dot_lo, y_lo, y_dot_lo, params.g,
                    "ascent", control_dt))
    events = [TrajectoryEvent("touchdown", t_touch, {**vars(s_td)})]
    if seg.t_bottom is not None:
        events.append(TrajectoryEvent("bottom", t_touch + seg.t_bottom))
    events += [
        TrajectoryEvent("liftoff", t_lift,
                        {**vars(s_lo), "p_theta": seg.p_liftoff}),
        TrajectoryEvent("apex", t_lift + t_up,
                        {**vars(next_apex), "x": x_lo + x_dot_lo * t_up})]
    return HybridTrajectory(runs, events)
