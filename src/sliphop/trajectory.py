"""The hop recorder: 1 kHz samples, the hybrid event log and their checks.

record_hop turns one simulator hop, its touchdown and liftoff states and
its recorded stance, into a HybridTrajectory: descent and ascent are
sampled in closed form at the control period, the stance rows are the
stance loop's own, moved to Cartesian coordinates about the toe, and
the events carry the states the hop passed through. A trajectory.csv
row is a TrajectorySample.

phase_runs, the samples' one layout rule, checks each phase run and
yields its float columns; HybridTrajectory.validate and
write_trajectory_csv both run it, so this is the one module that knows
a sample's columns. The writer formats each run with one % of the row
format its phase fixes, taking the float cells alone: the phase,
flight's empty cells and a flight run's launch speed are literal text,
so "nan" shows only in a NaN float cell, and only a run whose float sum
is NaN is searched for it, to write it empty.

simulate.return_map_numeric imports this module the first time it
records a hop, so a process that never records compiles none of it.
"""

from __future__ import annotations

import math
from itertools import groupby, repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

from .model import (ApexState, SlipParams, StanceState, liftoff_reset,
                    polar_to_cartesian)
from .simulate import StanceSegment, ascent_time, descent_time


class TrajectorySample(NamedTuple):
    """One 1 kHz row of trajectory.csv, its fields the columns in order.
    Its phase fixes its layout (phase_runs): in flight the leg state and
    hip torque tau are None and x_dot is the run's one launch speed;
    each other cell but the phase is a float."""

    t: float
    phase: str  # "descent" | "stance" | "ascent"
    r: float | None
    r_dot: float | None
    theta: float | None
    theta_dot: float | None
    x: float
    y: float
    x_dot: float
    y_dot: float
    tau: float | None


class TrajectoryEvent(NamedTuple):
    name: str  # "touchdown" | "bottom" | "liftoff" | "apex"
    t: float
    state: dict[str, float] | None = None  # event-localized state snapshot


_PHASE_NEXT = {"descent": "stance", "stance": "ascent", "ascent": "descent"}


def phase_runs(samples):
    """Each phase run of samples as (phase, launch_speed, floats, total),
    once the run is checked: its phase is one of the cycle's and follows
    the previous run's, its float cells are real numbers (float() of
    their sum raises no TypeError; NaN and infinities are numbers), and
    in flight its leg-state and tau columns are all None and x_dot holds
    one float launch speed, not NaN, zeros of one sign. floats are the
    run's float columns in row order, launch_speed is the flight run's
    one x_dot (None in stance) and total is float() of the floats' sum,
    NaN where a cell is NaN or infinities of both signs meet. Raises
    ValueError naming the first run that breaks this rule."""
    prev = None
    for phase, run in groupby(samples, itemgetter(1)):
        columns = tuple(zip(*run))
        t, x_dot = columns[0], columns[8]
        if phase not in _PHASE_NEXT:
            raise ValueError(f"unknown phase {phase!r} at t = {t[0]}")
        if prev is not None and phase != _PHASE_NEXT[prev]:
            raise ValueError(f"phase {prev!r} -> {phase!r} breaks the "
                             "descent->stance->ascent cycle")
        prev, n, v = phase, len(t), x_dot[0]
        if phase == "stance":
            v, floats = None, columns[:1] + columns[2:]
        # count matches by identity first and 0.0 == -0.0, so a NaN and
        # the signs of a zero speed are checked apart
        elif (any(col.count(None) < n for col in columns[2:6] + columns[10:])
              or type(v) is not float or v != v or x_dot.count(v) < n
              or not v and len({*map(math.copysign, repeat(1.0), x_dot)}) > 1):
            raise ValueError(f"{phase} run at t = {t[0]} breaks its "
                             "phase's layout")
        else:
            floats = t, *columns[6:8], columns[9]  # t, x, y, y_dot
        try:
            total = float(sum(map(sum, floats)))
        except TypeError:
            raise ValueError(f"{phase} run at t = {t[0]} breaks its "
                             "phase's layout") from None
        yield phase, v, floats, total


_HEADER = ",".join(TrajectorySample._fields) + "\r\n"
_STANCE_ROW = "%.9g,stance" + ",%.9g" * 9 + "\r\n"


def write_trajectory_csv(traj: HybridTrajectory, path) -> None:
    """Write the 1 kHz sample rows; 9 significant digits, '.' decimal,
    NaN empty, lines ended by CRLF. phase_runs checks the samples, as
    validate() does, before the file is opened: a trajectory that breaks
    the rule raises validate()'s ValueError and writes nothing. An int
    or a bool in a float cell is written as %.9g writes it."""
    texts = [_HEADER]
    for phase, speed, floats, total in phase_runs(traj.samples):
        fmt = (_STANCE_ROW if speed is None else
               f"%.9g,{phase},,,,,%.9g,%.9g,{speed:.9g},%.9g,\r\n")
        n, k = len(floats[0]), len(floats)
        cells = [None] * (k * n)
        for i, col in enumerate(floats):
            cells[i::k] = col
        text = fmt * n % tuple(cells)
        texts.append(text if total == total else text.replace("nan", ""))
    with open(path, "w", newline="") as fh:
        fh.writelines(texts)


class HybridTrajectory(NamedTuple):
    """Time-stamped hop record: 1 kHz samples plus the hybrid event log."""

    samples: Sequence[TrajectorySample] = ()
    events: Sequence[TrajectoryEvent] = ()

    def validate(self) -> None:
        """Check the samples against phase_runs' layout rule and the
        event times for strict increase; raise ValueError otherwise."""
        for _ in phase_runs(self.samples):
            pass
        times = [e.t for e in self.events]
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError(f"event times not increasing: {a} >= {b}")


def _flight_rows(t0: float, duration: float, x0: float, x_dot: float,
                 y0: float, y_dot0: float, g: float, phase: str,
                 sample_dt: float) -> list[tuple]:
    return [(t0 + t, phase, None, None, None, None, x0 + x_dot * t,
             y0 + y_dot0 * t - 0.5 * g * t * t, x_dot, y_dot0 - g * t, None)
            for i in range(int(math.floor(duration / sample_dt)) + 1)
            if (t := i * sample_dt) <= duration]


def record_hop(apex: ApexState, next_apex: ApexState, s_td: StanceState,
               s_lo: StanceState, seg: StanceSegment, params: SlipParams,
               control_dt: float, t0: float, x0: float) -> HybridTrajectory:
    """The trajectory of one hop from apex to next_apex through the
    touchdown state s_td and the liftoff state s_lo of the recorded
    stance seg: samples every control_dt in flight, the stance rows,
    and the touchdown, bottom (when found), liftoff and apex events, in
    absolute time from t0 with the fore-aft position starting at x0."""
    t_td = descent_time(apex, s_td.theta, params)
    x_dot_lo, y_lo, y_dot_lo = liftoff_reset(s_lo.r, s_lo.r_dot, s_lo.theta,
                                             s_lo.theta_dot)
    t_up = ascent_time(y_dot_lo, params)
    t_touch = t0 + t_td
    t_lift = t_touch + seg.t_liftoff
    # stance: the body moves about the toe, which stays where it landed
    toe_x = x0 + apex.x_dot * t_td - polar_to_cartesian(
        s_td.r, s_td.r_dot, s_td.theta, s_td.theta_dot)[0]
    rows = _flight_rows(t0, t_td, x0, apex.x_dot, apex.y, 0.0, params.g,
                        "descent", control_dt)
    for t, r, dr, th, dth, tau in seg.samples:
        x, y, x_dot, y_dot = polar_to_cartesian(r, dr, th, dth)
        rows.append((t_touch + t, "stance", r, dr, th, dth, toe_x + x, y,
                     x_dot, y_dot, tau))
    x_lo = toe_x + polar_to_cartesian(s_lo.r, s_lo.r_dot, s_lo.theta,
                                      s_lo.theta_dot)[0]
    rows += _flight_rows(t_lift, t_up, x_lo, x_dot_lo, y_lo, y_dot_lo,
                         params.g, "ascent", control_dt)
    # tuple.__new__: the NamedTuple's own __new__ is a Python call per row
    samples = list(map(tuple.__new__, repeat(TrajectorySample), rows))
    events = [TrajectoryEvent("touchdown", t_touch, {**vars(s_td)})]
    if seg.t_bottom is not None:
        events.append(TrajectoryEvent("bottom", t_touch + seg.t_bottom))
    events += [
        TrajectoryEvent("liftoff", t_lift,
                        {**vars(s_lo), "p_theta": seg.p_liftoff}),
        TrajectoryEvent("apex", t_lift + t_up,
                        {**vars(next_apex), "x": x_lo + x_dot_lo * t_up})]
    return HybridTrajectory(samples, events)
