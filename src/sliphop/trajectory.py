"""The hop recorder: 1 kHz samples, the hybrid event log and their checks.

record_hop turns one simulator hop, its touchdown and liftoff states and
its recorded stance, into a HybridTrajectory: descent and ascent are
sampled in closed form at the control period, the stance rows are the
stance loop's own, moved to Cartesian coordinates about the toe, and
the events carry the states the hop passed through. A trajectory.csv
row is a TrajectorySample.

simulate.return_map_numeric imports this module the first time it
records a hop, so a process that never records compiles none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .model import (ApexState, SlipParams, StanceState, liftoff_reset,
                    polar_to_cartesian)
from .simulate import StanceSegment, ascent_time, descent_time


class TrajectorySample(NamedTuple):
    """One 1 kHz row of trajectory.csv, its fields the columns in order.
    Its phase fixes its layout, which the writer relies on and validate
    checks: in flight the leg state and hip torque tau are None and
    x_dot is the run's one launch speed, written once; each other cell
    but the phase is a float."""

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


@dataclass
class HybridTrajectory:
    """Time-stamped hop record: 1 kHz samples plus the hybrid event log."""

    samples: list[TrajectorySample] = field(default_factory=list)
    events: list[TrajectoryEvent] = field(default_factory=list)

    def validate(self) -> None:
        """Check that each sample's phase is one of the cycle's, phase
        alternation, each sample's phase layout (one x_dot per flight
        run) and strictly increasing event times."""
        prev = None
        for s in self.samples:
            if s.phase not in _PHASE_NEXT:
                raise ValueError(f"unknown phase {s.phase!r} at t = {s.t}")
            if (None in s if s.phase == "stance"
                    else s[2:6] + s[10:] != (None,) * 5):
                raise ValueError(f"{s.phase} sample at t = {s.t} breaks "
                                 "its phase's layout")
            if prev and s.phase != prev.phase:
                if s.phase != _PHASE_NEXT[prev.phase]:
                    raise ValueError(
                        f"phase {prev.phase!r} -> {s.phase!r} breaks the "
                        "descent->stance->ascent cycle")
            elif prev and s.phase != "stance" and s.x_dot != prev.x_dot:
                raise ValueError(f"x_dot changes within the {s.phase} run "
                                 f"at t = {s.t}")
            prev = s
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
