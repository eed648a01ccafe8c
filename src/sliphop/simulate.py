"""Ground-truth hybrid simulator.

Stance integrates the unsimplified polar dynamics about the toe

    r_ddot     = r*theta_dot^2 - k/m*(r - r0) - b/m*r_dot - g*cos(theta)
    theta_ddot = -2*r_dot*theta_dot/r + g/r*sin(theta) + tau/(m*r^2)

with fixed-step RK4 (default dt = 1e-4 s) under a zero-order-hold
torque loop (default 1 kHz); liftoff is the upward zero crossing of the
leg force k*(r - r0) + b*r_dot, localized by bisection. Flight is
ballistic and handled in closed form. compose_return_map chains
touchdown-angle selection, descent, the touchdown reset, stance, the
liftoff reset and ascent into an apex-to-apex map and tags failures with
their phase; the simulator map (return_map_numeric) and the analytic map
(analytic.return_map_analytic) differ only in the angle solver and the
stance map they pass it.

The stance stepper is compiled with numba when available (pure-Python
fallback otherwise, same code path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .control import AoaSolution, solve_aoa_implicit, vertical_energy
from .errors import (DescendingAtLiftoff, FailedLiftoff, GroundFault,
                     NonPhysical, SlipError, UnreachableTouchdown)
from .model import (ApexState, ControlInputs, FlightState, SlipParams,
                    StanceState, flight_to_stance, stance_to_flight)

# Over the criterion-1 grid the apex map at 1e-4 s stays within 3e-10 of
# a dt = 1e-6 reference, the same as at 1e-5 s: the event bisection
# (EVENT_TIME_TOL), not the RK4 step, sets the floor up to 2.5e-4 s.
DEFAULT_DT = 1e-4
DEFAULT_CONTROL_DT = 1e-3
EVENT_TIME_TOL = 1e-10
# FailedLiftoff budget: 10x the undamped half period pi/omega0.
TIME_BUDGET_HALF_PERIODS = 10.0

_STATUS_LIFTOFF = 0
_STATUS_NO_LIFTOFF = 1
_STATUS_GROUND = 2


def check_step(name: str, value: float) -> None:
    """Raise ValueError unless the step size is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


# --- compiled stance stepper -------------------------------------------------

def _rk4_step(r, dr, th, dth, h, tau, m, k, b, r0, g):
    km = k / m
    bm = b / m
    a1 = dr
    b1 = r * dth * dth - km * (r - r0) - bm * dr - g * math.cos(th)
    c1 = dth
    d1 = -2.0 * dr * dth / r + g / r * math.sin(th) + tau / (m * r * r)
    r2 = r + 0.5 * h * a1
    dr2 = dr + 0.5 * h * b1
    th2 = th + 0.5 * h * c1
    dth2 = dth + 0.5 * h * d1
    a2 = dr2
    b2 = r2 * dth2 * dth2 - km * (r2 - r0) - bm * dr2 - g * math.cos(th2)
    c2 = dth2
    d2 = -2.0 * dr2 * dth2 / r2 + g / r2 * math.sin(th2) + tau / (m * r2 * r2)
    r3 = r + 0.5 * h * a2
    dr3 = dr + 0.5 * h * b2
    th3 = th + 0.5 * h * c2
    dth3 = dth + 0.5 * h * d2
    a3 = dr3
    b3 = r3 * dth3 * dth3 - km * (r3 - r0) - bm * dr3 - g * math.cos(th3)
    c3 = dth3
    d3 = -2.0 * dr3 * dth3 / r3 + g / r3 * math.sin(th3) + tau / (m * r3 * r3)
    r4 = r + h * a3
    dr4 = dr + h * b3
    th4 = th + h * c3
    dth4 = dth + h * d3
    a4 = dr4
    b4 = r4 * dth4 * dth4 - km * (r4 - r0) - bm * dr4 - g * math.cos(th4)
    c4 = dth4
    d4 = -2.0 * dr4 * dth4 / r4 + g / r4 * math.sin(th4) + tau / (m * r4 * r4)
    h6 = h / 6.0
    return (r + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            dr + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
            th + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4),
            dth + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4))


def _stance_core(r, dr, th, dth, m, k, b, r0, g,
                 use_ctrl, p_bar, kp, ki, kd, tau_max,
                 dt, nsub, n_ctrl_max, out):
    """ZOH control loop around the RK4 stepper with event localization.

    out[i] = (t, r, r_dot, theta, theta_dot, tau) sampled once per
    control step. Returns (status, n_samples, t, r, dr, th, dth,
    t_bottom).
    """
    ctrl_dt = dt * nsub
    integral = 0.0
    p_prev = m * r * r * dth
    t_bottom = -1.0
    istep = 0
    n_samp = 0
    tau = 0.0
    for _ in range(n_ctrl_max):
        t = istep * dt
        if use_ctrl:
            p = m * r * r * dth
            err = p_bar - p
            p_dot = (p - p_prev) / ctrl_dt
            p_prev = p
            cand = integral + err
            tau = kp * err + ki * cand - kd * p_dot \
                - m * g * r * math.sin(th)
            if tau > tau_max:
                tau = tau_max
            elif tau < -tau_max:
                tau = -tau_max
            else:
                integral = cand
        out[n_samp, 0] = t
        out[n_samp, 1] = r
        out[n_samp, 2] = dr
        out[n_samp, 3] = th
        out[n_samp, 4] = dth
        out[n_samp, 5] = tau
        n_samp += 1
        for _ in range(nsub):
            rp, drp, thp, dthp = r, dr, th, dth
            f_prev = k * (r - r0) + b * dr
            dr_prev = dr
            r, dr, th, dth = _rk4_step(r, dr, th, dth, dt, tau,
                                       m, k, b, r0, g)
            istep += 1
            if r <= 0.0 or r * math.cos(th) <= 0.0:
                return (_STATUS_GROUND, n_samp, istep * dt, r, dr, th, dth,
                        t_bottom)
            if t_bottom < 0.0 and dr_prev < 0.0 <= dr:
                lo_h = 0.0
                hi_h = dt
                while hi_h - lo_h > EVENT_TIME_TOL:
                    mid = 0.5 * (lo_h + hi_h)
                    _, dm, _, _ = _rk4_step(rp, drp, thp, dthp, mid, tau,
                                            m, k, b, r0, g)
                    if dm < 0.0:
                        lo_h = mid
                    else:
                        hi_h = mid
                t_bottom = (istep - 1) * dt + 0.5 * (lo_h + hi_h)
            f_new = k * (r - r0) + b * dr
            if f_prev < 0.0 <= f_new and dr > 0.0:
                lo_h = 0.0
                hi_h = dt
                while hi_h - lo_h > EVENT_TIME_TOL:
                    mid = 0.5 * (lo_h + hi_h)
                    rm, dm, _, _ = _rk4_step(rp, drp, thp, dthp, mid, tau,
                                             m, k, b, r0, g)
                    if k * (rm - r0) + b * dm < 0.0:
                        lo_h = mid
                    else:
                        hi_h = mid
                r, dr, th, dth = _rk4_step(rp, drp, thp, dthp, hi_h, tau,
                                           m, k, b, r0, g)
                t_lo = (istep - 1) * dt + hi_h
                return (_STATUS_LIFTOFF, n_samp, t_lo, r, dr, th, dth,
                        t_bottom)
    return (_STATUS_NO_LIFTOFF, n_samp, istep * dt, r, dr, th, dth, t_bottom)


try:  # pragma: no cover - exercised implicitly everywhere
    from numba import njit

    _rk4_step = njit(cache=True, fastmath=False)(_rk4_step)
    _stance_core = njit(cache=True, fastmath=False)(_stance_core)
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False


# --- trajectory containers ---------------------------------------------------

class TrajectorySample(NamedTuple):
    """One 1 kHz row of trajectory.csv, its fields the columns in order;
    the stance-only fields (leg state and hip torque tau) are None in
    flight."""

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


@dataclass(frozen=True)
class TrajectoryEvent:
    name: str  # "touchdown" | "bottom" | "liftoff" | "apex"
    t: float
    state: dict[str, float] | None = None  # event-localized state snapshot


_PHASE_NEXT = {"descent": "stance", "stance": "ascent", "ascent": "descent"}


@dataclass
class HybridTrajectory:
    """Time-stamped hop record: 1 kHz samples plus the hybrid event log."""

    samples: list[TrajectorySample] = field(default_factory=list)
    events: list[TrajectoryEvent] = field(default_factory=list)

    def extend(self, other: "HybridTrajectory") -> None:
        self.samples.extend(other.samples)
        self.events.extend(other.events)

    def validate(self) -> None:
        """Check phase alternation and strictly increasing event times."""
        prev_phase = None
        for s in self.samples:
            if prev_phase is not None and s.phase != prev_phase:
                if s.phase != _PHASE_NEXT[prev_phase]:
                    raise ValueError(
                        f"phase {prev_phase!r} -> {s.phase!r} breaks the "
                        "descent->stance->ascent cycle")
            prev_phase = s.phase
        times = [e.t for e in self.events]
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError(f"event times not increasing: {a} >= {b}")


@dataclass(frozen=True)
class StanceSegment:
    """Stance integration record returned alongside the liftoff state."""

    t_liftoff: float           # stance duration (s, from touchdown)
    t_bottom: float | None     # first r_dot zero crossing, None if none
    p_liftoff: float           # angular momentum at liftoff
    samples: np.ndarray        # (n, 6): t, r, r_dot, theta, theta_dot, tau


# --- phase maps --------------------------------------------------------------

def integrate_stance(td: StanceState, inputs: ControlInputs | None,
                     params: SlipParams, dt: float = DEFAULT_DT,
                     control_dt: float = DEFAULT_CONTROL_DT,
                     ) -> tuple[StanceState, StanceSegment]:
    """Integrate stance from touchdown until the leg force vanishes.

    inputs=None runs the passive leg (tau = 0). Touchdown must be at the
    rest length with negative radial velocity, and dt and control_dt
    finite and > 0. Raises FailedLiftoff if the leg force never returns
    to zero within the time budget, GroundFault if the mass reaches the
    ground.
    """
    check_step("dt", dt)
    check_step("control_dt", control_dt)
    if abs(td.r - params.r0) > 1e-9:
        raise ValueError(f"touchdown r = {td.r} must equal r0 = {params.r0}")
    if td.r_dot >= 0.0:
        raise NonPhysical(f"touchdown r_dot = {td.r_dot:.4f} >= 0")
    nsub = max(1, round(control_dt / dt))
    t_budget = TIME_BUDGET_HALF_PERIODS * math.pi / params.omega0
    n_ctrl_max = int(math.ceil(t_budget / (dt * nsub)))
    out = np.empty((n_ctrl_max + 1, 6), dtype=np.float64)
    if inputs is None:
        ctrl = (False, 0.0, 0.0, 0.0, 0.0, math.inf)
    else:
        tau_max = math.inf if inputs.tau_max is None else inputs.tau_max
        ctrl = (True, inputs.p_bar, inputs.kp, inputs.ki, inputs.kd, tau_max)
    status, n_samp, t_end, r, dr, th, dth, t_bottom = \
        _stance_core(td.r, td.r_dot, td.theta, td.theta_dot,
                     params.m, params.k, params.b, params.r0, params.g,
                     *ctrl, dt, nsub, n_ctrl_max, out)
    if status == _STATUS_GROUND:
        raise GroundFault(
            f"mass height reached 0 at t = {t_end:.6f} s (theta = {th:.3f})")
    if status == _STATUS_NO_LIFTOFF:
        raise FailedLiftoff(
            f"leg force never vanished within {t_budget:.3f} s")
    lo = StanceState(r=r, r_dot=dr, theta=th, theta_dot=dth)
    segment = StanceSegment(
        t_liftoff=t_end,
        t_bottom=None if t_bottom < 0.0 else t_bottom,
        p_liftoff=lo.angular_momentum(params),
        samples=out[:n_samp].copy(),
    )
    return lo, segment


def descent_time(apex: ApexState, theta_td: float, params: SlipParams) -> float:
    """Ballistic fall time from apex to the touchdown height r0*cos(theta_td).

    t_td = (y_dot + sqrt(y_dot^2 + 2g*y - 2g*r0*cos(theta_td))) / g with
    y_dot = 0 at apex. Raises UnreachableTouchdown below touchdown height.
    """
    rad = 2.0 * params.g * (apex.y - params.r0 * math.cos(theta_td))
    if rad < 0.0:
        raise UnreachableTouchdown(
            f"apex y = {apex.y:.4f} below touchdown height "
            f"{params.r0 * math.cos(theta_td):.4f}")
    return math.sqrt(rad) / params.g


def integrate_descent(apex: ApexState, theta_td: float,
                      params: SlipParams) -> FlightState:
    """Ballistic state at touchdown height for the commanded angle."""
    t_td = descent_time(apex, theta_td, params)
    return FlightState(
        x_dot=apex.x_dot,
        y=params.r0 * math.cos(theta_td),
        y_dot=-params.g * t_td,
    )


def ascent_time(lo: FlightState, params: SlipParams) -> float:
    """Time from liftoff to apex, t = y_dot/g. Raises DescendingAtLiftoff."""
    if lo.y_dot < 0.0:
        raise DescendingAtLiftoff(
            f"liftoff vertical velocity {lo.y_dot:.4f} < 0")
    return lo.y_dot / params.g


def integrate_ascent(lo: FlightState, params: SlipParams) -> ApexState:
    """Ballistic apex after liftoff: x_dot unchanged, y + y_dot^2/(2g)."""
    ascent_time(lo, params)  # validates y_dot >= 0
    return ApexState(x_dot=lo.x_dot,
                     y=lo.y + lo.y_dot ** 2 / (2.0 * params.g))


def compose_return_map(apex: ApexState, inputs: ControlInputs,
                       params: SlipParams,
                       solve_aoa: Callable[..., AoaSolution],
                       stance_map: Callable[[StanceState, ControlInputs,
                                             SlipParams], StanceState],
                       ) -> ApexState:
    """One hop from apex to apex, the chain every return map shares.

    solve_aoa(x_dot, E_v, k_theta, params) picks the touchdown angle from
    the vertical energy at apex; descent, the touchdown reset, the
    liftoff reset and ascent are exact; stance_map(td, inputs, params)
    takes the touchdown state to the liftoff state. A SlipError from any
    step propagates with its phase ("aoa", "descent", "touchdown",
    "stance" or "ascent") set on it.
    """
    phase = "aoa"
    try:
        theta_td = solve_aoa(apex.x_dot, vertical_energy(apex, params),
                             inputs.k_theta, params).theta_td
        phase = "descent"
        f_td = integrate_descent(apex, theta_td, params)
        phase = "touchdown"
        s_td = flight_to_stance(f_td, theta_td, params)
        phase = "stance"
        s_lo = stance_map(s_td, inputs, params)
        phase = "ascent"
        return integrate_ascent(stance_to_flight(s_lo), params)
    except SlipError as err:
        err.phase = phase
        raise


def _flight_samples(t0: float, duration: float, x0: float, x_dot: float,
                    y0: float, y_dot0: float, g: float, phase: str,
                    sample_dt: float) -> list[TrajectorySample]:
    rows = []
    n = int(math.floor(duration / sample_dt)) + 1
    for i in range(n):
        t = i * sample_dt
        if t > duration:
            break
        rows.append(TrajectorySample(
            t=t0 + t, phase=phase, r=None, r_dot=None, theta=None,
            theta_dot=None, x=x0 + x_dot * t,
            y=y0 + y_dot0 * t - 0.5 * g * t * t,
            x_dot=x_dot, y_dot=y_dot0 - g * t, tau=None))
    return rows


def return_map_numeric(apex: ApexState, inputs: ControlInputs,
                       params: SlipParams, dt: float = DEFAULT_DT,
                       control_dt: float = DEFAULT_CONTROL_DT,
                       record: bool = True, t0: float = 0.0, x0: float = 0.0,
                       ) -> tuple[ApexState, HybridTrajectory | None]:
    """Apex-to-apex return map of the full simulator.

    compose_return_map with the implicit touchdown-angle solver and
    closed-loop stance integration at dt/control_dt. With record=True
    the trajectory (1 kHz samples + event log, absolute time starting at
    t0, fore-aft position at x0) is returned for diagnostics.
    """
    stance = []

    def stance_map(td, inputs, params):
        s_lo, seg = integrate_stance(td, inputs, params, dt=dt,
                                     control_dt=control_dt)
        stance.append((td, s_lo, seg))
        return s_lo

    next_apex = compose_return_map(apex, inputs, params, solve_aoa_implicit,
                                   stance_map)
    if not record:
        return next_apex, None

    s_td, s_lo, seg = stance[0]
    theta_td = s_td.theta
    t_td = descent_time(apex, theta_td, params)
    f_lo = stance_to_flight(s_lo)
    t_up = ascent_time(f_lo, params)

    traj = HybridTrajectory()
    sample_dt = control_dt
    # descent: ballistic from apex
    traj.samples += _flight_samples(t0, t_td, x0, apex.x_dot, apex.y, 0.0,
                                    params.g, "descent", sample_dt)
    t_touch = t0 + t_td
    x_td = x0 + apex.x_dot * t_td
    traj.events.append(TrajectoryEvent(
        "touchdown", t_touch,
        state={"r": s_td.r, "r_dot": s_td.r_dot, "theta": s_td.theta,
               "theta_dot": s_td.theta_dot}))
    # stance: body moves about the stationary toe; tolist() keeps numpy
    # scalars out of the samples (same values, cheaper to format)
    toe_x = x_td + params.r0 * math.sin(theta_td)
    for t, r, dr, th, dth, tau in seg.samples.tolist():
        c, sn = math.cos(th), math.sin(th)
        traj.samples.append(TrajectorySample(
            t=t_touch + t, phase="stance", r=r, r_dot=dr, theta=th,
            theta_dot=dth, x=toe_x - r * sn, y=r * c,
            x_dot=-dth * r * c - dr * sn, y_dot=-dth * r * sn + dr * c,
            tau=tau))
    if seg.t_bottom is not None:
        traj.events.append(TrajectoryEvent("bottom", t_touch + seg.t_bottom))
    t_lift = t_touch + seg.t_liftoff
    traj.events.append(TrajectoryEvent(
        "liftoff", t_lift,
        state={"r": s_lo.r, "r_dot": s_lo.r_dot, "theta": s_lo.theta,
               "theta_dot": s_lo.theta_dot, "p_theta": seg.p_liftoff}))
    # ascent: ballistic to apex
    x_lo = toe_x - s_lo.r * math.sin(s_lo.theta)
    traj.samples += _flight_samples(t_lift, t_up, x_lo, f_lo.x_dot, f_lo.y,
                                    f_lo.y_dot, params.g, "ascent", sample_dt)
    traj.events.append(TrajectoryEvent(
        "apex", t_lift + t_up,
        state={"x_dot": next_apex.x_dot, "y": next_apex.y,
               "x": x_lo + f_lo.x_dot * t_up}))
    return next_apex, traj
