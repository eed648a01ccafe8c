"""Ground-truth hybrid simulator.

Stance integrates the unsimplified polar dynamics about the toe

    r_ddot     = r*theta_dot^2 - k/m*(r - r0) - b/m*r_dot - g*cos(theta)
    theta_ddot = -2*r_dot*theta_dot/r + g/r*sin(theta) + tau/(m*r^2)

with Butcher's 7-stage sixth-order Runge-Kutta step under a
zero-order-hold torque loop (default 1 kHz, one step of dt = 1e-3 s per
control tick: the torque is constant within a step, so the step keeps
its order); liftoff is the upward zero crossing of the leg force
k*(r - r0) + b*r_dot, located to round-off by regula falsi on the
length of the sub-step. _step is the one step law and the one place
the stance equations are written: the stance loop (_stance_core) calls
it for each full step and the event locator for each sub-step; the
loop returns the liftoff and raises GroundFault and FailedLiftoff.
Flight is ballistic and handled in closed form.
compose_return_map chains touchdown-angle selection, descent, the
touchdown reset, stance, the liftoff reset and ascent into an
apex-to-apex map and tags failures with their phase. It is the one
place the touchdown law theta_td = k_theta * theta_aoa is written; the
angle-of-attack solvers return theta_aoa alone. The simulator map
(return_map_numeric) and the analytic map (analytic.return_map_analytic)
differ only in the angle solver and the stance map they pass it. The
chain passes plain floats from phase to phase through the float laws
descend, model.touchdown_reset, the stance map, model.liftoff_reset and
ascend, each making the checks of the state it stands for; only the
ApexState at the end is built, and a failed state check leaves the
chain as a phase-tagged InvalidState. Each law is one function, which
the chain and the trajectory recorder both call; the stance stepper's
samples, kept for a recorded hop only, are a list of tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, NamedTuple

from .control import solve_aoa_implicit, vertical_energy
from .errors import (DescendingAtLiftoff, FailedLiftoff, GroundFault,
                     InvalidState, SlipError, UnreachableTouchdown)
from .model import (ApexState, ControlInputs, SlipParams, StanceState,
                    StateCheckError, check_flight, check_touchdown_leg,
                    liftoff_reset, polar_to_cartesian, touchdown_reset)

# One step per default control period. Events are located to round-off,
# so the step alone sets the error: at the closed-form apexes of a 4x4
# grid spanning criterion 1's ranges the apex map stays within 5.4e-12
# of a dt = 1e-6 RK4 reference (1.3e-13 at dt = 5e-4; RK4 at 2.5e-4 s,
# four steps per tick, gave 8.7e-11).
DEFAULT_DT = 1e-3
DEFAULT_CONTROL_DT = 1e-3
# FailedLiftoff budget: 10x the undamped half period pi/omega0.
TIME_BUDGET_HALF_PERIODS = 10.0


def check_steps(dt: float, control_dt: float) -> int:
    """Stance steps per control period, control_dt / dt. Raises ValueError
    unless both are finite and > 0 and control_dt is a whole multiple
    (>= 1, to 1e-9 relative) of dt."""
    for name, value in (("dt", dt), ("control_dt", control_dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    ratio = control_dt / dt
    nsub = round(ratio) if math.isfinite(ratio) else 0
    if nsub < 1 or abs(ratio - nsub) > 1e-9 * ratio:
        raise ValueError(f"control_dt must be a whole multiple of dt, got "
                         f"control_dt / dt = {ratio:.9g}")
    return nsub


# --- stance stepper ----------------------------------------------------------
#
# Butcher's 7-stage sixth-order Runge-Kutta tableau (J. C. Butcher, J.
# Austral. Math. Soc. 4, 1964; Hairer, Norsett & Wanner, Solving ODEs I,
# II.5). Zero entries are left out; the weights pair up, b1 = b7,
# b3 = b4, b5 = b6, and b2 = 0.
_A21 = 1.0 / 3.0
_A32 = 2.0 / 3.0
_A41, _A42, _A43 = 1.0 / 12.0, 1.0 / 3.0, -1.0 / 12.0
_A51, _A52, _A53, _A54 = -1.0 / 16.0, 9.0 / 8.0, -3.0 / 16.0, -3.0 / 8.0
_A62, _A63, _A64, _A65 = 9.0 / 8.0, -3.0 / 8.0, -3.0 / 4.0, 1.0 / 2.0
_A71, _A72, _A73, _A74, _A76 = (9.0 / 44.0, -9.0 / 11.0, 63.0 / 44.0,
                                18.0 / 11.0, -16.0 / 11.0)
_B1, _B3, _B5 = 11.0 / 120.0, 27.0 / 40.0, -4.0 / 15.0
# _locate stops once its bracket is this share of dt wide: 1e-16 s at
# the default dt, about a thousand ulps of a sub-step dt/2 long.
_LOCATE_WIDTH = 1e-13


def _scaled_tableau(h):
    """The tableau's nonzero entries times the step length h: the a_ij
    row by row, then b1, b3 and b5."""
    return (h * _A21, h * _A32, h * _A41, h * _A42, h * _A43,
            h * _A51, h * _A52, h * _A53, h * _A54,
            h * _A62, h * _A63, h * _A64, h * _A65,
            h * _A71, h * _A72, h * _A73, h * _A74, h * _A76,
            h * _B1, h * _B3, h * _B5)


def _step(r, dr, th, dth, tm, km, bm, r0, g, tab):
    """One sixth-order Runge-Kutta step at constant hip torque, the one
    place the stance equations are written. tm, km and bm are tau/m, k/m
    and b/m, and tab the tableau scaled to the step's length
    (_scaled_tableau), so the caller forms them once for many steps.
    Stage j evaluates the state (rj, drj, thj, dthj); its r and theta
    rates are drj and dthj themselves, and bj and dj are its r_ddot and
    theta_ddot."""
    (h21, h32, h41, h42, h43, h51, h52, h53, h54, h62, h63, h64, h65,
     h71, h72, h73, h74, h76, hb1, hb3, hb5) = tab
    b1 = r * dth * dth - km * (r - r0) - bm * dr - g * math.cos(th)
    d1 = (g * math.sin(th) - 2.0 * dr * dth + tm / r) / r
    r2 = r + h21 * dr
    dr2 = dr + h21 * b1
    th2 = th + h21 * dth
    dth2 = dth + h21 * d1
    b2 = r2 * dth2 * dth2 - km * (r2 - r0) - bm * dr2 - g * math.cos(th2)
    d2 = (g * math.sin(th2) - 2.0 * dr2 * dth2 + tm / r2) / r2
    r3 = r + h32 * dr2
    dr3 = dr + h32 * b2
    th3 = th + h32 * dth2
    dth3 = dth + h32 * d2
    b3 = r3 * dth3 * dth3 - km * (r3 - r0) - bm * dr3 - g * math.cos(th3)
    d3 = (g * math.sin(th3) - 2.0 * dr3 * dth3 + tm / r3) / r3
    r4 = r + (h41 * dr + h42 * dr2 + h43 * dr3)
    dr4 = dr + (h41 * b1 + h42 * b2 + h43 * b3)
    th4 = th + (h41 * dth + h42 * dth2 + h43 * dth3)
    dth4 = dth + (h41 * d1 + h42 * d2 + h43 * d3)
    b4 = r4 * dth4 * dth4 - km * (r4 - r0) - bm * dr4 - g * math.cos(th4)
    d4 = (g * math.sin(th4) - 2.0 * dr4 * dth4 + tm / r4) / r4
    r5 = r + (h51 * dr + h52 * dr2 + h53 * dr3 + h54 * dr4)
    dr5 = dr + (h51 * b1 + h52 * b2 + h53 * b3 + h54 * b4)
    th5 = th + (h51 * dth + h52 * dth2 + h53 * dth3 + h54 * dth4)
    dth5 = dth + (h51 * d1 + h52 * d2 + h53 * d3 + h54 * d4)
    b5 = r5 * dth5 * dth5 - km * (r5 - r0) - bm * dr5 - g * math.cos(th5)
    d5 = (g * math.sin(th5) - 2.0 * dr5 * dth5 + tm / r5) / r5
    r6 = r + (h62 * dr2 + h63 * dr3 + h64 * dr4 + h65 * dr5)
    dr6 = dr + (h62 * b2 + h63 * b3 + h64 * b4 + h65 * b5)
    th6 = th + (h62 * dth2 + h63 * dth3 + h64 * dth4 + h65 * dth5)
    dth6 = dth + (h62 * d2 + h63 * d3 + h64 * d4 + h65 * d5)
    b6 = r6 * dth6 * dth6 - km * (r6 - r0) - bm * dr6 - g * math.cos(th6)
    d6 = (g * math.sin(th6) - 2.0 * dr6 * dth6 + tm / r6) / r6
    r7 = r + (h71 * dr + h72 * dr2 + h73 * dr3 + h74 * dr4 + h76 * dr6)
    dr7 = dr + (h71 * b1 + h72 * b2 + h73 * b3 + h74 * b4 + h76 * b6)
    th7 = th + (h71 * dth + h72 * dth2 + h73 * dth3 + h74 * dth4
                + h76 * dth6)
    dth7 = dth + (h71 * d1 + h72 * d2 + h73 * d3 + h74 * d4 + h76 * d6)
    b7 = r7 * dth7 * dth7 - km * (r7 - r0) - bm * dr7 - g * math.cos(th7)
    d7 = (g * math.sin(th7) - 2.0 * dr7 * dth7 + tm / r7) / r7
    return (r + (hb1 * (dr + dr7) + hb3 * (dr3 + dr4) + hb5 * (dr5 + dr6)),
            dr + (hb1 * (b1 + b7) + hb3 * (b3 + b4) + hb5 * (b5 + b6)),
            th + (hb1 * (dth + dth7) + hb3 * (dth3 + dth4)
                  + hb5 * (dth5 + dth6)),
            dth + (hb1 * (d1 + d7) + hb3 * (d3 + d4) + hb5 * (d5 + d6)))


def _locate(rp, drp, thp, dthp, r1, dr1, th1, dth1, tm, a, c, dt,
            km, bm, r0, g):
    """Bracket (lo, hi) of the upward zero of a*(r - r0) + c*r_dot within
    the step of length dt from (rp, drp, thp, dthp) to (r1, dr1, th1,
    dth1), as sub-step lengths, followed by the _step state at hi: the
    event function is < 0 at lo and >= 0 at hi. Bottom is (a, c) =
    (0, 1), liftoff (k, b); tm, km and bm are _step's.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on the
    sub-step length, along which the _step state is smooth, until the
    bracket is at most _LOCATE_WIDTH*dt wide or stops shrinking. The
    event is then at hi to well under 1e-10 s; without the width rule
    the iteration would walk on across adjacent floats after the bracket
    had collapsed.
    """
    lo, f_lo = 0.0, a * (rp - r0) + c * drp
    hi, f_hi = dt, a * (r1 - r0) + c * dr1
    width = _LOCATE_WIDTH * dt
    side = 0
    while hi - lo > width:
        h = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < h < hi:
            break
        rm, dm, thm, wm = _step(rp, drp, thp, dthp, tm, km, bm, r0, g,
                                _scaled_tableau(h))
        f = a * (rm - r0) + c * dm
        if f < 0.0:
            lo, f_lo = h, f
            if side < 0:  # lo moved twice: halve the stale end's weight
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = h, f
            r1, dr1, th1, dth1 = rm, dm, thm, wm
            if side > 0:
                f_lo *= 0.5
            side = 1
    return lo, hi, r1, dr1, th1, dth1


def _stance_core(r, dr, th, dth, params, inputs, dt, nsub, t_budget,
                 record):
    """ZOH control loop around the stance step with event localization.

    Reads params and inputs (None: the passive leg) once per stance.
    Returns (rows, t_liftoff, r, dr, th, dth, t_bottom, steps), one row
    (t, r, r_dot, theta, theta_dot, tau) per control tick; steps counts
    the full steps, not those of event location. t_bottom is None when
    no bottom was found; with record false there are no rows and no
    search for it. Raises GroundFault when the mass reaches the ground,
    FailedLiftoff after ceil(t_budget / (dt*nsub)) ticks without liftoff.

    Each full step is one call of _step, with k/m, b/m and the tableau
    scaled to dt formed once per stance and tau/m once per control step.
    """
    m, k, b, r0, g = params.m, params.k, params.b, params.r0, params.g
    use_ctrl = inputs is not None
    if use_ctrl:
        p_bar, kp, ki, kd = inputs.p_bar, inputs.kp, inputs.ki, inputs.kd
        tau_max = math.inf if inputs.tau_max is None else inputs.tau_max
    ctrl_dt = dt * nsub
    km = k / m
    bm = b / m
    tab = _scaled_tableau(dt)
    integral = 0.0
    p_prev = m * r * r * dth
    force = k * (r - r0) + b * dr
    t_bottom = None
    istep = 0
    rows = []
    tau = 0.0
    tm = 0.0
    for _ in range(math.ceil(t_budget / ctrl_dt)):
        if use_ctrl:
            p = m * r * r * dth
            err = p_bar - p
            p_dot = (p - p_prev) / ctrl_dt
            p_prev = p
            cand = integral + err
            tau = kp * err + ki * cand - kd * p_dot - m * g * r * math.sin(th)
            if tau > tau_max:
                tau = tau_max
            elif tau < -tau_max:
                tau = -tau_max
            else:
                integral = cand
            tm = tau / m
        if record:
            rows.append((istep * dt, r, dr, th, dth, tau))
        for _ in range(nsub):
            rp, drp, thp, dthp, f_prev = r, dr, th, dth, force
            r, dr, th, dth = _step(r, dr, th, dth, tm, km, bm, r0, g, tab)
            istep += 1
            if r <= 0.0 or r * math.cos(th) <= 0.0:
                raise GroundFault(f"mass height reached 0 at t = "
                                  f"{istep * dt:.6f} s (theta = {th:.3f})")
            if record and t_bottom is None and drp < 0.0 <= dr:
                hi_h = _locate(rp, drp, thp, dthp, r, dr, th, dth, tm,
                               0.0, 1.0, dt, km, bm, r0, g)[1]
                t_bottom = (istep - 1) * dt + hi_h
            force = k * (r - r0) + b * dr
            if f_prev < 0.0 <= force and dr > 0.0:
                _, hi_h, r, dr, th, dth = _locate(rp, drp, thp, dthp,
                                                  r, dr, th, dth, tm, k, b,
                                                  dt, km, bm, r0, g)
                return (rows, (istep - 1) * dt + hi_h, r, dr, th, dth,
                        t_bottom, istep)
    raise FailedLiftoff(f"leg force never vanished within {t_budget:.3f} s")


# Read only by benchmarks/run.py's have_numba environment stamp; ROADMAP
# item 0, the next benchmark change, drops that stamp and this line.
HAVE_NUMBA = False


# --- trajectory containers ---------------------------------------------------

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
        """Check phase alternation, each sample's phase layout (one x_dot
        per flight run) and strictly increasing event times."""
        prev = None
        for s in self.samples:
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


class StanceSegment(NamedTuple):
    """Stance integration record returned alongside the liftoff state.
    An unrecorded stance (integrate_stance with record=False) has
    t_bottom None and no samples."""

    t_liftoff: float           # stance duration (s, from touchdown)
    t_bottom: float | None     # first r_dot zero crossing, None if none
    p_liftoff: float           # angular momentum at liftoff
    samples: list[tuple]       # rows t, r, r_dot, theta, theta_dot, tau


# --- phase maps --------------------------------------------------------------

def integrate_stance(td: StanceState, inputs: ControlInputs | None,
                     params: SlipParams, dt: float = DEFAULT_DT,
                     control_dt: float = DEFAULT_CONTROL_DT,
                     record: bool = True,
                     ) -> tuple[StanceState, StanceSegment]:
    """Integrate stance from touchdown until the leg force vanishes.

    inputs=None runs the passive leg (tau = 0). With record=False the
    segment carries no samples and no bottom time, which the stance loop
    then does not search for; the liftoff state and time are the same
    floats in both modes. The touchdown state must pass
    model.check_touchdown_leg and the steps check_steps. The stance loop
    raises FailedLiftoff if the leg force does not vanish within
    TIME_BUDGET_HALF_PERIODS half periods pi/omega0, GroundFault if the
    mass reaches the ground; InvalidState wraps a stance state that
    leaves the floats (a math domain error, an overflow or a division
    by zero in the step).
    """
    nsub = check_steps(dt, control_dt)
    check_touchdown_leg(td.r, td.r_dot, params)
    t_budget = TIME_BUDGET_HALF_PERIODS * math.pi / params.omega0
    try:
        samples, t_liftoff, r, dr, th, dth, t_bottom, _ = _stance_core(
            td.r, td.r_dot, td.theta, td.theta_dot, params, inputs, dt,
            nsub, t_budget, record)
    except (ArithmeticError, ValueError) as err:
        # a state that blows up mid-stance (math.cos of an infinite
        # angle, an overflow) is a failed state of the hop, not a bug
        raise InvalidState(f"stance state blew up: {err}") from err
    lo = StanceState(r=r, r_dot=dr, theta=th, theta_dot=dth)
    segment = StanceSegment(t_liftoff=t_liftoff, t_bottom=t_bottom,
                            p_liftoff=lo.angular_momentum(params),
                            samples=samples)
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


def descend(apex: ApexState, theta_td: float,
            params: SlipParams) -> tuple[float, float, float]:
    """Ballistic flight state (x_dot, y, y_dot) at the touchdown height
    for the commanded angle, checked by model.check_flight."""
    t_td = descent_time(apex, theta_td, params)
    y = params.r0 * math.cos(theta_td)
    y_dot = -params.g * t_td
    check_flight(apex.x_dot, y, y_dot)
    return apex.x_dot, y, y_dot


def ascent_time(y_dot: float, params: SlipParams) -> float:
    """Time from liftoff at vertical speed y_dot to apex, t = y_dot/g.
    Raises DescendingAtLiftoff."""
    if y_dot < 0.0:
        raise DescendingAtLiftoff(
            f"liftoff vertical velocity {y_dot:.4f} < 0")
    return y_dot / params.g


def ascend(x_dot: float, y: float, y_dot: float,
           params: SlipParams) -> ApexState:
    """Ballistic apex after liftoff from the flight state (x_dot, y,
    y_dot): x_dot unchanged, y + y_dot^2/(2g)."""
    ascent_time(y_dot, params)  # validates y_dot >= 0
    return ApexState(x_dot, y + y_dot ** 2 / (2.0 * params.g))


StanceMap = Callable[[float, float, float, ControlInputs, SlipParams],
                     tuple[float, float, float, float]]


def compose_return_map(apex: ApexState, inputs: ControlInputs,
                       params: SlipParams,
                       solve_aoa: Callable[..., float],
                       stance_map: StanceMap) -> ApexState:
    """One hop from apex to apex, the chain every return map shares.

    solve_aoa(x_dot, E_v, k_theta, params) returns the signed angle of
    attack theta_aoa for the vertical energy at apex, and the touchdown
    law is written here, once: the commanded touchdown angle is
    theta_td = k_theta * theta_aoa. Descent, the touchdown reset, the
    liftoff reset and ascent are exact; stance_map(r_dot, theta,
    theta_dot, inputs, params) takes the touchdown leg state (at rest
    length r0) to the liftoff state (r, r_dot, theta, theta_dot). The
    phases pass plain floats; only the ApexState at the end is built,
    and each phase makes the checks of the state it used to build. A
    SlipError from any step propagates with its phase ("aoa", "descent",
    "touchdown", "stance" or "ascent") set on it, and so does a failed
    state check, re-raised as an InvalidState with the check's message.
    """
    phase = "aoa"
    try:
        theta_td = inputs.k_theta * solve_aoa(
            apex.x_dot, vertical_energy(apex, params), inputs.k_theta, params)
        phase = "descent"
        x_dot, y, y_dot = descend(apex, theta_td, params)
        phase = "touchdown"
        r_dot, theta_dot = touchdown_reset(x_dot, y, y_dot, theta_td, params)
        phase = "stance"
        lo = stance_map(r_dot, theta_td, theta_dot, inputs, params)
        phase = "ascent"
        return ascend(*liftoff_reset(*lo), params)
    except SlipError as err:
        err.phase = phase
        raise
    except StateCheckError as err:
        raise InvalidState(str(err), phase=phase) from err


def _flight_rows(t0: float, duration: float, x0: float, x_dot: float,
                 y0: float, y_dot0: float, g: float, phase: str,
                 sample_dt: float) -> list[tuple]:
    return [(t0 + t, phase, None, None, None, None, x0 + x_dot * t,
             y0 + y_dot0 * t - 0.5 * g * t * t, x_dot, y_dot0 - g * t, None)
            for i in range(int(math.floor(duration / sample_dt)) + 1)
            if (t := i * sample_dt) <= duration]


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

    def stance_map(r_dot, theta, theta_dot, inputs, params):
        # integrate_stance, the recorder and the benchmark's tracer take
        # the touchdown as a StanceState
        td = StanceState(params.r0, r_dot, theta, theta_dot)
        s_lo, seg = integrate_stance(td, inputs, params, dt=dt,
                                     control_dt=control_dt, record=record)
        stance.append((td, s_lo, seg))
        return s_lo.r, s_lo.r_dot, s_lo.theta, s_lo.theta_dot

    next_apex = compose_return_map(apex, inputs, params, solve_aoa_implicit,
                                   stance_map)
    if not record:
        return next_apex, None

    s_td, s_lo, seg = stance[0]
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
    return next_apex, HybridTrajectory(samples, events)
