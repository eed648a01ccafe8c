"""Ground-truth hybrid simulator.

Stance is integrated by the stance kernel (sliphop.stance: Butcher's
sixth-order step under the zero-order-hold torque loop, with liftoff
located to round-off), which integrate_stance imports when it first
runs, so `import sliphop` compiles none of it. Flight is ballistic and
handled in closed form.
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
the chain and the hop recorder (sliphop.trajectory, imported by the
first recorded hop) both call; the stance stepper's samples, kept for
a recorded hop only, are a list of tuples, which the recorder turns
into the columns of the hop's stance run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from .control import solve_aoa_implicit, vertical_energy
from .errors import (DescendingAtLiftoff, InvalidState, SlipError,
                     UnreachableTouchdown)
from .model import (ApexState, ControlInputs, SlipParams, StanceState,
                    StateCheckError, check_flight, check_touchdown_leg,
                    liftoff_reset, touchdown_reset)

if TYPE_CHECKING:
    from .trajectory import HybridTrajectory

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


# Read only by benchmarks/run.py's have_numba environment stamp; ROADMAP
# item 0, the next benchmark change, drops that stamp and this line.
HAVE_NUMBA = False


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
    # imported here: a process that evaluates only the analytic maps
    # never compiles the stance kernel
    from .stance import _stance_core
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

    # imported here: the map under Newton never records
    from .trajectory import record_hop
    return next_apex, record_hop(apex, next_apex, *stance[0], params,
                                 control_dt, t0, x0)
