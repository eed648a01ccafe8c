"""Independent numerical oracles for the test suite.

These deliberately re-implement integration and the stance torque law
from scratch (no reuse of the package's stepping or control code) so
closed forms and the production integrator are checked against a
separate path. The linearized-flow oracle evaluates its RK4 at
dt = 1e-7 as a power of the one-step matrix, so it needs no JIT.
_write_csv is the reference CSV writer, one _fmt call per cell through
csv.writer, that the package's writer must match byte for byte.
solve_aoa_200_halvings is the angle-of-attack solver with its earlier
bisection backstop, a fixed 200 halvings, that the solver's stopping
rule must match bit for bit. reference_return_map_analytic and
reference_return_map_numeric are the apex maps as a chain of validated
dataclass states, one per phase boundary; both float-chain maps must
match them bit for bit, failures included. rk6_tableau_step is
Butcher's sixth-order step from its tableau in exact fractions;
stance._step, the package's one stance step, is checked against it.
RK4 (rk4_step) stays the fine-step reference of full_stance_oracle.
flow_coeffs and stance_flow are the package's own closed-form flow by
name and as a StanceState (they are not independent); the flow tests
check it against taylor_flow_oracle, and its liftoff time against
liftoff_time_bisect, which bisects the leg force on the flow.
reference_hop_rows is the hop recorder as a row builder, one
TrajectorySample per 1 kHz row, from the package's own flight times and
coordinate change; the recorder's samples must read as its rows bit for
bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from sliphop import (ApexState, ControlInputs, DescendingAtLiftoff,
                     InsufficientEnergy, NoConvergence, NoLiftoffRoot,
                     NonPhysical, NonpositiveTime, Overdamped, SlipError,
                     SlipParams, StanceState, TouchdownMismatch,
                     UnreachableTouchdown, analytic, bottom_time)
from sliphop.control import (AOA_MAX_ITER, AOA_THETA_MAX, AOA_TOL, _phi,
                             solve_aoa_approx, solve_aoa_implicit,
                             vertical_energy)
from sliphop.model import (TOUCHDOWN_TOL, check_flight, liftoff_reset,
                           polar_to_cartesian)
from sliphop.simulate import (DEFAULT_CONTROL_DT, DEFAULT_DT,
                              ascent_time, descent_time, integrate_stance)
from sliphop.trajectory import TrajectorySample


def _linear_coeffs(m, k, b, r0, g, p_bar):
    """Constants of the linearized stance ODE about r_g = r0 - m*g/k:

        r_ddot = c_f - c_k*(r - r_g) - c_b*r_dot,  theta_dot = c_t3 - c_t2*r

    returned as (r_g, c_f, c_k, c_b, c_t3, c_t2)."""
    r_g = r0 - m * g / k
    return (r_g,
            p_bar * p_bar / (m * m * r_g ** 3),
            3.0 * p_bar * p_bar / (m * m * r_g ** 4) + k / m,
            b / m,
            3.0 * p_bar / (m * r_g * r_g),
            2.0 * p_bar / (m * r_g ** 3))


def _taylor_increment(r, dr, th, w, coeffs, dt):
    """Increment of one RK4 step of length dt on the linearized stance ODE
    (r, r_dot, theta) with its constant terms scaled by w. With w = 1 it
    is the step from (r, dr, th); it is linear in (r, dr, th, w)."""
    r_g, c_f, c_k, c_b, c_t3, c_t2 = coeffs
    a1 = dr
    b1 = w * c_f - c_k * (r - w * r_g) - c_b * dr
    c1 = w * c_t3 - c_t2 * r
    ra = r + 0.5 * dt * a1
    da = dr + 0.5 * dt * b1
    a2 = da
    b2 = w * c_f - c_k * (ra - w * r_g) - c_b * da
    c2 = w * c_t3 - c_t2 * ra
    rb = r + 0.5 * dt * a2
    db = dr + 0.5 * dt * b2
    a3 = db
    b3 = w * c_f - c_k * (rb - w * r_g) - c_b * db
    c3 = w * c_t3 - c_t2 * rb
    rc = r + dt * a3
    dc = dr + dt * b3
    a4 = dc
    b4 = w * c_f - c_k * (rc - w * r_g) - c_b * dc
    c4 = w * c_t3 - c_t2 * rc
    return (dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
            dt / 6.0 * (c1 + 2.0 * c2 + 2.0 * c3 + c4))


def _taylor_rk4(r, dr, th, m, k, b, r0, g, p_bar, t_end, dt):
    """RK4 on the linearized stance ODE, step by step: the reference that
    taylor_flow_oracle's matrix power is checked against. theta_dot is
    algebraic in r."""
    coeffs = _linear_coeffs(m, k, b, r0, g, p_bar)
    for _ in range(round(t_end / dt)):
        inc_r, inc_dr, inc_th = _taylor_increment(r, dr, th, 1.0, coeffs, dt)
        r += inc_r
        dr += inc_dr
        th += inc_th
    return r, dr, th, coeffs[4] - coeffs[5] * r


def taylor_flow_oracle(td: StanceState, p_bar: float, params: SlipParams,
                       t_end: float, dt: float = 1e-7,
                       ) -> tuple[float, float, float, float]:
    """(r, r_dot, theta, theta_dot) of the linearized stance dynamics at
    t_end, by RK4 at step dt.

    The ODE is affine, so one RK4 step is x <- (I + E) x on
    x = (r, r_dot, theta, 1), and E's columns are the step increments of
    the basis vectors. The n steps are (I + E)^n = I + R, built by
    squaring in increment form (E <- 2E + E@E, R <- R + E + E@R): forming
    I + E would round off the small increments.
    """
    coeffs = _linear_coeffs(params.m, params.k, params.b, params.r0,
                            params.g, p_bar)
    inc = np.zeros((4, 4))
    for j, basis in enumerate(np.eye(4).tolist()):
        inc[:3, j] = _taylor_increment(*basis, coeffs, dt)
    total = np.zeros((4, 4))
    n = round(t_end / dt)
    while n:
        if n & 1:
            total = total + inc + inc @ total
        inc = 2.0 * inc + inc @ inc
        n >>= 1
    x0 = np.array([td.r, td.r_dot, td.theta, 1.0])
    r, r_dot, theta, _ = (x0 + total @ x0).tolist()
    return r, r_dot, theta, coeffs[4] - coeffs[5] * r


# --- the package's closed-form flow, by name and as a StanceState -------------
#
# The package keeps the flow constants as a plain tuple
# (analytic._flow_coeffs). flow_coeffs names its fields and stance_flow
# gives the flow's StanceState at any time, both through the package's
# own _flow_coeffs and _flow, so the flow tests and criterion 4 check
# the production flow against the RK4 oracle. Only theta_dot, which the
# package reports from constant momentum instead, is computed here, from
# the momentum expansion.

class StanceFlowCoeffs(NamedTuple):
    """The tuple analytic._flow_coeffs returns, its fields by name (their
    meaning is listed in its docstring)."""

    omega: float
    zeta: float
    omega_d: float
    gamma: float
    a: float
    b: float
    m_amp: float
    psi: float
    psi2: float
    x_rate: float
    y_amp: float
    m2_force: float
    psi4: float


def flow_coeffs(td: StanceState, p_bar: float,
                params: SlipParams) -> StanceFlowCoeffs:
    """Stance-flow constants for a touchdown state and momentum target.

    Raises Overdamped when the damping ratio reaches 1.
    """
    return StanceFlowCoeffs._make(analytic._flow_coeffs(
        td.r, td.r_dot, p_bar, params))


def _flow_theta_dot(t: float, coeffs: tuple[float, ...], p_bar: float,
                    params: SlipParams) -> float:
    """theta_dot of the closed-form flow at time t, from the momentum
    expansion. Not in analytic._flow because the package's stance map
    reports theta_dot from constant momentum instead."""
    w, zeta, wd, gamma, _, _, m_amp, psi, _, _, _, _, _ = coeffs
    e = math.exp(-zeta * w * t)
    c = math.cos(wd * t + psi)
    r_g = params.r_g
    return p_bar / (params.m * r_g * r_g) * (
        3.0 - 2.0 * (m_amp / r_g) * e * c
        - 2.0 * gamma / (r_g * w * w))


def stance_flow(t: float, coeffs: StanceFlowCoeffs, td: StanceState,
                p_bar: float, params: SlipParams) -> StanceState:
    """Closed-form stance state at time t after touchdown: (r, r_dot,
    theta) from analytic._flow, and theta_dot from the momentum expansion

        p_bar/(m r_g^2) (3 - 2(M/r_g) e^{-zw t} cos(wd t + psi)
                         - 2 Gamma/(r_g w^2)).
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    r, r_dot, theta = analytic._flow(t, coeffs, td.theta)
    return StanceState(r=r, r_dot=r_dot, theta=theta,
                       theta_dot=_flow_theta_dot(t, coeffs, p_bar, params))


def liftoff_time_bisect(coeffs: StanceFlowCoeffs,
                        params: SlipParams) -> float:
    """Oracle for liftoff_time: bisect k*(r - r0) + b*r_dot = 0 on the flow.

    Scans forward from the bottom time in 1e-4 s steps for the first
    upward force crossing and bisects it to 1e-12 s. Independent of the
    arccos branch arithmetic; used to validate psi4 and the n1/n2 branch
    choices.
    """
    w, zeta, wd = coeffs.omega, coeffs.zeta, coeffs.omega_d
    g_over_w2 = coeffs.gamma / (w * w)

    def force(t: float) -> float:
        e = math.exp(-zeta * w * t)
        r = coeffs.m_amp * e * math.cos(wd * t + coeffs.psi) + g_over_w2
        r_dot = -coeffs.m_amp * w * e * math.cos(wd * t + coeffs.psi
                                                 + coeffs.psi2)
        return params.k * (r - params.r0) + params.b * r_dot

    t = bottom_time(coeffs)
    f_prev = force(t)
    t_stop = t + 4.0 * math.pi / wd
    while t < t_stop:
        t_next = t + 1e-4
        f_next = force(t_next)
        if f_prev < 0.0 <= f_next:
            lo, hi = t, t_next
            while hi - lo > 1e-12:
                mid = 0.5 * (lo + hi)
                if force(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        t, f_prev = t_next, f_next
    raise NoLiftoffRoot("no upward force crossing within two periods")


@dataclass(frozen=True)
class PidState:
    """Controller memory: error accumulator and previous momentum sample."""

    integral: float = 0.0
    p_prev: float = 0.0


def pid_at_touchdown(td: StanceState, params: SlipParams) -> PidState:
    """Fresh per-stance state: zero accumulator, p_prev seeded so the
    first backward difference is zero."""
    return PidState(integral=0.0, p_prev=td.angular_momentum(params))


def hip_torque(target_p: float, state: StanceState, pid: PidState,
               gains: ControlInputs, params: SlipParams,
               dt: float) -> tuple[float, PidState]:
    """One discrete step of the stance torque law, written apart from the
    production stance kernel.

        tau = kp*(p_bar - p) + ki*sum(p_bar - p) - kd*p_dot - m*g*r*sin(theta)

    p_dot is a backward difference of p_theta over the control period;
    the accumulator is a raw error sum (per-sample, not scaled by dt) and
    is frozen while the output saturates (anti-windup). Returns the
    torque, clamped to +-tau_max when a limit is set, and the updated
    controller state.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    p = state.angular_momentum(params)
    err = target_p - p
    p_dot = (p - pid.p_prev) / dt
    feedforward = -params.m * params.g * state.r * math.sin(state.theta)
    integral = pid.integral + err
    tau = gains.kp * err + gains.ki * integral - gains.kd * p_dot + feedforward
    if gains.tau_max is not None and abs(tau) > gains.tau_max:
        tau = math.copysign(gains.tau_max, tau)
        integral = pid.integral  # freeze while saturated
    return tau, PidState(integral=integral, p_prev=p)


def stance_rhs(s: tuple[float, float, float, float], tau: float,
               params: SlipParams) -> tuple[float, float, float, float]:
    """Right-hand side of the stance ODE at s = (r, r_dot, theta,
    theta_dot) under hip torque tau: (r_dot, r_ddot, theta_dot,
    theta_ddot)."""
    m, k, b, r0, g = params.m, params.k, params.b, params.r0, params.g
    r, dr, th, dth = s
    return (dr,
            r * dth * dth - k / m * (r - r0) - b / m * dr - g * math.cos(th),
            dth,
            -2.0 * dr * dth / r + g / r * math.sin(th) + tau / (m * r * r))


def stance_step(s: tuple[float, float, float, float], h: float, tau: float,
                params: SlipParams) -> tuple[float, float, float, float]:
    """One classical RK4 step of stance_rhs at constant torque."""
    k1 = stance_rhs(s, tau, params)
    k2 = stance_rhs(tuple(s[i] + 0.5 * h * k1[i] for i in range(4)), tau,
                    params)
    k3 = stance_rhs(tuple(s[i] + 0.5 * h * k2[i] for i in range(4)), tau,
                    params)
    k4 = stance_rhs(tuple(s[i] + h * k3[i] for i in range(4)), tau, params)
    return tuple(s[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                 for i in range(4))


def rk4_step(r, dr, th, dth, h, tau, m, k, b, r0, g):
    """stance_step on scalars, written out: the same floats in about half
    the time, for the fine-step reference full_stance_oracle."""
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


# Butcher's 7-stage sixth-order tableau (J. C. Butcher, J. Austral. Math.
# Soc. 4, 1964), rows of A below the diagonal and the weights b.
RK6_A = tuple(tuple(Fraction(v) for v in row) for row in (
    (), ("1/3",), ("0", "2/3"), ("1/12", "1/3", "-1/12"),
    ("-1/16", "9/8", "-3/16", "-3/8"), ("0", "9/8", "-3/8", "-3/4", "1/2"),
    ("9/44", "-9/11", "63/44", "18/11", "0", "-16/11")))
RK6_B = tuple(Fraction(v) for v in
              ("11/120", "0", "27/40", "27/40", "-4/15", "-4/15", "11/120"))


def rk6_tableau_step(s: tuple[float, float, float, float], h: float,
                     tau: float, params: SlipParams,
                     ) -> tuple[float, float, float, float]:
    """One step of the explicit tableau (RK6_A, RK6_B) on stance_rhs at
    constant torque. Each stage state and the result are summed in exact
    fractions from the floats of s, h and the stage derivatives, then
    rounded once; only stance_rhs rounds in between."""
    x = [Fraction(v) for v in s]
    hf = Fraction(h)
    ks = []
    for row in RK6_A:
        stage = tuple(float(x[i] + hf * sum(
            (a * Fraction(kj[i]) for a, kj in zip(row, ks)), Fraction(0)))
            for i in range(4))
        ks.append(stance_rhs(stage, tau, params))
    return tuple(float(x[i] + hf * sum(
        (w * Fraction(kj[i]) for w, kj in zip(RK6_B, ks)), Fraction(0)))
        for i in range(4))


def full_stance_oracle(td: StanceState, inputs: ControlInputs | None,
                       params: SlipParams, dt: float = 1e-6,
                       control_dt: float = 1e-3,
                       ) -> tuple[float, StanceState]:
    """Independent stance integration: plain-Python RK4 at a finer step,
    scan-then-bisect liftoff localization. Returns (t_liftoff, state)."""
    k, b, r0 = params.k, params.b, params.r0
    consts = (params.m, k, b, r0, params.g)

    def force(s):
        return k * (s[0] - r0) + b * s[1]

    state = (td.r, td.r_dot, td.theta, td.theta_dot)
    pid = pid_at_touchdown(td, params)
    nsub = round(control_dt / dt)
    tau = 0.0
    t_max = 10.0 * math.pi / params.omega0
    n_ctrl = math.ceil(t_max / control_dt)
    istep = 0
    for _ in range(n_ctrl):
        if inputs is not None:
            tau, pid = hip_torque(inputs.p_bar,
                                  StanceState(*state), pid, inputs,
                                  params, control_dt)
        for _ in range(nsub):
            prev = state
            f_prev = force(state)
            state = rk4_step(*state, dt, tau, *consts)
            istep += 1
            if f_prev < 0.0 <= force(state) and state[1] > 0.0:
                lo_h, hi_h = 0.0, dt
                while hi_h - lo_h > 1e-10:
                    mid = 0.5 * (lo_h + hi_h)
                    if force(rk4_step(*prev, mid, tau, *consts)) < 0.0:
                        lo_h = mid
                    else:
                        hi_h = mid
                final = rk4_step(*prev, hi_h, tau, *consts)
                return (istep - 1) * dt + hi_h, StanceState(*final)
    raise AssertionError("oracle: no liftoff within budget")


def damped_map_iteration(return_map, seed: ApexState,
                         inputs: ControlInputs, params: SlipParams,
                         relax: float = 0.5, tol: float = 1e-10,
                         max_iter: int = 4000) -> ApexState | None:
    """Relaxed fixed-point iteration z <- z + relax*(P(z) - z).

    The gait fixed points are attracting, so this converges without any
    Jacobian machinery; used as the independent oracle for the Newton
    and closed-form solvers. Returns None when an iterate leaves the
    gait domain or the budget runs out.
    """
    x, y = seed.x_dot, seed.y
    for _ in range(max_iter):
        try:
            nxt = return_map(ApexState(x, y), inputs, params)
        except Exception:
            return None
        ex, ey = nxt.x_dot - x, nxt.y - y
        if max(abs(ex), abs(ey)) <= tol:
            return ApexState(x, y)
        x += relax * ex
        y += relax * ey
    return None


def _fmt(v) -> str:
    """9 significant digits for floats; "" for None and NaN."""
    if v is None:
        return ""
    if isinstance(v, float):
        return "" if v != v else format(v, ".9g")
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _write_csv(path, header, rows) -> None:
    """Write the header, then each row with every cell through _fmt."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(map(_fmt, row) for row in rows)


def solve_aoa_200_halvings(x_dot: float, e_v: float, k_theta: float,
                           params: SlipParams) -> float:
    """control.solve_aoa_implicit as it was when its bisection backstop
    halved the bracket a fixed 200 times, with its bound on the angle
    (InsufficientEnergy past AOA_THETA_MAX, from either branch)."""
    if x_dot == 0.0:
        return 0.0
    sign = 1.0 if x_dot > 0.0 else -1.0
    ax = abs(x_dot)

    # Phi's domain: cos(k_theta*theta) < e_v / (m*g*r0)
    q = e_v / (params.m * params.g * params.r0)
    if q >= 1.0:
        lo = 0.0
    else:
        if k_theta == 0.0:
            raise InsufficientEnergy(
                f"vertical energy ratio {q:.4f} < 1 with k_theta = 0")
        lo = math.acos(q) / k_theta
        if lo >= AOA_THETA_MAX:
            raise InsufficientEnergy(
                f"domain edge {lo:.4f} rad beyond {AOA_THETA_MAX:.4f}")
        lo = math.nextafter(lo, math.inf)

    theta = lo
    for _ in range(AOA_MAX_ITER):
        try:
            nxt = _phi(theta, ax, e_v, k_theta, params)
        except InsufficientEnergy:
            break  # iterate left the domain; bisection handles it
        if abs(nxt - theta) <= AOA_TOL:
            if nxt > AOA_THETA_MAX:
                break
            return sign * nxt
        theta = nxt

    # bisection backstop on g(theta) = Phi(theta) - theta
    def gap(t: float) -> float:
        try:
            return _phi(t, ax, e_v, k_theta, params) - t
        except InsufficientEnergy:
            # Phi -> pi/2 at the domain edge
            return math.pi / 2.0 - t

    hi = AOA_THETA_MAX
    if gap(hi) > 0.0:
        raise InsufficientEnergy(f"angle of attack beyond {hi:.7f} rad")
    if gap(lo) < 0.0:
        raise NoConvergence(
            f"no bracket for Phi(theta) = theta on ({lo:.4f}, {hi:.4f})")
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if gap(mid) > 0.0:
            a = mid
        else:
            b = mid
    theta = 0.5 * (a + b)
    res = abs(_phi(theta, ax, e_v, k_theta, params) - theta)
    if res > AOA_TOL:
        raise NoConvergence(f"bisection residual {res:.3e} > {AOA_TOL:.1e}")
    return sign * theta


# --- the apex maps as a chain of dataclass states -----------------------------
#
# The hop chain as it was before it passed plain floats: every phase
# boundary builds and validates a FlightState or a StanceState, and the
# closed-form stance map computes all its StanceFlowCoeffs per call.
# Kept verbatim, so each float law must reproduce it bit for bit. The
# package has no flight-state class, so FlightState is defined here.

@dataclass(frozen=True)
class FlightState:
    """Cartesian flight state [x_dot, y, y_dot]; y is mass height. Its
    fields are always Python floats here."""

    x_dot: float
    y: float
    y_dot: float

    def __post_init__(self):
        check_flight(self.x_dot, self.y, self.y_dot)


def _descent_time(apex: ApexState, theta_td: float,
                  params: SlipParams) -> float:
    rad = 2.0 * params.g * (apex.y - params.r0 * math.cos(theta_td))
    if rad < 0.0:
        raise UnreachableTouchdown(
            f"apex y = {apex.y:.4f} below touchdown height "
            f"{params.r0 * math.cos(theta_td):.4f}")
    return math.sqrt(rad) / params.g


def _integrate_descent(apex: ApexState, theta_td: float,
                       params: SlipParams) -> FlightState:
    t_td = _descent_time(apex, theta_td, params)
    return FlightState(
        x_dot=apex.x_dot,
        y=params.r0 * math.cos(theta_td),
        y_dot=-params.g * t_td,
    )


def _flight_to_stance(f: FlightState, theta_td: float,
                      params: SlipParams) -> StanceState:
    y_td = params.r0 * math.cos(theta_td)
    if abs(f.y - y_td) > TOUCHDOWN_TOL:
        raise TouchdownMismatch(
            f"flight height {f.y:.12g} != r0*cos(theta_td) = {y_td:.12g}")
    c = math.cos(theta_td)
    sn = math.sin(theta_td)
    return StanceState(
        r=params.r0,
        r_dot=-sn * f.x_dot + c * f.y_dot,
        theta=theta_td,
        theta_dot=(-c * f.x_dot - sn * f.y_dot) / params.r0,
    )


def _check_touchdown(td: StanceState, params: SlipParams) -> None:
    if abs(td.r - params.r0) > TOUCHDOWN_TOL:
        raise ValueError(f"touchdown r = {td.r} must equal r0 = {params.r0}")
    if td.r_dot >= 0.0:
        raise NonPhysical(f"touchdown r_dot = {td.r_dot:.4f} >= 0")


def _stance_to_flight(s: StanceState) -> FlightState:
    _, y, x_dot, y_dot = polar_to_cartesian(s.r, s.r_dot, s.theta,
                                            s.theta_dot)
    return FlightState(x_dot, y, y_dot)


def _ascent_time(lo: FlightState, params: SlipParams) -> float:
    if lo.y_dot < 0.0:
        raise DescendingAtLiftoff(
            f"liftoff vertical velocity {lo.y_dot:.4f} < 0")
    return lo.y_dot / params.g


def _integrate_ascent(lo: FlightState, params: SlipParams) -> ApexState:
    _ascent_time(lo, params)  # validates y_dot >= 0
    return ApexState(x_dot=lo.x_dot,
                     y=lo.y + lo.y_dot ** 2 / (2.0 * params.g))


def _compose_return_map(apex, inputs, params, solve_aoa, stance_map):
    phase = "aoa"
    try:
        theta_td = inputs.k_theta * solve_aoa(
            apex.x_dot, vertical_energy(apex, params), inputs.k_theta, params)
        phase = "descent"
        f_td = _integrate_descent(apex, theta_td, params)
        phase = "touchdown"
        s_td = _flight_to_stance(f_td, theta_td, params)
        phase = "stance"
        s_lo = stance_map(s_td, inputs, params)
        phase = "ascent"
        return _integrate_ascent(_stance_to_flight(s_lo), params)
    except SlipError as err:
        err.phase = phase
        raise


def reference_flow_coeffs(td: StanceState, p_bar: float,
                          params: SlipParams) -> StanceFlowCoeffs:
    m, k, bb, r_g = params.m, params.k, params.b, params.r_g
    omega = math.sqrt(k / m + 3.0 * p_bar * p_bar / (m * m * r_g ** 4))
    gamma = p_bar * p_bar / (m * m * r_g ** 3) + omega * omega * r_g
    zeta = bb / (2.0 * m * omega)
    if zeta >= 1.0:
        raise Overdamped(f"zeta = {zeta:.4f} >= 1")
    omega_d = omega * math.sqrt(1.0 - zeta * zeta)
    a = td.r - gamma / (omega * omega)
    b = (td.r_dot + zeta * omega * a) / omega_d
    m_amp = math.hypot(a, b)
    psi = math.atan2(-b, a)
    psi2 = math.atan2(-math.sqrt(1.0 - zeta * zeta), zeta)
    x_rate = p_bar / (m * r_g * r_g) \
        * (3.0 - 2.0 * gamma / (r_g * omega * omega))
    y_amp = 2.0 * p_bar * m_amp / (m * r_g ** 3 * omega)
    m2_force = math.sqrt(k * k + bb * bb * omega * omega
                         - 2.0 * bb * k * omega * math.cos(psi2))
    bw = bb * omega
    psi4 = math.atan2(bw * math.sqrt(1.0 - zeta ** 2), k - bw * zeta)
    return StanceFlowCoeffs(omega=omega, zeta=zeta, omega_d=omega_d,
                            gamma=gamma, a=a, b=b, m_amp=m_amp, psi=psi,
                            psi2=psi2, x_rate=x_rate, y_amp=y_amp,
                            m2_force=m2_force, psi4=psi4)


def reference_flow(t: float, coeffs: StanceFlowCoeffs, theta_td: float,
                   p_bar: float, params: SlipParams,
                   ) -> tuple[float, float, float, float]:
    w, zeta, wd = coeffs.omega, coeffs.zeta, coeffs.omega_d
    m_amp, psi, psi2 = coeffs.m_amp, coeffs.psi, coeffs.psi2
    g_over_w2 = coeffs.gamma / (w * w)
    e = math.exp(-zeta * w * t)
    c = math.cos(wd * t + psi)
    r = m_amp * e * c + g_over_w2
    r_dot = -m_amp * w * e * math.cos(wd * t + psi + psi2)
    theta = theta_td + coeffs.x_rate * t + coeffs.y_amp * (
        e * math.cos(wd * t + psi - psi2) - math.cos(psi - psi2))
    r_g = params.r_g
    theta_dot = p_bar / (params.m * r_g * r_g) * (
        3.0 - 2.0 * (m_amp / r_g) * e * c
        - 2.0 * coeffs.gamma / (r_g * w * w))
    return r, r_dot, theta, theta_dot


def _bottom_time(coeffs: StanceFlowCoeffs) -> float:
    return (0.5 * math.pi - coeffs.psi - coeffs.psi2) / coeffs.omega_d


def reference_liftoff_time(coeffs: StanceFlowCoeffs,
                           params: SlipParams) -> float:
    w, zeta, wd = coeffs.omega, coeffs.zeta, coeffs.omega_d
    t_b = _bottom_time(coeffs)
    decay = math.exp(-2.0 * zeta * w * t_b)
    arg = params.k * (params.r0 * w * w - coeffs.gamma) \
        / (coeffs.m2_force * coeffs.m_amp * w * w * decay)
    if not -1.0 <= arg <= 1.0:
        raise NoLiftoffRoot(f"arccos argument {arg:.4f} outside [-1, 1]")
    t_lo = (2.0 * math.pi - math.acos(arg) - coeffs.psi - coeffs.psi4) / wd
    if not t_lo > t_b > 0.0:
        raise NonpositiveTime(
            f"branch selection gave t_lo = {t_lo:.3e}, t_b = {t_b:.3e}")
    return t_lo


def reference_stance_map_analytic(td: StanceState, p_bar: float,
                                  params: SlipParams) -> StanceState:
    _check_touchdown(td, params)
    coeffs = reference_flow_coeffs(td, p_bar, params)
    t_lo = reference_liftoff_time(coeffs, params)
    r, r_dot, theta, _ = reference_flow(t_lo, coeffs, td.theta, p_bar,
                                        params)
    return StanceState(r=r, r_dot=r_dot, theta=theta,
                       theta_dot=p_bar / (params.m * r * r))


def reference_return_map_analytic(apex: ApexState, inputs: ControlInputs,
                                  params: SlipParams) -> ApexState:
    def stance_map(td, inputs, params):
        return reference_stance_map_analytic(td, inputs.p_bar, params)

    return _compose_return_map(apex, inputs, params, solve_aoa_approx,
                               stance_map)


def reference_return_map_numeric(apex: ApexState, inputs: ControlInputs,
                                 params: SlipParams, dt: float = DEFAULT_DT,
                                 control_dt: float = DEFAULT_CONTROL_DT,
                                 ) -> ApexState:
    def stance_map(td, inputs, params):
        return integrate_stance(td, inputs, params, dt=dt,
                                control_dt=control_dt)[0]

    return _compose_return_map(apex, inputs, params, solve_aoa_implicit,
                               stance_map)



def _reference_flight_rows(t0, duration, x0, x_dot, y0, y_dot0, g, phase,
                           sample_dt):
    return [TrajectorySample(t0 + t, phase, None, None, None, None,
                             x0 + x_dot * t,
                             y0 + y_dot0 * t - 0.5 * g * t * t, x_dot,
                             y_dot0 - g * t, None)
            for i in range(int(math.floor(duration / sample_dt)) + 1)
            if (t := i * sample_dt) <= duration]


def reference_hop_rows(apex, next_apex, s_td, s_lo, seg, params, control_dt,
                       t0, x0) -> list[TrajectorySample]:
    """The rows of one recorded hop, from record_hop's arguments: descent
    and ascent sampled every control_dt, each flight row holding its
    run's one launch speed object, and the stance rows moved about the
    toe."""
    t_td = descent_time(apex, s_td.theta, params)
    x_dot_lo, y_lo, y_dot_lo = liftoff_reset(s_lo.r, s_lo.r_dot, s_lo.theta,
                                             s_lo.theta_dot)
    t_touch = t0 + t_td
    toe_x = x0 + apex.x_dot * t_td - polar_to_cartesian(
        s_td.r, s_td.r_dot, s_td.theta, s_td.theta_dot)[0]
    rows = _reference_flight_rows(t0, t_td, x0, apex.x_dot, apex.y, 0.0,
                                  params.g, "descent", control_dt)
    for t, r, dr, th, dth, tau in seg.samples:
        x, y, x_dot, y_dot = polar_to_cartesian(r, dr, th, dth)
        rows.append(TrajectorySample(t_touch + t, "stance", r, dr, th, dth,
                                     toe_x + x, y, x_dot, y_dot, tau))
    x_lo = toe_x + polar_to_cartesian(s_lo.r, s_lo.r_dot, s_lo.theta,
                                      s_lo.theta_dot)[0]
    return rows + _reference_flight_rows(
        t_touch + seg.t_liftoff, ascent_time(y_dot_lo, params), x_lo,
        x_dot_lo, y_lo, y_dot_lo, params.g, "ascent", control_dt)
