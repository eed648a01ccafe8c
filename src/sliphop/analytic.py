"""Closed-form approximate stance and return maps.

Linearizing the stance dynamics about the gravity-loaded leg length r_g
(constant angular momentum, radial gravity, Taylor expansion of the
1/r^3 and 1/r^2 terms) reduces stance to a damped harmonic oscillator
in r driving a first-order integrator in theta:

    r_ddot + 2*zeta*omega*r_dot + omega^2*r = Gamma
    theta_dot = p_bar/(m*r_g^2) * (3 - 2*r/r_g)

whose flow is available in closed form. Liftoff time comes from the
zero of the leg force on that flow, assuming compression and
decompression take roughly equal time. Freezing the liftoff phase at a
nominal condition collapses the stance map to an affine map in
(r_dot_td, theta_td) with constants C1..C4, which is what the
closed-form fixed points are built on. The analytic return map is the
simulator's hop chain (simulate.compose_return_map) with the quadratic
angle-of-attack approximation and the closed-form stance map, and
return_map_analytic_jacobian is its exact Jacobian.

The flow constants split in two. The gait part (_gait_constants)
depends only on (p_bar, params) and is computed once per gait behind a
small bounded cache; the touchdown part (_flow_coeffs) is computed per
call. Each law is one function: the closed-form stance map is
flow_liftoff, on floats, which the analytic hop chain runs.
flow_coeffs and stance_flow take a touchdown StanceState and build
StanceFlowCoeffs and the StanceState at any time; liftoff_time,
bottom_time and _flow read the coefficients as a plain tuple in
StanceFlowCoeffs order, so both kinds go through the same code.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .control import solve_aoa_approx
from .errors import NoLiftoffRoot, NonpositiveTime, Overdamped
from .model import (ApexState, ControlInputs, SlipParams, StanceState,
                    check_stance, check_touchdown_leg)
from .simulate import compose_return_map


class StanceFlowCoeffs(NamedTuple):
    """Constants of the closed-form stance flow.

    An immutable named tuple (fields read by name, as on a dataclass).
    The functions that read it unpack it as a plain tuple, so the hop
    chain passes them a tuple of the same floats in this order.

    omega    radial natural frequency sqrt(k/m + 3*p_bar^2/(m^2*r_g^4))
    zeta     damping ratio b/(2*m*omega), must be < 1
    omega_d  damped frequency omega*sqrt(1 - zeta^2)
    gamma    constant radial forcing; equilibrium length is gamma/omega^2
    a, b     cosine/sine amplitudes set by the touchdown state
    m_amp    oscillation amplitude sqrt(a^2 + b^2)
    psi      radial phase atan2(-b, a)
    psi2     velocity phase lag atan2(-sqrt(1-zeta^2), zeta)
    x_rate   secular leg-angle drift rate
    y_amp    leg-angle oscillation amplitude
    m2_force leg-force amplitude sqrt(k^2 + b^2*omega^2 - 2*b*k*omega*cos(psi2))
    """

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


class _GaitConstants(NamedTuple):
    """The flow constants that depend only on (p_bar, params), through
    p_bar^2 alone: x_rate = p_bar / x_den * x_fac and
    y_amp = 2*p_bar*m_amp / y_den take the sign of p_bar per call, so
    the cache, which cannot tell -0.0 from 0.0, returns the same floats
    for both. psi4 is the leg-force phase that liftoff_time takes."""

    omega: float
    zeta: float
    omega_d: float
    gamma: float
    psi2: float
    x_den: float
    x_fac: float
    y_den: float
    m2_force: float
    psi4: float


# keeps 64 gaits (the default sweep has 20 p_bar values); typed, since
# an int p_bar squares in exact integer arithmetic
@functools.lru_cache(maxsize=64, typed=True)
def _gait_constants(p_bar: float, params: SlipParams) -> _GaitConstants:
    """The gait part of the flow constants, once per (p_bar, params).

    Raises Overdamped when the damping ratio reaches 1 (an exception is
    not cached, so every call raises it again).
    """
    m, k, bb, r_g = params.m, params.k, params.b, params.r_g
    omega = math.sqrt(k / m + 3.0 * p_bar * p_bar / (m * m * r_g ** 4))
    gamma = p_bar * p_bar / (m * m * r_g ** 3) + omega * omega * r_g
    zeta = bb / (2.0 * m * omega)
    if zeta >= 1.0:
        raise Overdamped(f"zeta = {zeta:.4f} >= 1")
    omega_d = omega * math.sqrt(1.0 - zeta * zeta)
    psi2 = math.atan2(-math.sqrt(1.0 - zeta * zeta), zeta)
    m2_force = math.sqrt(k * k + bb * bb * omega * omega
                         - 2.0 * bb * k * omega * math.cos(psi2))
    # the leg force k*cos(x) - b*omega*cos(x + psi2) is M2*cos(x + psi4):
    # k - b*omega*e^{i*psi2} = M2*e^{i*psi4}, and psi4 is 0 undamped,
    # where the liftoff-time formula is exact
    bw = bb * omega
    psi4 = math.atan2(bw * math.sqrt(1.0 - zeta ** 2), k - bw * zeta)
    return _GaitConstants(
        omega, zeta, omega_d, gamma, psi2, m * r_g * r_g,
        3.0 - 2.0 * gamma / (r_g * omega * omega), m * r_g ** 3 * omega,
        m2_force, psi4)


def _flow_coeffs(r: float, r_dot: float, p_bar: float,
                 gait: _GaitConstants) -> tuple[float, ...]:
    """The flow constants, in StanceFlowCoeffs order, for a touchdown leg
    state (r, r_dot): the gait's, plus the touchdown part."""
    omega, zeta, omega_d, gamma, psi2, x_den, x_fac, y_den, m2_force, _ = gait
    a = r - gamma / (omega * omega)
    b = (r_dot + zeta * omega * a) / omega_d
    m_amp = math.hypot(a, b)
    psi = math.atan2(-b, a)
    return (omega, zeta, omega_d, gamma, a, b, m_amp, psi, psi2,
            p_bar / x_den * x_fac, 2.0 * p_bar * m_amp / y_den, m2_force)


def flow_coeffs(td: StanceState, p_bar: float,
                params: SlipParams) -> StanceFlowCoeffs:
    """Stance-flow constants for a touchdown state and momentum target.

    Raises Overdamped when the damping ratio reaches 1.
    """
    return StanceFlowCoeffs._make(_flow_coeffs(
        td.r, td.r_dot, p_bar, _gait_constants(p_bar, params)))


def _flow(t: float, coeffs: tuple[float, ...],
          theta_td: float) -> tuple[float, float, float]:
    """(r, r_dot, theta) of the closed-form flow at time t."""
    w, zeta, wd, gamma, _, _, m_amp, psi, psi2, x_rate, y_amp, _ = coeffs
    g_over_w2 = gamma / (w * w)
    e = math.exp(-zeta * w * t)
    c = math.cos(wd * t + psi)
    r = m_amp * e * c + g_over_w2
    r_dot = -m_amp * w * e * math.cos(wd * t + psi + psi2)
    theta = theta_td + x_rate * t + y_amp * (
        e * math.cos(wd * t + psi - psi2) - math.cos(psi - psi2))
    return r, r_dot, theta


def _flow_theta_dot(t: float, coeffs: tuple[float, ...], p_bar: float,
                    params: SlipParams) -> float:
    """theta_dot of the closed-form flow at time t, from the momentum
    expansion. Apart from _flow because the stance map reports theta_dot
    from constant momentum instead."""
    w, zeta, wd, gamma, _, _, m_amp, psi, _, _, _, _ = coeffs
    e = math.exp(-zeta * w * t)
    c = math.cos(wd * t + psi)
    r_g = params.r_g
    return p_bar / (params.m * r_g * r_g) * (
        3.0 - 2.0 * (m_amp / r_g) * e * c
        - 2.0 * gamma / (r_g * w * w))


def stance_flow(t: float, coeffs: StanceFlowCoeffs, td: StanceState,
                p_bar: float, params: SlipParams) -> StanceState:
    """Closed-form stance state at time t after touchdown.

        r(t)     = M e^{-zw t} cos(wd t + psi) + Gamma/w^2
        r_dot(t) = -M w e^{-zw t} cos(wd t + psi + psi2)
        theta(t) = theta_td + X t
                   + Y (e^{-zw t} cos(wd t + psi - psi2) - cos(psi - psi2))

    theta_dot comes from the momentum expansion
    p_bar/(m r_g^2) (3 - 2(M/r_g) e^{-zw t} cos(wd t + psi) - 2 Gamma/(r_g w^2)).
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    r, r_dot, theta = _flow(t, coeffs, td.theta)
    return StanceState(r=r, r_dot=r_dot, theta=theta,
                       theta_dot=_flow_theta_dot(t, coeffs, p_bar, params))


def bottom_time(coeffs: StanceFlowCoeffs) -> float:
    """First zero of the radial velocity: t_b = (pi/2 - psi - psi2)/omega_d."""
    _, _, wd, _, _, _, _, psi, psi2, _, _, _ = coeffs
    return (0.5 * math.pi - psi - psi2) / wd


def liftoff_time(coeffs: StanceFlowCoeffs, params: SlipParams,
                 psi4: float) -> float:
    """Approximate liftoff time: zero of the leg force on the closed flow.

    With t_b the bottom time and the decompression assumed to mirror the
    compression (e^{-zw t_lo} ~ e^{-2 zw t_b}),

        t_lo = (2 pi - arccos(k (r0 w^2 - Gamma) / (M2 M w^2 e^{-2 zw t_b}))
                - psi - psi4) / omega_d.

    psi4 is the leg-force phase, _gait_constants(p_bar, params).psi4;
    any other value should be validated against liftoff_time_bisect.
    Raises NoLiftoffRoot when the arccos argument leaves [-1, 1],
    NonpositiveTime when the branch selection does not yield
    t_lo > t_b > 0.
    """
    w, zeta, wd, gamma, _, _, m_amp, psi, _, _, _, m2_force = coeffs
    t_b = bottom_time(coeffs)
    decay = math.exp(-2.0 * zeta * w * t_b)
    arg = params.k * (params.r0 * w * w - gamma) \
        / (m2_force * m_amp * w * w * decay)
    if not -1.0 <= arg <= 1.0:
        raise NoLiftoffRoot(f"arccos argument {arg:.4f} outside [-1, 1]")
    t_lo = (2.0 * math.pi - math.acos(arg) - psi - psi4) / wd
    if not t_lo > t_b > 0.0:
        raise NonpositiveTime(
            f"branch selection gave t_lo = {t_lo:.3e}, t_b = {t_b:.3e}")
    return t_lo


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


def flow_liftoff(r: float, r_dot: float, theta: float, p_bar: float,
                 params: SlipParams) -> tuple[float, float, float, float]:
    """Closed-form stance map on floats: the flow from the touchdown leg
    state (r, r_dot, theta) at the liftoff time, as (r, r_dot, theta,
    theta_dot), checked as a StanceState.

    The liftoff angular rate is reported from the constant-momentum
    assumption, theta_dot_lo = p_bar/(m*r_lo^2). Touchdown must pass
    model.check_touchdown_leg.
    """
    check_touchdown_leg(r, r_dot, params)
    gait = _gait_constants(p_bar, params)
    coeffs = _flow_coeffs(r, r_dot, p_bar, gait)
    t_lo = liftoff_time(coeffs, params, gait.psi4)
    r, r_dot, theta = _flow(t_lo, coeffs, theta)
    theta_dot = p_bar / (params.m * r * r)
    check_stance(r, r_dot, theta, theta_dot)
    return r, r_dot, theta, theta_dot


# --- simplified affine stance map (frozen liftoff phase) ----------------------

def theta_offset(p_bar: float, k_theta: float) -> float:
    """Leg-versus-velocity angle at touchdown, (p_bar/0.7)*(pi/4)*(1-k_theta).

    Built from the nominal angle of attack p_bar/0.7 * pi/4; k_theta < 1
    leaves this much of the touchdown velocity in the angular channel.
    """
    return (p_bar / 0.7) * (0.25 * math.pi) * (1.0 - k_theta)


def nominal_touchdown_r_dot(p_bar: float, k_theta: float,
                            params: SlipParams) -> float:
    """Nominal radial touchdown velocity for freezing the liftoff phase.

    Chains the touchdown-angle geometry: nominal speed from the
    momentum line x_dot = -p_bar/(m*r0), touchdown speed magnitude
    x_dot/sin(theta_aoa_nom) with theta_aoa_nom = |p_bar|/0.7 * pi/4,
    then r_dot = -|v|*cos(theta_offset). Continuous at p_bar = 0.
    """
    x_dot_nom = abs(p_bar) / (params.m * params.r0)
    theta_nom = abs(p_bar) / 0.7 * 0.25 * math.pi
    if theta_nom < 1e-12:
        v = (4.0 * 0.7 / math.pi) / (params.m * params.r0)
    else:
        v = x_dot_nom / max(math.sin(theta_nom), 1e-9)
    return -abs(v) * math.cos(theta_offset(p_bar, k_theta))


class StanceMapConstants(NamedTuple):
    """Affine stance-map constants and the frozen nominal liftoff time.

    z_lo = [r0, c1*r_dot_td + c2, theta_td + c3*r_dot_td + c4, p_bar/(m*r0^2)]
    """

    c1: float
    c2: float
    c3: float
    c4: float
    t_lo: float


def simplified_map_constants(p_bar: float, k_theta: float,
                             params: SlipParams) -> StanceMapConstants:
    """C1..C4 for the affine stance map, frozen at the nominal condition.

    The flow amplitude A is evaluated at r_td = r0 (the touchdown reset
    always returns the rest length), and the liftoff time at the nominal
    touchdown induced by (p_bar, k_theta), so the constants depend only
    on the gait knobs and the physical parameters.
    """
    r_dot_nom = nominal_touchdown_r_dot(p_bar, k_theta, params)
    td_nom = StanceState(r=params.r0, r_dot=r_dot_nom, theta=0.0,
                         theta_dot=0.0)
    coeffs = flow_coeffs(td_nom, p_bar, params)
    t_lo = liftoff_time(coeffs, params, _gait_constants(p_bar, params).psi4)

    w, zeta, wd = coeffs.omega, coeffs.zeta, coeffs.omega_d
    m, r_g = params.m, params.r_g
    a = params.r0 - coeffs.gamma / (w * w)
    s1 = math.sqrt(1.0 - zeta * zeta)
    e = math.exp(-zeta * w * t_lo)
    cwt = math.cos(wd * t_lo)
    swt = math.sin(wd * t_lo)

    c1 = w * e * (s1 * cwt - zeta * swt) / wd
    c2 = -a * w * w * e * swt / wd
    c3 = (2.0 * p_bar / (m * r_g ** 3 * w * wd)) \
        * (e * (s1 * cwt + zeta * swt) - s1)
    c4 = coeffs.x_rate * t_lo + (2.0 * p_bar * a / (m * r_g ** 3 * w)) * (
        e * (2.0 * zeta * cwt + (2.0 * zeta * zeta - 1.0) / s1 * swt)
        - 2.0 * zeta)
    return StanceMapConstants(c1=c1, c2=c2, c3=c3, c4=c4, t_lo=t_lo)


def simplified_stance_map(td: StanceState, p_bar: float, k_theta: float,
                          params: SlipParams) -> StanceState:
    """Affine stance map in (r_dot_td, theta_td) with frozen constants."""
    c = simplified_map_constants(p_bar, k_theta, params)
    r0 = params.r0
    return StanceState(
        r=r0,
        r_dot=c.c1 * td.r_dot + c.c2,
        theta=td.theta + c.c3 * td.r_dot + c.c4,
        theta_dot=p_bar / (params.m * r0 * r0),
    )


# --- composed analytic apex return map ----------------------------------------

def _stance_map(r_dot: float, theta: float, theta_dot: float,
                inputs: ControlInputs, params: SlipParams,
                ) -> tuple[float, float, float, float]:
    return flow_liftoff(params.r0, r_dot, theta, inputs.p_bar, params)


def return_map_analytic(apex: ApexState, inputs: ControlInputs,
                        params: SlipParams) -> ApexState:
    """Apex-to-apex closed-form return map.

    compose_return_map with the quadratic angle-of-attack approximation
    and the closed-form stance map; failures carry their phase.
    """
    return compose_return_map(apex, inputs, params, solve_aoa_approx,
                              _stance_map)


# ((dx_dot'/dx_dot, dx_dot'/dy), (dy'/dx_dot, dy'/dy)) of an apex map
Jacobian = tuple[tuple[float, float], tuple[float, float]]
_NAN_JACOBIAN = ((math.nan, math.nan), (math.nan, math.nan))


def return_map_analytic_jacobian(apex: ApexState, inputs: ControlInputs,
                                 params: SlipParams) -> Jacobian:
    """Exact Jacobian of return_map_analytic at apex, as rows of floats.

    The chain rule through the laws the map composes, in one pass: the
    angle-of-attack quadratic's root q = theta0^2 and Phi, theta_td =
    k_theta*theta_aoa, descent and the touchdown reset give (r_dot_td,
    theta_td) and their partials in (x_dot, y); the stance flow at the
    liftoff time (through its arccos), the liftoff reset and ascent are
    differentiated in r_dot_td, and theta_td enters them only by adding
    to the stance angle. Call it where return_map_analytic has just
    evaluated: it repeats none of the map's state checks or branch
    tests. A derivative that is not finite (an arccos argument of +-1)
    gives a NaN Jacobian.
    """
    m, g, r0 = params.m, params.g, params.r0
    x, y = apex.x_dot, apex.y
    p_bar, k_theta = float(inputs.p_bar), float(inputs.k_theta)
    try:
        # angle of attack: Phi's radicand rad = 2*g*y - 2*g*r0*cos(s) at
        # s = k_theta*sqrt(q); d cos(s)/dq = -k_theta^2/2 * sin(s)/s,
        # which is -k_theta^2/2 at q = 0 (x_dot = 0)
        e2 = 2.0 * g * y
        qa = 16.0 * g * r0
        qb = 16.0 * (e2 - 2.0 * g * r0)
        sq = math.sqrt(qb * qb + 4.0 * qa * x * x * math.pi * math.pi)
        s = k_theta * math.sqrt((sq - qb) / (2.0 * qa))
        rad_q = g * r0 * k_theta * k_theta * (math.sin(s) / s if s else 1.0)
        rad = e2 - 2.0 * g * r0 * math.cos(s)
        rad_x = rad_q * 2.0 * math.pi * math.pi * x / sq
        rad_y = 2.0 * g + rad_q * 16.0 * g * (qb / sq - 1.0) / qa
        u = x / math.sqrt(rad)
        du = k_theta / ((1.0 + u * u) * math.sqrt(rad))
        th = k_theta * math.atan(u)
        th_x = du * (1.0 - 0.5 * x * rad_x / rad)
        th_y = -du * 0.5 * x * rad_y / rad
        # descent and the touchdown reset
        c, sn = math.cos(th), math.sin(th)
        y_dot = -math.sqrt(2.0 * g * (y - r0 * c))
        yd_x = g * r0 * sn * th_x / y_dot
        yd_y = g * (1.0 + r0 * sn * th_y) / y_dot
        r_dot = c * y_dot - sn * x
        lat = c * x + sn * y_dot
        rd_x = c * yd_x - sn - lat * th_x
        rd_y = c * yd_y - lat * th_y
        # stance: the flow at the liftoff time, and each quantity's
        # derivative in r_dot_td (suffix _d)
        gait = _gait_constants(p_bar, params)
        w, zeta, wd, gamma, psi2, _, _, _, m2_force, psi4 = gait
        (_, _, _, _, a, b, amp, psi, _, x_rate, y_amp,
         _) = _flow_coeffs(r0, r_dot, p_bar, gait)
        amp_d = b / (amp * wd) / amp  # relative: amp'/amp = y_amp'/y_amp
        psi_d = -a / (amp * amp * wd)
        zw = zeta * w
        decay = math.exp(-2.0 * zw * (0.5 * math.pi - psi - psi2) / wd)
        arg = params.k * (r0 * w * w - gamma) / (m2_force * amp * w * w
                                                 * decay)
        arg_d = -arg * (amp_d + 2.0 * zw * psi_d / wd)
        t = (2.0 * math.pi - math.acos(arg) - psi - psi4) / wd
        t_d = (arg_d / math.sqrt(1.0 - arg * arg) - psi_d) / wd
        e = math.exp(-zw * t)
        ph = wd * t + psi
        ph_d = wd * t_d + psi_d
        ea = amp * e
        ea_d = ea * (amp_d - zw * t_d)
        r = ea * math.cos(ph) + gamma / (w * w)
        r_d = ea_d * math.cos(ph) - ea * math.sin(ph) * ph_d
        rl_dot = -w * ea * math.cos(ph + psi2)
        rl_dot_d = -w * (ea_d * math.cos(ph + psi2)
                         - ea * math.sin(ph + psi2) * ph_d)
        osc = e * math.cos(ph - psi2) - math.cos(psi - psi2)
        theta = th + x_rate * t + y_amp * osc
        theta_d = x_rate * t_d + y_amp * (
            amp_d * osc - zw * t_d * e * math.cos(ph - psi2)
            - e * math.sin(ph - psi2) * ph_d + math.sin(psi - psi2) * psi_d)
        # liftoff reset with r*theta_dot = p_bar/(m*r), then ascent; in
        # theta_td only the stance angle moves, by 1
        lr = p_bar / (m * r)
        lr_d = -lr * r_d / r
        cl, sl = math.cos(theta), math.sin(theta)
        xl_dot = -lr * cl - rl_dot * sl
        yl_dot = -lr * sl + rl_dot * cl
        x_d = -lr_d * cl - rl_dot_d * sl - yl_dot * theta_d
        y_d = r_d * cl - r * sl * theta_d + yl_dot * (
            -lr_d * sl + rl_dot_d * cl + xl_dot * theta_d) / g
        y_th = -r * sl + yl_dot * xl_dot / g
        jac = ((x_d * rd_x - yl_dot * th_x, x_d * rd_y - yl_dot * th_y),
               (y_d * rd_x + y_th * th_x, y_d * rd_y + y_th * th_y))
    except (ArithmeticError, ValueError):
        return _NAN_JACOBIAN
    (j11, j12), (j21, j22) = jac
    if not 0.0 * j11 * j12 * j21 * j22 == 0.0:
        return _NAN_JACOBIAN
    return jac
