"""The stance kernel: the sixth-order step, the event locator and the
zero-order-hold control loop.

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

simulate.integrate_stance imports this module when it first runs, so
a process that evaluates only the analytic maps compiles none of it.
"""

from __future__ import annotations

import math

from .errors import FailedLiftoff, GroundFault

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
