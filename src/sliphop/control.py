"""Angle-of-attack solvers.

The touchdown policy aligns most of the touchdown velocity with the leg
axis: the commanded angle is theta_td = k_theta * theta_aoa, formed in
simulate.compose_return_map alone, where theta_aoa solves the implicit
constraint

    theta = Phi(theta) = atan( x_dot / sqrt(2*E_v/m - 2*g*r0*cos(k_theta*theta)) )

with E_v the vertical energy at touchdown. Both solvers here return the
signed theta_aoa as a float. The stance policy is a PID
plus gravity feed-forward on the angular momentum p_theta = m*r^2*theta_dot;
it runs inside the stance kernel (stance._stance_core), which keeps its
integral and previous momentum sample in locals.
"""

from __future__ import annotations

import math

from .errors import InsufficientEnergy, NoConvergence, NonPhysical
from .model import ApexState, SlipParams
from .numerics import quadratic_roots

AOA_TOL = 1e-10
AOA_MAX_ITER = 200
# Stay off theta = pi/2: Phi is undefined there and a horizontal leg is
# not a gait.
AOA_THETA_MAX = 0.99 * math.pi / 2.0


def vertical_energy(apex: ApexState, params: SlipParams) -> float:
    """Vertical energy E_v = 0.5*m*y_dot^2 + m*g*y evaluated at apex
    (y_dot = 0), conserved through flight."""
    return params.m * params.g * apex.y


def _phi(theta: float, x_dot: float, e_v: float, k_theta: float,
         params: SlipParams) -> float:
    try:
        rad = 2.0 * e_v / params.m \
            - 2.0 * params.g * params.r0 * math.cos(k_theta * theta)
    except ValueError:  # math.cos of an infinite angle
        raise NonPhysical(
            f"touchdown angle guess {theta!r} is not finite") from None
    if rad <= 0.0:
        raise InsufficientEnergy(
            f"touchdown radicand {rad:.3e} <= 0 at theta = {theta:.4f}")
    return math.atan(x_dot / math.sqrt(rad))


def solve_aoa_implicit(x_dot: float, e_v: float, k_theta: float,
                       params: SlipParams) -> float:
    """Solve theta = Phi(theta) for the angle of attack.

    Fixed-point iteration from the edge of Phi's domain (to AOA_TOL, at
    most AOA_MAX_ITER sweeps), then bisection on Phi(theta) - theta over
    the admissible interval until the bracket stops shrinking. The
    solution carries the sign of x_dot (Phi is odd in x_dot, even in
    theta). Raises InsufficientEnergy when no admissible angle exists in
    (0, AOA_THETA_MAX], NoConvergence if the backstop cannot bracket one.
    """
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
                break  # past the bound: the bracket check below raises
            return sign * nxt
        theta = nxt

    # bisection backstop on g(theta) = Phi(theta) - theta
    def gap(t: float) -> float:
        try:
            return _phi(t, ax, e_v, k_theta, params) - t
        except InsufficientEnergy:
            # Phi -> pi/2 at the domain edge
            return math.pi / 2.0 - t

    # Phi falls as theta grows: above theta at the bound, it meets theta
    # only past it
    hi = AOA_THETA_MAX
    if gap(hi) > 0.0:
        raise InsufficientEnergy(f"angle of attack beyond {hi:.7f} rad")
    if gap(lo) < 0.0:
        raise NoConvergence(
            f"no bracket for Phi(theta) = theta on ({lo:.4f}, {hi:.4f})")
    a, b = lo, hi
    theta = 0.5 * (a + b)
    while a < theta < b:
        if gap(theta) > 0.0:
            a = theta
        else:
            b = theta
        theta = 0.5 * (a + b)
    res = abs(_phi(theta, ax, e_v, k_theta, params) - theta)
    if res > AOA_TOL:
        raise NoConvergence(f"bisection residual {res:.3e} > {AOA_TOL:.1e}")
    return sign * theta


def solve_aoa_approx(x_dot: float, e_v: float, k_theta: float,
                     params: SlipParams) -> float:
    """Closed-form quadratic approximation of the angle of attack.

    Expanding atan(z) ~ pi/4*z and cos(t) ~ 1 - t^2/2 turns the
    constraint into a quadratic in theta^2 with coefficients

        a = 16*g*r0,  b = 16*(2*E_v/m - 2*g*r0),  c = -x_dot^2*pi^2,

    whose positive root theta0 is mapped once through Phi: the result is
    Phi(theta0), with the sign of x_dot. Raises NegativeDiscriminant if
    the quadratic breaks, InsufficientEnergy if its root is negative or
    Phi is undefined at theta0, NonPhysical if the root overflows to
    infinity (an apex height near the float range). Phi is not evaluated
    at the result: a result outside Phi's domain commands a touchdown
    height above the apex, which fails in descent (UnreachableTouchdown).
    """
    if x_dot == 0.0:
        return 0.0
    a = 16.0 * params.g * params.r0
    b = 16.0 * (2.0 * e_v / params.m - 2.0 * params.g * params.r0)
    c = -x_dot * x_dot * math.pi * math.pi
    q_plus, _ = quadratic_roots(a, b, c)
    if q_plus < 0.0:
        raise InsufficientEnergy(
            f"quadratic approximation gave theta^2 = {q_plus:.3e} < 0")
    return _phi(math.sqrt(q_plus), x_dot, e_v, k_theta, params)
