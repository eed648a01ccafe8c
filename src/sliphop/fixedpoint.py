"""Gait fixed points and their stability.

Three routes to a steady hop, named by the pipeline constants: the
closed-form quadratic solution of the touchdown energy/speed
constraints, Newton iteration on the analytic return map, and Newton
iteration on the full simulator map. numeric_fixed_point takes any
apex return map; harness.solve_point picks each pipeline's map and
tolerance. Stability is the spectral radius of the 2x2 apex return-map
Jacobian (central finite differences), held as a pair of float rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .analytic import (return_map_analytic, simplified_map_constants,
                       theta_offset)
from .errors import (GaitFailure, IllConditioned, NegativeDiscriminant,
                     NoConvergence, NonPhysical, NoRealFixedPoint, SlipError)
from .model import (ApexState, ControlInputs, SlipParams, check_stance,
                    liftoff_reset)
from .numerics import quadratic_roots, solve_2x2, spectral_radius_2x2
from .simulate import ascend

CLOSED_FORM = "closed-form"
ANALYTIC_NUMERIC = "analytic-numeric"
SIMULATOR_NUMERIC = "simulator-numeric"

ReturnMap = Callable[[ApexState, ControlInputs, SlipParams], ApexState]
Jacobian = tuple[tuple[float, float], tuple[float, float]]  # ((a, b), (c, d))

FD_STEP = 1e-6  # map Jacobian step: h = max(FD_STEP, FD_STEP*|z_i|)


@dataclass(frozen=True)
class TouchdownFixedPoint:
    """Touchdown-coordinate fixed point (r_dot, theta, theta_dot) plus the
    leg-versus-velocity offset angle that generated it."""

    r_dot_td: float
    theta_td: float
    theta_dot_td: float
    theta_offset: float


@dataclass
class FixedPointResult:
    """A gait fixed point with its local stability information.

    jacobian/spectral_radius are NaN-filled when the return map could
    not be evaluated around the apex point (stable is then False, and
    the output writers report the verdict as unknown);
    residual is the infinity norm of P(z*) - z* under the map that
    produced (or checked) the point.
    """

    apex: ApexState
    touchdown: TouchdownFixedPoint | None
    jacobian: Jacobian
    spectral_radius: float
    stable: bool
    provenance: str
    residual: float
    newton_steps: int = 0


def _map_jacobian(return_map: ReturnMap, z: ApexState,
                  inputs: ControlInputs, params: SlipParams,
                  ) -> Jacobian:
    """Central-difference Jacobian of the apex map at z, as rows of floats.

    Step h = max(FD_STEP, FD_STEP*|z_i|) per component. Raises
    IllConditioned when a difference column is pure noise.
    """
    z0 = (z.x_dot, z.y)
    cols = []
    for j in range(2):
        h = max(FD_STEP, FD_STEP * abs(z0[j]))
        zp = list(z0)
        zp[j] += h
        zm = list(z0)
        zm[j] -= h
        pp = return_map(ApexState(*zp), inputs, params)
        pm = return_map(ApexState(*zm), inputs, params)
        dx = pp.x_dot - pm.x_dot
        dy = pp.y - pm.y
        if max(abs(dx), abs(dy)) < 1e-13:
            raise IllConditioned(
                f"column {j} difference below noise floor at h = {h:.1e}")
        # divide by the realized step so linear maps come out exact
        denom = zp[j] - zm[j]
        cols.append((dx / denom, dy / denom))
    return (cols[0][0], cols[1][0]), (cols[0][1], cols[1][1])


def stability(return_map: ReturnMap, z_star: ApexState,
              inputs: ControlInputs, params: SlipParams,
              ) -> tuple[Jacobian, float, bool]:
    """Return-map Jacobian at a fixed point, its spectral radius, and the
    stability verdict (spectral radius < 1)."""
    jac = _map_jacobian(return_map, z_star, inputs, params)
    rho = spectral_radius_2x2(*jac[0], *jac[1])
    return jac, rho, rho < 1.0


def _stability_or_nan(return_map: ReturnMap, z: ApexState,
                      inputs: ControlInputs, params: SlipParams,
                      ) -> tuple[Jacobian, float, bool]:
    try:
        return stability(return_map, z, inputs, params)
    except SlipError:
        return ((math.nan, math.nan), (math.nan, math.nan)), math.nan, False


def closed_form_fixed_point(p_bar: float, k_theta: float,
                            params: SlipParams) -> FixedPointResult:
    """Closed-form gait fixed point from the touchdown constraints.

    The flight-conservation constraints (energy and fore-aft speed equal
    at touchdown and liftoff) are quadratic in the touchdown state once
    the stance map is affine; r_dot_td takes the negative root of the
    energy quadratic, theta_td the positive root of the speed quadratic,
    and theta_dot_td follows from the offset-angle relation
    theta_dot = -r_dot/r0 * tan(theta_offset). The apex point is the
    touchdown state run backward through the model's own laws: the
    liftoff reset inverts the touchdown reset, and the descent reversed
    in time is an ascent. Stability is evaluated on the analytic return
    map at the apex.

    Raises NoRealFixedPoint when a constraint quadratic has no real
    root, NonPhysical when the chosen branch is not a descending-
    touchdown gait (including a touchdown angle at or past horizontal),
    ValueError when ControlInputs rejects (p_bar, k_theta). No silent
    branch swapping.
    """
    inputs = ControlInputs(p_bar=p_bar, k_theta=k_theta)
    m, r0 = params.m, params.r0
    t_off = theta_offset(p_bar, k_theta)
    tan_off = math.tan(t_off)
    con = simplified_map_constants(p_bar, k_theta, params)
    c1, c2, c3, c4 = con.c1, con.c2, con.c3, con.c4

    # energy constraint, quadratic in r_dot_td
    a_r = 0.5 * m * (1.0 - c1 * c1 + tan_off * tan_off)
    b_r = -c1 * c2 * m
    c_r = -p_bar * p_bar / (2.0 * m * r0 * r0) - 0.5 * m * c2 * c2
    try:
        _, r_dot = quadratic_roots(a_r, b_r, c_r)  # Q- branch
    except NegativeDiscriminant as err:
        raise NoRealFixedPoint(f"energy quadratic: {err}") from err
    if r_dot >= 0.0:
        raise NonPhysical(f"r_dot_td = {r_dot:.4f} >= 0 on the Q- branch")

    # speed constraint, quadratic in theta_td
    p_over = p_bar / (m * r0)
    d = c1 * r_dot + c2
    gsl = c3 * r_dot + c4
    a_t = -0.5 * (r_dot * tan_off + p_over)
    b_t = -r_dot - p_over * gsl + d
    c_t = r_dot * tan_off + p_over * (1.0 - 0.5 * gsl * gsl) + d * gsl
    try:
        theta_td, _ = quadratic_roots(a_t, b_t, c_t)  # Q+ branch
    except NegativeDiscriminant as err:
        raise NoRealFixedPoint(f"speed quadratic: {err}") from err
    if abs(theta_td) >= 0.5 * math.pi:
        raise NonPhysical(
            f"theta_td = {theta_td:.4f} rad on the Q+ branch puts the toe "
            "at or above the hip")

    theta_dot = -r_dot / r0 * tan_off
    touchdown = TouchdownFixedPoint(r_dot_td=r_dot, theta_td=theta_td,
                                    theta_dot_td=theta_dot,
                                    theta_offset=t_off)

    # backward in time: the inverse of the touchdown reset is the liftoff
    # reset, and the descent run backward is an ascent
    check_stance(r0, r_dot, theta_td, theta_dot)
    x_dot, y, y_dot = liftoff_reset(r0, r_dot, theta_td, theta_dot)
    if y_dot >= 0.0:
        raise NonPhysical(f"touchdown y_dot = {y_dot:.4f} >= 0")
    apex = ascend(x_dot, y, -y_dot, params)
    if apex.y <= y:
        raise NonPhysical(f"apex height {apex.y:.4f} <= touchdown height")

    jac, rho, stable = _stability_or_nan(return_map_analytic, apex,
                                         inputs, params)
    try:
        nxt = return_map_analytic(apex, inputs, params)
        residual = max(abs(nxt.x_dot - apex.x_dot), abs(nxt.y - apex.y))
    except SlipError:
        residual = math.nan
    return FixedPointResult(apex=apex, touchdown=touchdown, jacobian=jac,
                            spectral_radius=rho, stable=stable,
                            provenance=CLOSED_FORM, residual=residual)


def energy_speed_constraints(candidate: TouchdownFixedPoint, p_bar: float,
                             k_theta: float, params: SlipParams,
                             ) -> tuple[float, float]:
    """Residuals of the two touchdown fixed-point constraints.

    Returns (E_td - E_lo, x_dot_td - x_dot_lo) evaluated with the same
    frozen stance-map constants and small-angle forms the closed-form
    solution uses; its output zeroes both by construction.
    """
    m, r0 = params.m, params.r0
    con = simplified_map_constants(p_bar, k_theta, params)
    tan_off = math.tan(candidate.theta_offset)
    r_dot, theta = candidate.r_dot_td, candidate.theta_td

    e_td = 0.5 * m * r_dot * r_dot + 0.5 * m * (r_dot * tan_off) ** 2
    e_lo = 0.5 * m * (con.c1 * r_dot + con.c2) ** 2 \
        + p_bar * p_bar / (2.0 * m * r0 * r0)

    gsl = theta + con.c3 * r_dot + con.c4
    x_td = -r_dot * theta + r_dot * tan_off * (1.0 - 0.5 * theta * theta)
    x_lo = (-p_bar / (m * r0)) * (1.0 - 0.5 * gsl * gsl) \
        - (con.c1 * r_dot + con.c2) * gsl
    return e_td - e_lo, x_td - x_lo


def numeric_fixed_point(return_map: ReturnMap, seed: ApexState,
                        inputs: ControlInputs, params: SlipParams,
                        tol: float = 1e-9, max_steps: int = 50,
                        prewarm: int = 0,
                        provenance: str = ANALYTIC_NUMERIC,
                        ) -> FixedPointResult:
    """Newton fixed point of an apex return map.

    Newton iteration on the residual F(z) = P(z) - z with a central
    finite-difference Jacobian (step max(1e-6, 1e-6|z|) per component),
    converged when the residual infinity norm is at or below tol. A
    backtracking halver guards steps that leave the gait's domain;
    prewarm > 0 applies that many plain map iterations first (the fixed
    points are attracting), which robustifies distant seeds. Raises
    NoConvergence after max_steps, GaitFailure when a map evaluation
    fails and backtracking cannot recover.

    The iterate is a pair of Python floats whatever the seed's scalar
    type; (J - I) s = r is solved in closed form. A line-search step is
    accepted when its residual's Euclidean norm falls (or once the step
    is down to a quarter), and the map value of the accepted candidate
    is the next iteration's P(z), so no apex point is evaluated twice.
    """
    def try_eval(x: float, y: float) -> tuple[float, float] | None:
        try:
            nxt = return_map(ApexState(x, y), inputs, params)
        except (SlipError, ValueError):
            return None
        return nxt.x_dot, nxt.y

    x, y = float(seed.x_dot), float(seed.y)
    for _ in range(prewarm):
        nxt = try_eval(x, y)
        if nxt is None:
            break
        x, y = nxt

    try:
        nxt = return_map(ApexState(x, y), inputs, params)
    except SlipError as err:
        raise GaitFailure(
            f"map evaluation failed at z = ({x:.4f}, {y:.4f}): {err}",
            phase=err.phase) from err
    mapped = nxt.x_dot, nxt.y  # P(x, y); later set by each accepted step
    steps = 0
    for steps in range(max_steps + 1):
        rx, ry = mapped[0] - x, mapped[1] - y
        res_norm = max(abs(rx), abs(ry))
        if res_norm <= tol:
            z_star = ApexState(x, y)
            jac, rho, stable = _stability_or_nan(return_map, z_star,
                                                 inputs, params)
            return FixedPointResult(apex=z_star, touchdown=None,
                                    jacobian=jac, spectral_radius=rho,
                                    stable=stable, provenance=provenance,
                                    residual=res_norm, newton_steps=steps)
        if steps == max_steps:
            break
        try:
            (a, b), (c, d) = _map_jacobian(return_map, ApexState(x, y),
                                           inputs, params)
        except SlipError as err:
            raise GaitFailure(f"Jacobian evaluation failed: {err}",
                              phase=err.phase) from err
        try:
            sx, sy = solve_2x2(a - 1.0, b, c, d - 1.0, rx, ry)
        except ZeroDivisionError as err:
            raise IllConditioned("singular Newton system") from err
        res_len = math.hypot(rx, ry)
        lam = 1.0
        for _ in range(8):
            cx, cy = x - lam * sx, y - lam * sy
            mapped = try_eval(cx, cy)
            if mapped is not None and (
                    math.hypot(mapped[0] - cx, mapped[1] - cy) < res_len
                    or lam <= 0.25):
                x, y = cx, cy
                break
            lam *= 0.5
        else:
            raise GaitFailure(
                f"no acceptable Newton step from z = ({x:.4f}, {y:.4f})")
    raise NoConvergence(
        f"residual {res_norm:.2e} > {tol:.1e} after {max_steps} Newton steps")
