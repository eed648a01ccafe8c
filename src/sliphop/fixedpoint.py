"""Gait fixed points and their stability.

Three routes to a steady hop, named by the pipeline constants: the
closed-form quadratic solution of the touchdown energy/speed
constraints, and Broyden's quasi-Newton iteration on the analytic
return map or on the full simulator map. numeric_fixed_point takes any
apex return map and, when the map has one, its Jacobian function;
harness.solve_point picks each pipeline's map, Jacobian and tolerance,
and harness.ALL_PIPELINES lists the three, cheapest first.
Stability is the spectral radius of the 2x2 apex return-map Jacobian,
held as a pair of float rows: the exact Jacobian of the analytic map
(analytic.return_map_analytic_jacobian) for the closed form and
analytic-numeric, central finite differences for a map without a
Jacobian function, such as the simulator's. Every FixedPointResult
carries it, so a result seeds the next solve with its apex and a start
matrix for Broyden's method. A start matrix borrowed from another map,
such as the analytic Jacobian a simulator solve starts from, gives way
to the secant fit of two steps once they span the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .analytic import (Jacobian, return_map_analytic,
                       return_map_analytic_jacobian, simplified_map_constants,
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
# a return map's Jacobian function, called with the map's own arguments
MapJacobian = Callable[[ApexState, ControlInputs, SlipParams], Jacobian]

FD_STEP = 1e-6  # map Jacobian step: h = max(FD_STEP, FD_STEP*|z_i|)
MAX_STALLS = 3  # consecutive non-reducing Newton steps before giving up
SECANT_SPAN = 1e-3  # least |sin| between two steps that fit J - I to both


@dataclass(frozen=True)
class TouchdownFixedPoint:
    """Touchdown-coordinate fixed point (r_dot, theta, theta_dot) plus the
    leg-versus-velocity offset angle that generated it."""

    r_dot_td: float
    theta_td: float
    theta_dot_td: float
    theta_offset: float


class FixedPointResult(NamedTuple):
    """A gait fixed point with its local stability information.

    jacobian is the map's Jacobian at apex: exact on the analytic map
    (closed form and analytic-numeric), central differences on the
    simulator map. jacobian/spectral_radius are NaN-filled when it could
    not be evaluated or is not finite there (stable is then False, and
    the output writers report the verdict as unknown);
    residual is the infinity norm of P(z*) - z* under the map that
    produced (or checked) the point; newton_steps counts the Broyden
    steps numeric_fixed_point took to reach it.
    """

    apex: ApexState
    touchdown: TouchdownFixedPoint | None
    jacobian: Jacobian
    spectral_radius: float
    stable: bool
    provenance: str
    residual: float
    newton_steps: int = 0


def _fd_jacobian(return_map: ReturnMap, z: ApexState,
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
              map_jacobian: MapJacobian | None = None,
              ) -> tuple[Jacobian, float, bool]:
    """Return-map Jacobian at a fixed point, its spectral radius, and the
    stability verdict (spectral radius < 1).

    The Jacobian is map_jacobian(z_star, inputs, params) when given, the
    map's own (the caller has evaluated the map at z_star), and the
    central-difference Jacobian of return_map otherwise. A NaN Jacobian
    gives a NaN spectral radius and the verdict False.
    """
    if map_jacobian is None:
        map_jacobian = partial(_fd_jacobian, return_map)
    jac = map_jacobian(z_star, inputs, params)
    rho = spectral_radius_2x2(*jac[0], *jac[1])
    return jac, rho, rho < 1.0


_NO_STABILITY = ((math.nan, math.nan), (math.nan, math.nan)), math.nan, False


def _stability_or_nan(return_map: ReturnMap, z: ApexState,
                      inputs: ControlInputs, params: SlipParams,
                      map_jacobian: MapJacobian | None,
                      ) -> tuple[Jacobian, float, bool]:
    try:
        return stability(return_map, z, inputs, params, map_jacobian)
    except SlipError:
        return _NO_STABILITY


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
    in time is an ascent. The residual is the analytic return map's at
    the apex, and stability its exact Jacobian there
    (return_map_analytic_jacobian), taken only once the map has
    evaluated: NaN, with the verdict unknown, when it failed.

    Raises NoRealFixedPoint when a constraint quadratic has no real
    root, NonPhysical when the chosen branch is not a descending-
    touchdown gait (including a touchdown angle at or past horizontal),
    ValueError when ControlInputs rejects (p_bar, k_theta). No silent
    branch swapping.
    """
    inputs = ControlInputs(p_bar=p_bar, k_theta=k_theta)
    p_bar, k_theta = inputs.p_bar, inputs.k_theta
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

    try:
        nxt = return_map_analytic(apex, inputs, params)
    except SlipError:
        residual = math.nan
        jac, rho, stable = _NO_STABILITY
    else:
        residual = max(abs(nxt.x_dot - apex.x_dot), abs(nxt.y - apex.y))
        jac, rho, stable = stability(return_map_analytic, apex, inputs,
                                     params, return_map_analytic_jacobian)
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


def _fresh_step(map_jacobian: MapJacobian, z: ApexState,
                inputs: ControlInputs, params: SlipParams, rx: float,
                ry: float):
    """J - I from the Jacobian at z, as (a, b, c, d), and the step it
    gives for the residual (rx, ry)."""
    try:
        (a, b), (c, d) = map_jacobian(z, inputs, params)
    except SlipError as err:
        raise GaitFailure(f"Jacobian evaluation failed: {err}",
                          phase=err.phase) from err
    jm = (a - 1.0, b, c, d - 1.0)
    if not all(map(math.isfinite, jm)):
        raise IllConditioned(
            f"map Jacobian not finite at z = ({z.x_dot:.4f}, {z.y:.4f})")
    try:
        return jm, solve_2x2(*jm, rx, ry)
    except ZeroDivisionError as err:
        raise IllConditioned("singular Newton system") from err


def _two_step_fit(jm: tuple[float, ...], last: tuple[float, ...],
                  dx: float, dy: float, fx: float, fy: float):
    """J - I fitted to the last step and this one, and this step's pair.

    last is the previous accepted step and its residual change
    (dx, dy, fx, fy), () before the first. When the two steps span the
    plane (|sin| of their angle at least SECANT_SPAN), J - I is the one
    matrix that maps both to their residual changes; otherwise jm, the
    rank-1 update, stands.
    """
    if last:
        px, py, pfx, pfy = last
        det = px * dy - py * dx
        if abs(det) >= SECANT_SPAN * math.hypot(px, py) * math.hypot(dx, dy):
            jm = ((pfx * dy - fx * py) / det, (fx * px - pfx * dx) / det,
                  (pfy * dy - fy * py) / det, (fy * px - pfy * dx) / det)
    return jm, (dx, dy, fx, fy)


def numeric_fixed_point(return_map: ReturnMap, seed: ApexState,
                        inputs: ControlInputs, params: SlipParams,
                        tol: float = 1e-9, max_steps: int = 50,
                        provenance: str = ANALYTIC_NUMERIC,
                        jacobian: Jacobian | None = None,
                        map_jacobian: MapJacobian | None = None,
                        ) -> FixedPointResult:
    """Broyden fixed point of an apex return map.

    Quasi-Newton iteration on the residual F(z) = P(z) - z, converged
    when the residual infinity norm is at or below tol. map_jacobian is
    the map's own Jacobian function, if it has one (for the analytic
    map, return_map_analytic_jacobian); it is called only at points
    where return_map has just evaluated, and without it the Jacobian is
    the central-difference one (step max(1e-6, 1e-6|z|) per component).
    The matrix A of J - I starts from jacobian, the map's Jacobian at or
    near the seed (a closed-form or a neighbouring fixed point's), when
    all its entries are finite; otherwise, as the Jacobian at the seed.
    Each step then updates it by Broyden's "good" rank-1 formula
    A += ((dF - A dz) dz^T) / (dz . dz), from the step dz actually taken
    and the change dF of the residual that the line search computed
    (C. G. Broyden, Math. Comp. 19, 1965), so an update costs no map
    evaluation. A jacobian given for a map without map_jacobian belongs
    to another map (the simulator's solves start from the analytic
    map's), and the rank-1 update keeps its error in every direction not
    yet stepped along; so there, once two consecutive steps span the
    plane (|sin| of their angle at least SECANT_SPAN), A is set to the
    one matrix that maps both to their dF (J. G. P. Barnes, Comput. J. 8,
    1965). The Jacobian is taken afresh at the new iterate when a step
    did not reduce the residual, and at the current one when A is
    singular (a singular start matrix included); that ends the two-step
    fit for the rest of the solve. newton_steps counts the steps taken.

    A backtracking halver guards steps that leave the gait's domain: a
    candidate is accepted when its residual's Euclidean norm falls (or
    once the step is down to a quarter), and the map value of the
    accepted candidate is the next iteration's P(z), so no apex point is
    evaluated twice. The iterate is a pair of Python floats whatever the
    seed's scalar type; A s = r is solved in closed form. Stability is
    the Jacobian at z*, not Broyden's matrix.

    Raises NoConvergence after max_steps, or once MAX_STALLS
    consecutive steps did not reduce the residual; GaitFailure when a map
    evaluation fails at the seed or in a difference, or when no
    line-search candidate is acceptable (tagged with the phase of the
    last candidate's failure, None when it failed its ApexState check);
    IllConditioned when a freshly taken Jacobian is not finite or
    leaves J - I singular.
    """
    # while A descends from a jacobian borrowed for a map that has no
    # Jacobian function: the last step and its residual change, () before
    # the first; None otherwise, and after any fresh Jacobian
    secant = None
    if map_jacobian is None:
        map_jacobian = partial(_fd_jacobian, return_map)
        secant = ()
    z = ApexState(float(seed.x_dot), float(seed.y))
    try:
        nxt = return_map(z, inputs, params)
    except SlipError as err:
        raise GaitFailure(
            f"map evaluation failed at z = ({z.x_dot:.4f}, {z.y:.4f}): "
            f"{err}", phase=err.phase) from err
    # P(z) - z and its 2-norm; then those of each accepted candidate
    rx, ry = nxt.x_dot - z.x_dot, nxt.y - z.y
    res_len = math.hypot(rx, ry)
    jm = None  # Broyden's J - I as (a, b, c, d); None: take it afresh
    if jacobian is not None:
        (a, b), (c, d) = jacobian
        if all(map(math.isfinite, (a, b, c, d))):
            jm = (float(a) - 1.0, float(b), float(c), float(d) - 1.0)
    stalls = 0  # consecutive accepted steps that did not reduce F
    for steps in range(max_steps + 1):
        res_norm = max(abs(rx), abs(ry))
        if res_norm <= tol:
            jac, rho, stable = _stability_or_nan(return_map, z, inputs,
                                                 params, map_jacobian)
            return FixedPointResult(apex=z, touchdown=None,
                                    jacobian=jac, spectral_radius=rho,
                                    stable=stable, provenance=provenance,
                                    residual=res_norm, newton_steps=steps)
        if stalls == MAX_STALLS:
            raise NoConvergence(
                f"residual {res_norm:.2e} > {tol:.1e}: {MAX_STALLS} "
                "consecutive Newton steps did not reduce it")
        if steps == max_steps:
            break
        if jm is not None:
            try:
                sx, sy = solve_2x2(*jm, rx, ry)
            except ZeroDivisionError:  # the last update made A singular
                jm = None
        if jm is None:
            secant = None
            jm, (sx, sy) = _fresh_step(map_jacobian, z, inputs, params, rx, ry)
        lam = 1.0
        for _ in range(8):
            cx, cy = z.x_dot - lam * sx, z.y - lam * sy
            try:
                cand = ApexState(cx, cy)
                nxt = return_map(cand, inputs, params)
            except (SlipError, ValueError) as err:
                phase = getattr(err, "phase", None)
            else:
                nrx, nry = nxt.x_dot - cx, nxt.y - cy
                new_len = math.hypot(nrx, nry)
                reduced = new_len < res_len
                if reduced or lam <= 0.25:
                    break
            lam *= 0.5
        else:
            raise GaitFailure(
                f"no acceptable Newton step from z = ({z.x_dot:.4f}, "
                f"{z.y:.4f})", phase=phase)
        stalls = 0 if reduced else stalls + 1
        if reduced:  # Broyden's update; dz != 0, as the residual moved
            dx, dy = cx - z.x_dot, cy - z.y
            dz2 = dx * dx + dy * dy
            a, b, c, d = jm
            ux = (nrx - rx - a * dx - b * dy) / dz2
            uy = (nry - ry - c * dx - d * dy) / dz2
            jm = (a + ux * dx, b + ux * dy, c + uy * dx, d + uy * dy)
            if secant is not None:
                jm, secant = _two_step_fit(jm, secant, dx, dy, nrx - rx,
                                           nry - ry)
        else:
            jm = None
        z, rx, ry, res_len = cand, nrx, nry, new_len
    raise NoConvergence(
        f"residual {res_norm:.2e} > {tol:.1e} after {max_steps} Newton steps")
