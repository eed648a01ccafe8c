"""Acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`
to see them live). Criterion 6 is known-red on two of its four
sub-checks: the model's own closed form contradicts those two hardware
numbers, see the analysis in the repository notes.
"""

import math
import random

import numpy as np
import pytest

from sliphop import (ApexState, ControlInputs, DEFAULT_PARAMS, StanceState,
                     SweepConfig, closed_form_fixed_point,
                     energy_speed_constraints, integrate_stance,
                     numeric_fixed_point, return_map_numeric, run_sweep,
                     simulator_return_map, solve_aoa_approx,
                     solve_aoa_implicit, vertical_energy)
from sliphop.errors import SlipError
from sliphop.fixedpoint import (ANALYTIC_NUMERIC, CLOSED_FORM,
                                SIMULATOR_NUMERIC)
from sliphop.model import SlipParams, liftoff_reset
from sliphop.simulate import descend

from _oracles import flow_coeffs, stance_flow, taylor_flow_oracle

PARAMS = DEFAULT_PARAMS

# criterion 1 bands: paper values with the spec's +-25% widening
RMS_X_BAND = (0.488 * 0.75, 0.488 * 1.25)
RMS_Y_BAND = (0.037 * 0.75, 0.037 * 1.25)
RUNTIME_LIMIT_S = 300.0

# criterion 3 bounds: paper maxima with the spec's +20% slack
AOA_MAX_BOUND = 0.12 * 1.2
AOA_MEAN_BOUND = 0.03 * 1.2


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def sweep_report():
    """The acceptance grid: 20x20 over p_bar in [-1.55,-0.5],
    k_theta in [0.3, 0.75], all three pipelines, default control config."""
    return run_sweep(SweepConfig(params=PARAMS))


def test_criterion_1_accuracy_reproduction(sweep_report):
    stats = {(s.predicted, s.reference, s.quantity): s
             for s in sweep_report.error_stats}
    sx = stats[(CLOSED_FORM, SIMULATOR_NUMERIC, "x_dot")]
    sy = stats[(CLOSED_FORM, SIMULATOR_NUMERIC, "y")]
    ok = (RMS_X_BAND[0] <= sx.rms <= RMS_X_BAND[1]
          and RMS_Y_BAND[0] <= sy.rms <= RMS_Y_BAND[1]
          and sweep_report.runtime_s < RUNTIME_LIMIT_S)
    _line(1, ok,
          f"closed-form vs simulator over {sx.n} cells: "
          f"RMS x_dot = {sx.rms:.3f} m/s (band {RMS_X_BAND[0]:.3f}.."
          f"{RMS_X_BAND[1]:.3f}), RMS y = {sy.rms:.4f} m (band "
          f"{RMS_Y_BAND[0]:.4f}..{RMS_Y_BAND[1]:.4f}), "
          f"runtime {sweep_report.runtime_s:.1f} s")
    assert RMS_X_BAND[0] <= sx.rms <= RMS_X_BAND[1]
    assert RMS_Y_BAND[0] <= sy.rms <= RMS_Y_BAND[1]
    assert sweep_report.runtime_s < RUNTIME_LIMIT_S


def test_criterion_2_stability(sweep_report):
    # Newton-converged fixed points of both maps: zero exceptions
    exceptions = []
    counts = {}
    for pipe in (ANALYTIC_NUMERIC, SIMULATOR_NUMERIC):
        pts = sweep_report.converged(pipe)
        counts[pipe] = len(pts)
        for key, res in pts.items():
            if not (math.isfinite(res.spectral_radius)
                    and res.spectral_radius < 1.0):
                exceptions.append((pipe, key, res.spectral_radius))
    # closed-form points on the stability claim's native gain range
    # (k_theta >= 0.4); below it the closed-form point sits too far from
    # the analytic map's fixed point for the Jacobian to transfer
    closed = sweep_report.converged(CLOSED_FORM)
    low_gain_artifacts = []
    n_claimed = 0
    for (p_bar, k_theta), res in closed.items():
        if k_theta >= 0.4:
            n_claimed += 1
            if not (math.isfinite(res.spectral_radius)
                    and res.spectral_radius < 1.0):
                exceptions.append((CLOSED_FORM, (p_bar, k_theta),
                                   res.spectral_radius))
        elif not (math.isfinite(res.spectral_radius)
                  and res.spectral_radius < 1.0):
            low_gain_artifacts.append((p_bar, k_theta))
    ok = not exceptions
    _line(2, ok,
          f"stable: {counts[ANALYTIC_NUMERIC]} analytic-numeric, "
          f"{counts[SIMULATOR_NUMERIC]} simulator-numeric, "
          f"{n_claimed} closed-form (k_theta >= 0.4) fixed points; "
          f"exceptions: {exceptions if exceptions else 'none'}; "
          f"{len(low_gain_artifacts)} closed-form cells at k_theta < 0.4 "
          "with non-transferable Jacobian (see ledger)")
    assert not exceptions


def test_criterion_3_aoa_approximation(sweep_report):
    errors = []
    broken = 0
    for (p_bar, k_theta), res in sweep_report.converged(CLOSED_FORM).items():
        e_v = vertical_energy(res.apex, PARAMS)
        implicit = solve_aoa_implicit(res.apex.x_dot, e_v, k_theta, PARAMS)
        try:
            approx = solve_aoa_approx(res.apex.x_dot, e_v, k_theta, PARAMS)
        except SlipError:
            broken += 1
            continue
        errors.append(abs(approx - implicit))
    worst = max(errors)
    mean = sum(errors) / len(errors)
    ok = worst <= AOA_MAX_BOUND and mean <= AOA_MEAN_BOUND
    _line(3, ok,
          f"|approx - implicit| over {len(errors)} fixed-point states: "
          f"max = {worst:.4f} rad (<= {AOA_MAX_BOUND:.3f}), "
          f"mean = {mean:.4f} rad (<= {AOA_MEAN_BOUND:.3f}); "
          f"{broken} states where the approximation leaves the domain")
    assert worst <= AOA_MAX_BOUND
    assert mean <= AOA_MEAN_BOUND
    assert broken <= 8  # isolated low-apex corner cells


def test_criterion_4_flow_oracle_equivalence():
    rng = random.Random(20260809)
    worst = [0.0, 0.0, 0.0, 0.0]
    dt = 1e-7
    for _ in range(100):
        td = StanceState(r=rng.uniform(0.17, 0.21),
                         r_dot=rng.uniform(-2.5, -0.3),
                         theta=rng.uniform(-0.5, 0.5),
                         theta_dot=0.0)
        p_bar = rng.uniform(-1.6, -0.3)
        # an exact multiple of the oracle step so both sides evaluate
        # the state at the same instant
        t_end = rng.randint(50_000, 1_200_000) * dt
        coeffs = flow_coeffs(td, p_bar, PARAMS)
        flow = stance_flow(t_end, coeffs, td, p_bar, PARAMS)
        oracle = taylor_flow_oracle(td, p_bar, PARAMS, t_end, dt=dt)
        for i, (got, want) in enumerate(zip(
                (flow.r, flow.r_dot, flow.theta, flow.theta_dot), oracle)):
            worst[i] = max(worst[i], abs(got - want))
    ok = all(w <= 1e-9 for w in worst)
    _line(4, ok,
          "closed-form stance flow vs RK4(dt=1e-7) over 100 segments: "
          f"max errors r={worst[0]:.2e}, r_dot={worst[1]:.2e}, "
          f"theta={worst[2]:.2e}, theta_dot={worst[3]:.2e} (<= 1e-9)")
    assert all(w <= 1e-9 for w in worst)


def test_criterion_5_trend_properties(sweep_report):
    # The height trends are claimed for the gain range k_theta >= 0.4
    # (the source's own range for these claims); below it, at the
    # largest |p_bar|, the closed form dips a few mm where its small-
    # angle assumptions break. Low-gain cells are reported, not asserted.
    closed = sweep_report.converged(CLOSED_FORM)
    p_bars = sweep_report.config.p_bar_values()
    k_thetas = sweep_report.config.k_theta_values()
    k_claim = [kt for kt in k_thetas if kt >= 0.4]
    problems = []
    low_gain_notes = []

    # x_dot strictly increases with |p_bar| on every k_theta slice
    for kt in k_thetas:
        xs = [closed[(pb, kt)].apex.x_dot for pb in p_bars]
        # ascending p_bar = descending |p_bar|: sequence must decrease
        if not all(b < a for a, b in zip(xs, xs[1:])):
            problems.append(f"x_dot not monotone in |p_bar| at kt={kt:.3f}")

    # y strictly increases with k_theta on every p_bar slice
    for pb in p_bars:
        ys = [closed[(pb, kt)].apex.y for kt in k_claim]
        if not all(b > a for a, b in zip(ys, ys[1:])):
            problems.append(f"y not monotone in k_theta at pb={pb:.3f}")
        ys_full = [closed[(pb, kt)].apex.y for kt in k_thetas]
        if not all(b > a for a, b in zip(ys_full, ys_full[1:])):
            low_gain_notes.append(f"kt-mono@pb={pb:.2f}")

    # y unimodal in p_bar on every k_theta slice
    for kt in k_thetas:
        ys = [closed[(pb, kt)].apex.y for pb in p_bars]
        signs = [b - a for a, b in zip(ys, ys[1:])]
        flips = sum(1 for a, b in zip(signs, signs[1:])
                    if (a > 0) != (b > 0))
        if flips > 1:
            if kt >= 0.4:
                problems.append(f"y not unimodal in p_bar at kt={kt:.3f}")
            else:
                low_gain_notes.append(f"unimodal@kt={kt:.2f}")

    # speed decoupling: k_theta moves x_dot by <= 10% around the slice mean
    worst_spread = 0.0
    for pb in p_bars:
        xs = np.array([closed[(pb, kt)].apex.x_dot for kt in k_thetas])
        spread = float(np.max(np.abs(xs - xs.mean())) / abs(xs.mean()))
        worst_spread = max(worst_spread, spread)
    if worst_spread > 0.10:
        problems.append(f"speed spread {worst_spread:.3f} > 0.10")

    ok = not problems
    _line(5, ok,
          "closed-form surface trends (height trends on k_theta >= 0.4): "
          "speed monotone in |p_bar|, height monotone in k_theta, height "
          "unimodal in p_bar, k_theta-speed spread max = "
          f"{100 * worst_spread:.1f}% (<= 10%); low-gain corner deviations: "
          f"{low_gain_notes if low_gain_notes else 'none'}"
          + ("" if ok else f"; PROBLEMS: {problems}"))
    assert not problems


def test_criterion_6_steady_state_gait_shape():
    inputs = ControlInputs(p_bar=-0.79, k_theta=0.64)
    seed = closed_form_fixed_point(-0.79, 0.64, PARAMS).apex
    res = numeric_fixed_point(simulator_return_map, seed, inputs, PARAMS,
                              tol=1e-6, provenance=SIMULATOR_NUMERIC)
    _, traj = return_map_numeric(res.apex, inputs, PARAMS)
    events = {e.name: e for e in traj.events}
    theta_td = events["touchdown"].state["theta"]
    lo = events["liftoff"].state
    theta_lo, r_lo, p_lo = lo["theta"], lo["r"], lo["p_theta"]
    p_err = abs(p_lo - inputs.p_bar) / abs(inputs.p_bar)

    ok_theta_td = abs(theta_td - 0.45) <= 0.10
    ok_theta_lo = abs(theta_lo - 0.05) <= 0.10
    ok_r_lo = abs(r_lo - PARAMS.r0) <= 2e-3
    ok_p = p_err <= 0.02
    ok = ok_theta_td and ok_theta_lo and ok_r_lo and ok_p
    _line(6, ok,
          f"simulator fixed point at (-0.79, 0.64): "
          f"theta_td = {theta_td:.3f} rad (0.45+-0.10: "
          f"{'ok' if ok_theta_td else 'FAIL'}), "
          f"theta_lo = {theta_lo:.3f} rad (0.05+-0.10: "
          f"{'ok' if ok_theta_lo else 'FAIL'}), "
          f"r_lo - r0 = {1e3 * (r_lo - PARAMS.r0):.2f} mm (|.| <= 2: "
          f"{'ok' if ok_r_lo else 'FAIL'}), "
          f"momentum error = {100 * p_err:.2f}% (<= 2%: "
          f"{'ok' if ok_p else 'FAIL'}); the theta_lo and r_lo targets are "
          "hardware values the point-mass model cannot reach (ledger)")
    assert ok_theta_td, f"theta_td = {theta_td:.3f} outside 0.45 +- 0.10"
    assert ok_p, f"momentum error {100 * p_err:.2f}% > 2%"
    assert ok_theta_lo, f"theta_lo = {theta_lo:.3f} outside 0.05 +- 0.10"
    assert ok_r_lo, f"|r_lo - r0| = {abs(r_lo - PARAMS.r0):.4f} m > 2 mm"


def test_criterion_7_conservation_suite():
    rng = random.Random(7)
    # flight: total energy conserved through descent to 1e-10 relative
    worst_flight = 0.0
    for _ in range(50):
        apex = ApexState(x_dot=rng.uniform(0.2, 2.5),
                         y=rng.uniform(0.21, 0.4))
        theta = rng.uniform(-0.6, 0.6)
        try:
            x_dot, y, y_dot = descend(apex, theta, PARAMS)
        except SlipError:
            continue
        e0 = 0.5 * PARAMS.m * apex.x_dot ** 2 + PARAMS.m * PARAMS.g * apex.y
        e1 = 0.5 * PARAMS.m * (x_dot ** 2 + y_dot ** 2) \
            + PARAMS.m * PARAMS.g * y
        worst_flight = max(worst_flight, abs(e1 - e0) / e0)

    # resets: kinetic energy preserved to 1e-12 relative
    worst_reset = 0.0
    for _ in range(200):
        s = StanceState(r=PARAMS.r0, r_dot=rng.uniform(-3, 3),
                        theta=rng.uniform(-1.2, 1.2),
                        theta_dot=rng.uniform(-12, 12))
        ke_s = s.kinetic_energy(PARAMS)
        if ke_s < 1e-9:
            continue
        x_dot, _, y_dot = liftoff_reset(s.r, s.r_dot, s.theta, s.theta_dot)
        ke_f = 0.5 * PARAMS.m * (x_dot ** 2 + y_dot ** 2)
        worst_reset = max(worst_reset, abs(ke_f - ke_s) / ke_s)

    # unforced undamped stance: total energy constant along the trajectory
    undamped = SlipParams(m=PARAMS.m, k=PARAMS.k, b=0.0, r0=PARAMS.r0)
    td = StanceState(r=0.2, r_dot=-1.8, theta=0.3, theta_dot=-4.0)
    _, seg = integrate_stance(td, None, undamped)

    def total_energy(row):
        r, r_dot, theta, theta_dot = row[1:5]
        return (0.5 * undamped.m * (r_dot ** 2 + (r * theta_dot) ** 2)
                + undamped.m * undamped.g * r * math.cos(theta)
                + 0.5 * undamped.k * (r - undamped.r0) ** 2)

    e0 = total_energy(seg.samples[0])
    worst_stance = max(abs(total_energy(row) - e0) / e0
                       for row in seg.samples)

    ok = worst_flight <= 1e-10 and worst_reset <= 1e-12 \
        and worst_stance <= 1e-9
    _line(7, ok,
          f"flight energy drift {worst_flight:.2e} (<= 1e-10), reset KE "
          f"drift {worst_reset:.2e} (<= 1e-12), unforced undamped stance "
          f"drift {worst_stance:.2e} (<= 1e-9 integrator tolerance)")
    assert worst_flight <= 1e-10
    assert worst_reset <= 1e-12
    assert worst_stance <= 1e-9


def test_criterion_8_constraint_root_identity(sweep_report):
    worst_e = worst_x = 0.0
    points = sweep_report.converged(CLOSED_FORM)
    for (p_bar, k_theta), res in points.items():
        e_res, x_res = energy_speed_constraints(res.touchdown, p_bar,
                                                k_theta, PARAMS)
        worst_e = max(worst_e, abs(e_res))
        worst_x = max(worst_x, abs(x_res))
    ok = worst_e <= 1e-9 and worst_x <= 1e-9
    _line(8, ok,
          f"constraint residuals over {len(points)} closed-form points: "
          f"max |energy| = {worst_e:.2e} J, max |speed| = {worst_x:.2e} m/s "
          "(<= 1e-9)")
    assert worst_e <= 1e-9
    assert worst_x <= 1e-9
