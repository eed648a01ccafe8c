import math
import random

import pytest

from sliphop import (ApexState, ControlInputs, NoLiftoffRoot, Overdamped,
                     SlipParams, StanceState, bottom_time,
                     closed_form_fixed_point, flow_coeffs, integrate_stance,
                     liftoff_time, liftoff_time_bisect, return_map_analytic,
                     simplified_map_constants, simplified_stance_map,
                     stance_flow)
from sliphop.analytic import (_gait_constants, flow_liftoff,
                              nominal_touchdown_r_dot)

from _oracles import _taylor_rk4, taylor_flow_oracle

GRID_P_BAR = (-1.55, -1.2, -0.85, -0.5)
GRID_K_THETA = (0.3, 0.5, 0.75)


def _td(r_dot=-1.8, theta=0.35, theta_dot=-0.5):
    return StanceState(r=0.2, r_dot=r_dot, theta=theta, theta_dot=theta_dot)


def _liftoff_time(c, p_bar, params):
    """liftoff_time at the gait's leg-force phase, as the stance map
    calls it."""
    return liftoff_time(c, params, _gait_constants(p_bar, params).psi4)


class TestFlowCoeffs:
    def test_reference_values(self, params):
        c = flow_coeffs(_td(), -1.0, params)
        assert c.omega == pytest.approx(37.62, abs=0.01)
        assert c.zeta == pytest.approx(0.0805, abs=1e-4)
        assert c.omega_d == pytest.approx(
            c.omega * math.sqrt(1.0 - c.zeta ** 2), rel=1e-14)
        assert c.m_amp == pytest.approx(math.hypot(c.a, c.b), rel=1e-14)

    def test_zero_momentum(self, params):
        c = flow_coeffs(_td(), 0.0, params)
        assert c.omega == pytest.approx(params.omega0, rel=1e-14)
        assert c.gamma == pytest.approx(c.omega ** 2 * params.r_g, rel=1e-14)

    def test_undamped_limit(self, undamped_params):
        c = flow_coeffs(_td(), -1.0, undamped_params)
        assert c.zeta == 0.0
        assert c.omega_d == c.omega
        assert c.psi2 == pytest.approx(-math.pi / 2.0, rel=1e-14)

    def test_overdamped_rejected(self):
        params = SlipParams(m=3.3, k=4000.0, b=300.0, r0=0.2)
        with pytest.raises(Overdamped):
            flow_coeffs(_td(), -1.0, params)


class TestStanceFlow:
    def test_initial_conditions(self, params):
        td = _td()
        c = flow_coeffs(td, -1.0, params)
        s0 = stance_flow(0.0, c, td, -1.0, params)
        assert s0.r == pytest.approx(td.r, rel=1e-12)
        assert s0.r_dot == pytest.approx(td.r_dot, rel=1e-12)
        assert s0.theta == pytest.approx(td.theta, rel=1e-12)

    def test_rejects_negative_time(self, params):
        td = _td()
        c = flow_coeffs(td, -1.0, params)
        with pytest.raises(ValueError, match="^t must be >= 0, got -0.001$"):
            stance_flow(-1e-3, c, td, -1.0, params)

    def test_pure_cosine_when_unforced(self, undamped_params):
        p = undamped_params
        td = StanceState(r=0.2, r_dot=-1.5, theta=0.0, theta_dot=0.0)
        c = flow_coeffs(td, 0.0, p)
        w = p.omega0
        for t in (0.01, 0.03, 0.06):
            s = stance_flow(t, c, td, 0.0, p)
            expect = p.r_g + (td.r - p.r_g) * math.cos(w * t) \
                + td.r_dot / w * math.sin(w * t)
            assert s.r == pytest.approx(expect, rel=1e-12)
            assert s.theta == 0.0

    def test_matches_rk4_oracle(self, params):
        # frozen from RK4 (dt = 1e-7) of the linearized dynamics
        td = _td()
        c = flow_coeffs(td, -1.0, params)
        s = stance_flow(0.05, c, td, -1.0, params)
        assert s.r == pytest.approx(0.16193327675800226, abs=1e-9)
        assert s.r_dot == pytest.approx(0.616090565916804, abs=1e-9)
        assert s.theta == pytest.approx(-0.15446508441652124, abs=1e-9)

    def test_exactly_solves_linearized_ode(self, params):
        # 4th-order central difference of the closed-form radial velocity
        # against the oscillator equation, 1000 random samples
        rng = random.Random(1)
        h = 5e-5
        worst = 0.0
        for _ in range(50):
            td = _td(r_dot=rng.uniform(-2.5, -0.3),
                     theta=rng.uniform(-0.4, 0.4))
            p_bar = rng.uniform(-1.6, -0.3)
            c = flow_coeffs(td, p_bar, params)
            for _ in range(20):
                t = rng.uniform(2 * h, 0.12)

                def rd(tt):
                    return stance_flow(tt, c, td, p_bar, params).r_dot

                r_ddot = (-rd(t + 2 * h) + 8.0 * rd(t + h)
                          - 8.0 * rd(t - h) + rd(t - 2 * h)) / (12.0 * h)
                s = stance_flow(t, c, td, p_bar, params)
                res = r_ddot + 2.0 * c.zeta * c.omega * s.r_dot \
                    + c.omega ** 2 * s.r - c.gamma
                worst = max(worst, abs(res))
        assert worst <= 1e-9

    def test_theta_is_integral_of_momentum_rate(self, params):
        # finite difference of theta(t) against the momentum expansion
        rng = random.Random(2)
        h = 1e-6
        for _ in range(200):
            td = _td(r_dot=rng.uniform(-2.5, -0.3))
            p_bar = rng.uniform(-1.6, -0.3)
            c = flow_coeffs(td, p_bar, params)
            t = rng.uniform(h, 0.1)
            sp = stance_flow(t + h, c, td, p_bar, params)
            sm = stance_flow(t - h, c, td, p_bar, params)
            s0 = stance_flow(t, c, td, p_bar, params)
            assert (sp.theta - sm.theta) / (2 * h) == pytest.approx(
                s0.theta_dot, abs=1e-6)

    def test_oracle_power_matches_its_step_loop(self, params):
        # criterion 4's oracle raises the one-step RK4 matrix to a power;
        # on short segments it must agree with stepping the same formulas
        rng = random.Random(4)
        for _ in range(4):
            td = StanceState(r=rng.uniform(0.17, 0.21),
                             r_dot=rng.uniform(-2.5, -0.3),
                             theta=rng.uniform(-0.5, 0.5), theta_dot=0.0)
            p_bar = rng.uniform(-1.6, -0.3)
            t_end = rng.randint(45_000, 55_000) * 1e-7
            loop = _taylor_rk4(td.r, td.r_dot, td.theta, params.m, params.k,
                               params.b, params.r0, params.g, p_bar, t_end,
                               1e-7)
            power = taylor_flow_oracle(td, p_bar, params, t_end, dt=1e-7)
            for got, want in zip(power, loop):
                assert got == pytest.approx(want, abs=1e-12)

    def test_theta_dot_matches_oracle(self, params):
        td = _td()
        c = flow_coeffs(td, -1.0, params)
        s = stance_flow(0.05, c, td, -1.0, params)
        oracle = taylor_flow_oracle(td, -1.0, params, 0.05, dt=1e-6)
        assert s.theta_dot == pytest.approx(oracle[3], abs=1e-8)

    def test_pinned_bit_exact(self, params):
        # frozen from stance_flow itself: any change to the flow
        # arithmetic, even its evaluation order, shows here
        td = _td()
        s = stance_flow(0.03, flow_coeffs(td, -1.0, params), td, -1.0, params)
        assert (s.r, s.r_dot, s.theta, s.theta_dot) == (
            0.16104017517872782, -0.5551436448407892, 0.06564975084716584,
            -10.875090532408969)


class TestLiftoffTime:
    def test_undamped_formula_is_exact(self, undamped_params):
        td = StanceState(r=0.2, r_dot=-3.0, theta=0.0, theta_dot=0.0)
        c = flow_coeffs(td, 0.0, undamped_params)
        t_lo = _liftoff_time(c, 0.0, undamped_params)
        t_oracle = liftoff_time_bisect(c, undamped_params)
        assert t_lo == pytest.approx(t_oracle, abs=1e-9)
        # fast compression limit: half period of the vertical spring
        assert t_lo == pytest.approx(math.pi / c.omega, rel=0.1)

    def test_ordering_over_grid(self, params):
        for p_bar in GRID_P_BAR:
            for k_theta in GRID_K_THETA:
                r_dot = nominal_touchdown_r_dot(p_bar, k_theta, params)
                c = flow_coeffs(StanceState(r=0.2, r_dot=r_dot, theta=0.0,
                                            theta_dot=0.0), p_bar, params)
                t_b = bottom_time(c)
                t_lo = _liftoff_time(c, p_bar, params)
                assert 0.0 < t_b < t_lo

    def test_against_bisection_oracle_over_grid(self, params):
        worst = 0.0
        for p_bar in GRID_P_BAR:
            for k_theta in GRID_K_THETA:
                r_dot = nominal_touchdown_r_dot(p_bar, k_theta, params)
                c = flow_coeffs(StanceState(r=0.2, r_dot=r_dot, theta=0.0,
                                            theta_dot=0.0), p_bar, params)
                worst = max(worst, abs(_liftoff_time(c, p_bar, params)
                                       - liftoff_time_bisect(c, params)))
        # only error source: exp(-zw*t_lo) ~ exp(-2zw*t_b) symmetry
        assert worst <= 5e-4

    def test_psi2_override_fails_oracle(self, params):
        # the undefined phase in the source formula: psi2 is NOT it
        td = _td()
        c = flow_coeffs(td, -1.0, params)
        t_oracle = liftoff_time_bisect(c, params)
        t_derived = _liftoff_time(c, -1.0, params)
        t_psi2 = liftoff_time(c, params, psi4=c.psi2)
        assert abs(t_derived - t_oracle) < 1e-4
        assert abs(t_psi2 - t_oracle) > 1e-2

    def test_derived_phase_small_damping_limit(self, params):
        td = _td()
        c = flow_coeffs(td, -1.0, params)
        psi4 = _gait_constants(-1.0, params).psi4
        approx = params.b * c.omega / params.k  # first order in b
        assert psi4 == pytest.approx(approx, rel=0.05)

    def test_no_root_for_vanishing_compression(self, params):
        c = flow_coeffs(StanceState(r=0.2, r_dot=-1e-4, theta=0.0,
                                    theta_dot=0.0), 0.0, params)
        with pytest.raises(NoLiftoffRoot):
            _liftoff_time(c, 0.0, params)


class TestStanceMapAnalytic:
    """The closed-form stance map, analytic.flow_liftoff: the liftoff
    state (r, r_dot, theta, theta_dot) from the touchdown leg state."""

    def test_symmetric_bounce(self, undamped_params):
        _, r_dot, theta, _ = flow_liftoff(0.2, -1.6, 0.0, 0.0,
                                          undamped_params)
        assert r_dot == pytest.approx(1.6, abs=1e-9)
        assert theta == 0.0

    def test_liftoff_force_small(self, params):
        r, r_dot, _, _ = flow_liftoff(0.2, -1.8, 0.4, -1.0, params)
        force = params.k * (r - params.r0) + params.b * r_dot
        # liftoff-time approximation error, tracked loosely
        assert abs(force) <= 5.0

    def test_agrees_with_simulator_where_exact(self, undamped_params):
        # b = 0, p_bar = 0, vertical: the linearization is exact
        td = StanceState(r=0.2, r_dot=-1.6, theta=0.0, theta_dot=0.0)
        r, r_dot, theta, _ = flow_liftoff(td.r, td.r_dot, td.theta, 0.0,
                                          undamped_params)
        lo_sim, _ = integrate_stance(td, None, undamped_params)
        assert r == pytest.approx(lo_sim.r, abs=1e-6)
        assert r_dot == pytest.approx(lo_sim.r_dot, abs=1e-6)
        assert theta == pytest.approx(lo_sim.theta, abs=1e-6)

    def test_model_error_against_simulator(self, params):
        # same touchdown, full simulator with momentum PID vs closed form;
        # the gap is the linearization error the accuracy table reports
        td = _td(r_dot=-1.7, theta=0.45, theta_dot=-3.0)
        _, r_dot, theta, _ = flow_liftoff(td.r, td.r_dot, td.theta, -1.0,
                                          params)
        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        lo_sim, _ = integrate_stance(td, inputs, params)
        assert r_dot == pytest.approx(lo_sim.r_dot, rel=0.30)
        assert theta == pytest.approx(lo_sim.theta, abs=0.25)


class TestSimplifiedStanceMap:
    def test_affine_structure(self, params):
        con = simplified_map_constants(-1.0, 0.5, params)
        td0 = StanceState(r=0.2, r_dot=0.0, theta=0.3, theta_dot=0.0)
        lo0 = simplified_stance_map(td0, -1.0, 0.5, params)
        assert lo0.r_dot == con.c2
        assert lo0.theta == pytest.approx(0.3 + con.c4, abs=1e-15)

    def test_second_differences_vanish(self, params):
        def themap(r_dot, theta):
            s = simplified_stance_map(
                StanceState(r=0.2, r_dot=r_dot, theta=theta, theta_dot=0.0),
                -1.0, 0.5, params)
            return s.r_dot, s.theta

        d = 0.05
        for rd, th in ((-1.5, 0.3), (-2.0, 0.1)):
            for axis in range(2):
                args_p = (rd + d, th) if axis == 0 else (rd, th + d)
                args_m = (rd - d, th) if axis == 0 else (rd, th - d)
                f_p = themap(*args_p)
                f_0 = themap(rd, th)
                f_m = themap(*args_m)
                for j in range(2):
                    second = f_p[j] - 2.0 * f_0[j] + f_m[j]
                    assert abs(second) <= 1e-12

    def test_liftoff_rate_uses_rest_length(self, params):
        lo = simplified_stance_map(_td(), -1.0, 0.5, params)
        assert lo.r == params.r0
        assert lo.theta_dot == pytest.approx(
            -1.0 / (params.m * params.r0 ** 2), rel=1e-14)

    def test_tracks_full_closed_form_at_nominal(self, params):
        # Assumption: frozen liftoff phase; deviation from the full
        # closed-form stance map stays within 15% per component
        for p_bar in GRID_P_BAR:
            for k_theta in GRID_K_THETA:
                r_dot = nominal_touchdown_r_dot(p_bar, k_theta, params)
                theta_td = k_theta * abs(p_bar) / 0.7 * math.pi / 4.0
                td = StanceState(r=0.2, r_dot=r_dot, theta=theta_td,
                                 theta_dot=0.0)
                _, r_dot_full, theta_full, _ = flow_liftoff(
                    td.r, td.r_dot, td.theta, p_bar, params)
                lo_aff = simplified_stance_map(td, p_bar, k_theta, params)
                assert lo_aff.r_dot == pytest.approx(r_dot_full, rel=0.15)
                assert abs(lo_aff.theta - theta_full) <= 0.15 * max(
                    1.0, abs(theta_full))


class TestReturnMapAnalytic:
    def test_near_fixed_point_residual(self, params):
        fp = closed_form_fixed_point(-1.0, 0.5, params)
        nxt = return_map_analytic(fp.apex, ControlInputs(-1.0, 0.5), params)
        # residual induced by the fixed-point assumptions (measured ~4%/7%)
        assert nxt.x_dot == pytest.approx(fp.apex.x_dot, rel=0.10)
        assert nxt.y == pytest.approx(fp.apex.y, rel=0.10)

    def test_failure_tagging(self, params):
        from sliphop.errors import SlipError
        with pytest.raises(SlipError) as exc:
            return_map_analytic(ApexState(x_dot=2.8, y=0.16),
                                ControlInputs(-0.4, 0.3), params)
        assert exc.value.phase in ("aoa", "descent", "touchdown", "stance",
                                   "ascent")

    def test_builds_only_its_apex_state(self, params, monkeypatch):
        # the phases pass floats: one ApexState per hop, no other state
        built = []

        def counting(check):
            def post_init(state):
                built.append(type(state))
                check(state)
            return post_init

        apex = ApexState(1.5, 0.24)
        for cls in (ApexState, StanceState):
            monkeypatch.setattr(cls, "__post_init__",
                                counting(cls.__post_init__))
        nxt = return_map_analytic(apex, ControlInputs(-1.0, 0.5), params)
        assert built == [ApexState]
        assert nxt.y > 0.0
