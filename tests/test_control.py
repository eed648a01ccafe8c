import math

import pytest
from hypothesis import example, given, strategies as st

from sliphop import (DEFAULT_PARAMS, ApexState, ControlInputs,
                     InsufficientEnergy, NonPhysical, SlipError, SlipParams,
                     StanceState, control, return_map_analytic,
                     solve_aoa_approx, solve_aoa_implicit)
from sliphop.numerics import quadratic_roots

from _oracles import (PidState, hip_torque, pid_at_touchdown,
                      solve_aoa_200_halvings)


def _solution_or_error(solver, *args):
    try:
        return solver(*args)
    except SlipError as err:
        return type(err), str(err)


class TestImplicitSolver:
    def test_zero_speed_is_fixed_point(self, params):
        sol = solve_aoa_implicit(0.0, 10.0, 0.5, params)
        assert sol.theta_aoa == 0.0
        assert sol.theta_td == 0.0

    def test_k_theta_zero_converges_in_one_step(self, params):
        # cos(0) = 1 decouples the constraint
        e_v = params.m * params.g * 0.3
        sol = solve_aoa_implicit(1.2, e_v, 0.0, params)
        expect = math.atan(1.2 / math.sqrt(
            2.0 * e_v / params.m - 2.0 * params.g * params.r0))
        assert sol.theta_aoa == pytest.approx(expect, abs=1e-12)
        # one productive update plus the confirming sweep
        assert sol.iterations <= 2
        assert sol.residual == 0.0

    def test_against_bisection_oracle(self, params):
        # frozen root of Phi(theta) - theta = 0 on (0, pi/2), bisection
        e_v = params.m * params.g * 0.25
        sol = solve_aoa_implicit(1.5, e_v, 0.6, params)
        assert sol.theta_aoa == pytest.approx(0.8830002814664268, abs=1e-9)
        assert sol.theta_td == pytest.approx(0.6 * sol.theta_aoa, abs=0)
        assert sol.residual <= 1e-10

    def test_low_apex_still_solvable(self, params):
        # apex below r0: iterating from 0 is outside Phi's domain but a
        # valid angle exists at larger theta
        e_v = params.m * params.g * 0.19
        sol = solve_aoa_implicit(2.5, e_v, 0.5, params)
        assert sol.residual <= 1e-10
        assert params.r0 * math.cos(sol.theta_td) < 0.19

    def test_insufficient_energy(self, params):
        # k_theta = 0 and apex below r0: radicand can never go positive
        with pytest.raises(InsufficientEnergy):
            solve_aoa_implicit(1.0, params.m * params.g * 0.15, 0.0, params)

    def test_insufficient_energy_small_gain(self, params):
        # tiny gain cannot produce enough angle to reach a very low apex
        with pytest.raises(InsufficientEnergy):
            solve_aoa_implicit(1.0, params.m * params.g * 0.05, 0.1, params)

    @given(st.floats(0.1, 3.0), st.floats(0.22, 0.45), st.floats(0.0, 1.0))
    def test_odd_in_x_dot(self, x_dot, apex_y, k_theta):
        params = SlipParams(m=3.3, k=4000.0, b=20.0, r0=0.2)
        e_v = params.m * params.g * apex_y
        pos = solve_aoa_implicit(x_dot, e_v, k_theta, params)
        neg = solve_aoa_implicit(-x_dot, e_v, k_theta, params)
        assert neg.theta_aoa == pytest.approx(-pos.theta_aoa, abs=1e-12)

    def test_monotone_in_x_dot(self, params):
        e_v = params.m * params.g * 0.3
        angles = [solve_aoa_implicit(x, e_v, 0.6, params).theta_aoa
                  for x in (0.0, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4)]
        assert all(b > a for a, b in zip(angles, angles[1:]))

    # Low apexes send about one solve in seven to the bisection backstop.
    @given(st.floats(-4.0, 4.0), st.floats(0.12, 0.45), st.floats(0.0, 1.0))
    @example(2.5, 0.19, 0.3)
    def test_bisection_matches_200_halvings(self, x_dot, apex_y, k_theta):
        e_v = DEFAULT_PARAMS.m * DEFAULT_PARAMS.g * apex_y
        args = (x_dot, e_v, k_theta, DEFAULT_PARAMS)
        assert _solution_or_error(solve_aoa_implicit, *args) == \
            _solution_or_error(solve_aoa_200_halvings, *args)

    def test_bisection_stops_when_its_bracket_stops_shrinking(
            self, params, monkeypatch):
        phi, calls = control._phi, []
        monkeypatch.setattr(control, "_phi",
                            lambda *args: calls.append(args) or phi(*args))
        sol = solve_aoa_implicit(2.5, params.m * params.g * 0.19, 0.3,
                                 params)
        assert sol.iterations == 0  # solved by the bisection backstop
        assert len(calls) <= 64  # 204 with a fixed 200 halvings


class TestApproxSolver:
    def test_zero_speed(self, params):
        sol = solve_aoa_approx(0.0, 10.0, 0.5, params)
        assert sol.theta_aoa == 0.0
        assert sol.method == "quadratic-approx"

    def test_against_implicit(self, params):
        e_v = params.m * params.g * 0.25
        approx = solve_aoa_approx(1.5, e_v, 0.6, params)
        implicit = solve_aoa_implicit(1.5, e_v, 0.6, params)
        # quadratic approximation error, well inside the documented band
        assert abs(approx.theta_aoa - implicit.theta_aoa) <= 0.12

    def test_sign_follows_x_dot(self, params):
        e_v = params.m * params.g * 0.3
        assert solve_aoa_approx(-1.0, e_v, 0.5, params).theta_aoa < 0.0

    def test_k_theta_zero_matches_closed_form(self, params):
        e_v = params.m * params.g * 0.3
        sol = solve_aoa_approx(0.9, e_v, 0.0, params)
        denom = math.sqrt(2.0 * e_v / params.m - 2.0 * params.g * params.r0)
        assert sol.theta_aoa == pytest.approx(math.atan(0.9 / denom),
                                              abs=1e-12)

    def test_overflowing_angle_is_a_tagged_failure(self, params):
        # at an absurd apex height the quadratic's root overflows to inf,
        # and math.cos(inf) raises a bare ValueError; it leaves the hop
        # as a NonPhysical tagged with the angle-of-attack phase
        apex = ApexState(1.0, 4.271090701434314e+151)
        with pytest.raises(NonPhysical, match="^touchdown angle guess inf "
                                              "is not finite$") as exc:
            return_map_analytic(apex, ControlInputs(0.0, 1.0), params)
        assert exc.value.phase == "aoa"


class TestQuadraticRoots:
    @pytest.mark.parametrize("a,b,c,plus,minus", [
        (1.0, -3.0, 2.0, 2.0, 1.0),
        (1.0, 0.0, 0.0, 0.0, 0.0),
        (2.0, -4.0, -6.0, 3.0, -1.0),
    ])
    def test_known_roots(self, a, b, c, plus, minus):
        qp, qm = quadratic_roots(a, b, c)
        assert qp == pytest.approx(plus, abs=1e-14)
        assert qm == pytest.approx(minus, abs=1e-14)

    def test_linear_fallback(self):
        qp, qm = quadratic_roots(0.0, 2.0, -4.0)
        assert qp == qm == 2.0

    def test_degenerate(self):
        from sliphop import DegenerateQuadratic
        with pytest.raises(DegenerateQuadratic):
            quadratic_roots(0.0, 0.0, 1.0)

    def test_negative_discriminant(self):
        from sliphop import NegativeDiscriminant
        with pytest.raises(NegativeDiscriminant):
            quadratic_roots(1.0, 0.0, 1.0)


class TestHipTorque:
    def test_all_terms_vanish(self, params):
        gains = ControlInputs(p_bar=-1.0, k_theta=0.5, kp=40.0, ki=2.0,
                              kd=0.2, tau_max=None)
        # state whose momentum already equals the target, vertical leg
        theta_dot = -1.0 / (params.m * params.r0 ** 2)
        s = StanceState(r=params.r0, r_dot=0.0, theta=0.0,
                        theta_dot=theta_dot)
        pid = pid_at_touchdown(s, params)
        tau, _ = hip_torque(-1.0, s, pid, gains, params, 1e-3)
        assert tau == pytest.approx(0.0, abs=1e-12)

    def test_pure_feedforward(self, params):
        gains = ControlInputs(p_bar=0.0, k_theta=0.5, kp=0.0, ki=0.0,
                              kd=0.0, tau_max=None)
        s = StanceState(r=0.19, r_dot=0.0, theta=0.3, theta_dot=0.0)
        pid = pid_at_touchdown(s, params)
        tau, _ = hip_torque(0.0, s, pid, gains, params, 1e-3)
        assert tau == pytest.approx(
            -params.m * params.g * 0.19 * math.sin(0.3), rel=1e-14)

    def test_pure_proportional(self, params):
        gains = ControlInputs(p_bar=-1.0, k_theta=0.5, kp=1.0, ki=0.0,
                              kd=0.0, tau_max=None)
        theta_dot = -0.5 / (params.m * params.r0 ** 2)
        s = StanceState(r=params.r0, r_dot=0.0, theta=0.0,
                        theta_dot=theta_dot)
        pid = pid_at_touchdown(s, params)
        tau, _ = hip_torque(-1.0, s, pid, gains, params, 1e-3)
        assert tau == pytest.approx(-0.5, rel=1e-12)

    def test_saturation(self, params):
        gains = ControlInputs(p_bar=-1.0, k_theta=0.5, kp=1000.0, ki=0.0,
                              kd=0.0, tau_max=7.0)
        s = StanceState(r=params.r0, r_dot=0.0, theta=0.0, theta_dot=0.0)
        pid = pid_at_touchdown(s, params)
        tau, _ = hip_torque(-1.0, s, pid, gains, params, 1e-3)
        assert tau == -7.0

    def test_antiwindup_freezes_integral(self, params):
        gains = ControlInputs(p_bar=-1.0, k_theta=0.5, kp=1000.0, ki=1.0,
                              kd=0.0, tau_max=7.0)
        s = StanceState(r=params.r0, r_dot=0.0, theta=0.0, theta_dot=0.0)
        pid = pid_at_touchdown(s, params)
        _, pid1 = hip_torque(-1.0, s, pid, gains, params, 1e-3)
        assert pid1.integral == 0.0  # saturated from the first sample

    def test_integral_accumulates_when_unsaturated(self, params):
        gains = ControlInputs(p_bar=-1.0, k_theta=0.5, kp=0.1, ki=0.01,
                              kd=0.0, tau_max=None)
        s = StanceState(r=params.r0, r_dot=0.0, theta=0.0, theta_dot=0.0)
        pid = pid_at_touchdown(s, params)
        _, pid1 = hip_torque(-1.0, s, pid, gains, params, 1e-3)
        assert pid1.integral == pytest.approx(-1.0, rel=1e-14)

    def test_p_dot_backward_difference(self, params):
        gains = ControlInputs(p_bar=0.0, k_theta=0.5, kp=0.0, ki=0.0,
                              kd=1.0, tau_max=None)
        s0 = StanceState(r=params.r0, r_dot=0.0, theta=0.0, theta_dot=-1.0)
        s1 = StanceState(r=params.r0, r_dot=0.0, theta=0.0, theta_dot=-2.0)
        pid = pid_at_touchdown(s0, params)
        _, pid = hip_torque(0.0, s0, pid, gains, params, 1e-3)
        tau, _ = hip_torque(0.0, s1, pid, gains, params, 1e-3)
        dp = (s1.angular_momentum(params) - s0.angular_momentum(params)) / 1e-3
        assert tau == pytest.approx(-dp, rel=1e-12)

    def test_rejects_nonpositive_dt(self, params):
        gains = ControlInputs(p_bar=0.0, k_theta=0.5)
        s = StanceState(r=params.r0, r_dot=0.0, theta=0.0, theta_dot=0.0)
        with pytest.raises(ValueError):
            hip_torque(0.0, s, PidState(), gains, params, 0.0)
