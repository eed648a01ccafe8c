import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sliphop import (ApexState, ControlInputs, GaitFailure, IllConditioned,
                     InsufficientEnergy, InvalidState, NoConvergence,
                     NonPhysical, NonpositiveTime, NoRealFixedPoint,
                     SlipError, closed_form_fixed_point,
                     energy_speed_constraints, fixedpoint, harness,
                     numeric_fixed_point, return_map_analytic,
                     simulator_return_map, solve_point, stability,
                     theta_offset)
from sliphop.analytic import (_gait_constants, return_map_analytic_jacobian,
                              simplified_map_constants)
from sliphop.fixedpoint import (ANALYTIC_NUMERIC, CLOSED_FORM,
                                SIMULATOR_NUMERIC)
from sliphop.numerics import solve_2x2, spectral_radius_2x2

from _oracles import damped_map_iteration


class TestClosedForm:
    def test_unit_gain_zeroes_touchdown_rate(self, params):
        fp = closed_form_fixed_point(-1.0, 1.0, params)
        assert fp.touchdown.theta_offset == 0.0
        assert fp.touchdown.theta_dot_td == 0.0

    def test_mirror_symmetry(self, params):
        fwd = closed_form_fixed_point(-1.0, 0.5, params)
        bwd = closed_form_fixed_point(+1.0, 0.5, params)
        assert bwd.apex.x_dot == pytest.approx(-fwd.apex.x_dot, rel=1e-12)
        assert bwd.apex.y == pytest.approx(fwd.apex.y, rel=1e-12)
        assert bwd.touchdown.theta_td == pytest.approx(
            -fwd.touchdown.theta_td, rel=1e-12)

    def test_offset_identity(self, params):
        # theta_dot_td = -r_dot_td/r0 * tan(theta_offset), by construction
        for pb, kt in ((-1.0, 0.5), (-0.6, 0.3), (-1.5, 0.75)):
            td = closed_form_fixed_point(pb, kt, params).touchdown
            assert td.theta_dot_td + td.r_dot_td / params.r0 * math.tan(
                td.theta_offset) == pytest.approx(0.0, abs=1e-12)
            assert td.theta_offset == theta_offset(pb, kt)
            assert td.r_dot_td < 0.0

    def test_against_damped_iteration_oracle(self, params):
        # independent oracle: relaxed fixed-point iteration of the
        # analytic return map; the closed form carries the additional
        # fixed-point assumptions, so agreement is at model-error scale
        for pb, kt in ((-1.0, 0.5), (-0.7, 0.6)):
            cf = closed_form_fixed_point(pb, kt, params)
            oracle = damped_map_iteration(return_map_analytic, cf.apex,
                                          ControlInputs(pb, kt), params)
            assert oracle is not None
            assert cf.apex.x_dot == pytest.approx(oracle.x_dot, rel=0.25)
            assert cf.apex.y == pytest.approx(oracle.y, rel=0.25)

    def test_reference_point(self, params):
        fp = closed_form_fixed_point(-1.0, 0.5, params)
        # frozen output of the quadratic solution at Table-scale params
        assert fp.apex.x_dot == pytest.approx(1.777311186642619, rel=1e-9)
        assert fp.apex.y == pytest.approx(0.2248414390810544, rel=1e-9)
        assert fp.provenance == CLOSED_FORM
        assert fp.stable and fp.spectral_radius < 1.0

    def test_rejects_bad_gain(self, params):
        with pytest.raises(ValueError, match="^k_theta must be in"):
            closed_form_fixed_point(-1.0, 1.5, params)

    @pytest.mark.parametrize("p_bar,k_theta", [(-2.0, 0.4068),
                                               (-2.0, 0.1)])
    def test_rejects_touchdown_at_or_past_horizontal(self, params, p_bar,
                                                     k_theta):
        # the speed quadratic's Q+ root lies outside (-pi/2, pi/2) here:
        # 22.6 rad, and 1.6 rad, whose apex the back-map still produced
        with pytest.raises(NonPhysical, match="^theta_td = .* at or above"):
            closed_form_fixed_point(p_bar, k_theta, params)


    # each branch fails where the closed form has no gait; the closed form
    # is not a hop chain, so its errors carry no phase
    @pytest.mark.parametrize("p_bar,k_theta,error,message", [
        (-3.125, 0.0, NoRealFixedPoint, "^speed quadratic: discriminant"),
        (-4.0, 0.7875, NonPhysical, "^touchdown y_dot = .* >= 0$"),
        (-4.0, 0.65, NonpositiveTime, r"^branch selection gave "
         r"t_lo = 1\.821e-09, t_b = 2\.160e-09$"),
    ])
    def test_failure_branches(self, params, p_bar, k_theta, error, message):
        with pytest.raises(error, match=message) as exc:
            closed_form_fixed_point(p_bar, k_theta, params)
        assert exc.value.phase is None


def _leaves(value):
    """The scalars of a result, depth first, through its dataclasses and
    tuples."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


class TestGaitScalarType:
    def test_float_int_and_numpy_gaits_give_the_same_floats(self, params):
        # the gait knobs are stored as Python floats, so every result is
        # made of floats, bit for bit the same, and the flow constants
        # are cached once for the gait
        _gait_constants.cache_clear()
        results = []
        for scalar in (float, int, np.float64):
            p_bar, k_theta = scalar(-1), scalar(1)
            inputs = ControlInputs(p_bar=p_bar, k_theta=k_theta)
            results.append([
                (type(v), v.hex() if isinstance(v, float) else v)
                for v in _leaves((
                    simplified_map_constants(p_bar, k_theta, params),
                    closed_form_fixed_point(p_bar, k_theta, params),
                    solve_point(CLOSED_FORM, inputs, params),
                    solve_point(ANALYTIC_NUMERIC, inputs, params)))])
        assert results[1] == results[0] and results[2] == results[0]
        assert {t for t, _ in results[0]} == {float, bool, str, int,
                                              type(None)}
        assert _gait_constants.cache_info().currsize == 1


class TestConstraints:
    def test_roots_zero_both_constraints(self, params):
        for pb in (-1.55, -1.0, -0.5):
            for kt in (0.3, 0.5, 0.75):
                td = closed_form_fixed_point(pb, kt, params).touchdown
                e_res, x_res = energy_speed_constraints(td, pb, kt, params)
                assert abs(e_res) <= 1e-9
                assert abs(x_res) <= 1e-9

    def test_theta_perturbation_moves_speed_residual(self, params):
        from dataclasses import replace
        td = closed_form_fixed_point(-1.0, 0.5, params).touchdown
        _, up = energy_speed_constraints(
            replace(td, theta_td=td.theta_td + 0.01), -1.0, 0.5, params)
        _, dn = energy_speed_constraints(
            replace(td, theta_td=td.theta_td - 0.01), -1.0, 0.5, params)
        assert up != 0.0 and dn != 0.0
        assert (up > 0.0) != (dn > 0.0)  # simple root crossing

    def test_r_dot_perturbation_moves_energy_residual(self, params):
        from dataclasses import replace
        td = closed_form_fixed_point(-1.0, 0.5, params).touchdown
        e_up, _ = energy_speed_constraints(
            replace(td, r_dot_td=td.r_dot_td + 0.01), -1.0, 0.5, params)
        e_dn, _ = energy_speed_constraints(
            replace(td, r_dot_td=td.r_dot_td - 0.01), -1.0, 0.5, params)
        assert e_up != 0.0 and e_dn != 0.0
        assert (e_up > 0.0) != (e_dn > 0.0)


def _contraction_map(apex, inputs, params):
    return ApexState(x_dot=0.5 * apex.x_dot, y=0.5 * apex.y + 0.1)


def _identity_map(apex, inputs, params):
    return ApexState(apex.x_dot, apex.y)


def _constant_map(apex, inputs, params):
    return ApexState(1.0, 0.25)


def _narrow_map(apex, inputs, params):
    # defined only within 1e-4 of (1.0, 0.3)
    if abs(apex.x_dot - 1.0) > 1e-4 or abs(apex.y - 0.3) > 1e-4:
        raise InsufficientEnergy("outside the toy domain", phase="aoa")
    return ApexState(0.5 * apex.x_dot, 0.5 * apex.y + 0.1)


def _sinking_map(apex, inputs, params):
    # from y = 0.3 the step in y is -7.8 even at 1/128: below the ground
    return ApexState(0.5 * apex.x_dot, 2.0 * apex.y + 1000.0)


def _cusp_map(apex, inputs, params):
    # residual 1 + sqrt|x| >= 1: no fixed point, and from |x| < 1/9 the
    # full, half and quarter Newton steps all land higher on the cusp
    x = apex.x_dot
    return ApexState(x + 1.0 + math.sqrt(abs(x)), 0.5 * apex.y + 0.1)


def _counted(return_map, seen):
    """return_map, appending each point it is called at to seen."""
    def counting_map(apex, inputs, params):
        seen.append((apex.x_dot, apex.y))
        return return_map(apex, inputs, params)
    return counting_map


class TestStability:
    def test_contraction_toy_map(self, params):
        inputs = ControlInputs(-1.0, 0.5)
        jac, rho, stable = stability(_contraction_map,
                                     ApexState(0.0001, 0.2), inputs, params)
        assert rho == pytest.approx(0.5, abs=1e-6)
        assert stable

    def test_identity_map_not_stable(self, params):
        inputs = ControlInputs(-1.0, 0.5)
        _, rho, stable = stability(_identity_map, ApexState(1.0, 0.25),
                                   inputs, params)
        assert rho == pytest.approx(1.0, abs=1e-9)
        assert not stable

    # entries 0 or 1e-6..10 in magnitude, clear of the underflow range
    # where neither solver keeps its digits
    @given(st.lists(st.floats(-10.0, 10.0).filter(
        lambda v: v == 0.0 or abs(v) >= 1e-6), min_size=6, max_size=6))
    def test_newton_solve_matches_numpy(self, v):
        a, b, c, d, e, f = v
        assume(np.linalg.cond([[a, b], [c, d]]) < 100.0)
        want = np.linalg.solve([[a, b], [c, d]], [e, f]).tolist()
        got = solve_2x2(a, b, c, d, e, f)
        assert max(abs(g - w) for g, w in zip(got, want)) <= \
            1e-12 * max(map(abs, want))

    def test_newton_solve_of_a_tiny_matrix(self):
        # a determinant of 1e-400 underflows; elimination never forms one
        assert solve_2x2(1e-200, 0.0, 0.0, 1e-200, 1e-200, 2e-200) == (
            1.0, 2.0)

    def test_newton_solve_of_a_singular_matrix_divides_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            solve_2x2(1.0, 2.0, 2.0, 4.0, 1.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            solve_2x2(0.0, 1.0, 0.0, 1.0, 1.0, 1.0)

    def test_complex_eigenvalue_pair(self, params):
        # rotation by atan2(0.4, 0.3) scaled by 0.5: eigenvalues 0.3 +- 0.4i
        assert spectral_radius_2x2(0.3, -0.4, 0.4, 0.3) == pytest.approx(
            0.5, abs=1e-15)

        def spiral_map(apex, inputs, params):
            return ApexState(0.3 * apex.x_dot - 0.4 * apex.y + 1.0,
                             0.4 * apex.x_dot + 0.3 * apex.y + 0.2)

        _, rho, stable = stability(spiral_map, ApexState(1.0, 0.25),
                                   ControlInputs(-1.0, 0.5), params)
        assert rho == pytest.approx(0.5, abs=1e-9)
        assert stable

    def test_constant_map_ill_conditioned(self, params):
        inputs = ControlInputs(-1.0, 0.5)
        with pytest.raises(IllConditioned):
            stability(_constant_map, ApexState(1.0, 0.25), inputs, params)

    @pytest.mark.parametrize("p_bar,k_theta", [
        (-1.0, 0.5), (-0.79, 0.64), (-1.55, 0.3), (-0.5, 0.75)])
    def test_simulator_map_smooth_at_the_fd_step(self, params, monkeypatch,
                                                 p_bar, k_theta):
        # the simulator map must be smooth on the scale of the Jacobian's
        # step: an event located to a fixed time bracket makes it a
        # staircase, and a step of 1e-7 then moves rho by up to 2.7e-4
        inputs = ControlInputs(p_bar, k_theta)
        z = solve_point(SIMULATOR_NUMERIC, inputs, params).apex
        rho = {}
        for h in (1e-6, 1e-7):
            monkeypatch.setattr(fixedpoint, "FD_STEP", h)
            rho[h] = stability(simulator_return_map, z, inputs, params)[1]
        assert abs(rho[1e-7] - rho[1e-6]) <= 1e-7


class TestNumericFixedPoint:
    def test_toy_map_exact(self, params):
        inputs = ControlInputs(-1.0, 0.5)
        res = numeric_fixed_point(_contraction_map, ApexState(1.0, 0.3),
                                  inputs, params, tol=1e-12)
        assert res.apex.x_dot == pytest.approx(0.0, abs=1e-11)
        assert res.apex.y == pytest.approx(0.2, abs=1e-11)
        assert res.stable and res.spectral_radius == pytest.approx(0.5,
                                                                   abs=1e-6)

    def test_idempotent_at_fixed_point(self, params):
        inputs = ControlInputs(-1.0, 0.5)
        res = numeric_fixed_point(_contraction_map, ApexState(0.0, 0.2),
                                  inputs, params, tol=1e-9)
        assert res.newton_steps == 0
        assert res.residual <= 1e-9

    def test_analytic_map_fixed_point(self, params):
        inputs = ControlInputs(-1.0, 0.5)
        seed = closed_form_fixed_point(-1.0, 0.5, params).apex
        res = numeric_fixed_point(return_map_analytic, seed, inputs, params,
                                  tol=1e-9, provenance=ANALYTIC_NUMERIC)
        nxt = return_map_analytic(res.apex, inputs, params)
        assert abs(nxt.x_dot - res.apex.x_dot) <= 1e-9
        assert abs(nxt.y - res.apex.y) <= 1e-9
        assert res.stable
        # matches the independent relaxed-iteration oracle tightly
        oracle = damped_map_iteration(return_map_analytic, seed, inputs,
                                      params, tol=1e-11)
        assert res.apex.x_dot == pytest.approx(oracle.x_dot, abs=1e-7)
        assert res.apex.y == pytest.approx(oracle.y, abs=1e-7)

    def test_simulator_map_fixed_point(self, params):
        inputs = ControlInputs(-1.0, 0.5)
        seed = closed_form_fixed_point(-1.0, 0.5, params).apex
        res = numeric_fixed_point(simulator_return_map, seed, inputs, params,
                                  tol=1e-6, provenance=SIMULATOR_NUMERIC)
        assert res.provenance == SIMULATOR_NUMERIC
        assert res.residual <= 1e-6
        nxt = simulator_return_map(res.apex, inputs, params)
        assert abs(nxt.x_dot - res.apex.x_dot) <= 1e-6
        assert abs(nxt.y - res.apex.y) <= 1e-6
        assert res.stable and res.spectral_radius < 1.0

    def test_no_apex_point_evaluated_twice(self, params):
        inputs = ControlInputs(-1.0, 0.5)
        seed = closed_form_fixed_point(-1.0, 0.5, params).apex
        seen = []

        def counting_map(apex, inputs, params):
            seen.append((apex.x_dot, apex.y))
            return return_map_analytic(apex, inputs, params)

        res = numeric_fixed_point(counting_map, seed, inputs, params,
                                  tol=1e-9)
        assert res.newton_steps == 5
        assert len(seen) == len(set(seen))
        # P(seed), the 4 differences that start Broyden's matrix, the
        # accepted candidate of each step, the 4-point stability Jacobian
        assert len(seen) == 1 + 4 + res.newton_steps + 4

    def test_closed_form_jacobian_starts_broyden(self, params):
        # the closed form's Jacobian is the analytic map's exact Jacobian
        # at its apex: as a start matrix it gives the solve that takes the
        # exact Jacobian at that seed, at the same points, and no
        # difference stencil anywhere
        inputs = ControlInputs(-1.0, 0.5)
        closed = closed_form_fixed_point(-1.0, 0.5, params)
        assert closed.jacobian == return_map_analytic_jacobian(
            closed.apex, inputs, params)
        cold_seen, warm_seen = [], []
        cold = numeric_fixed_point(_counted(return_map_analytic, cold_seen),
                                   closed.apex, inputs, params,
                                   map_jacobian=return_map_analytic_jacobian)
        warm = numeric_fixed_point(_counted(return_map_analytic, warm_seen),
                                   closed.apex, inputs, params,
                                   jacobian=closed.jacobian,
                                   map_jacobian=return_map_analytic_jacobian)
        assert warm == cold and warm_seen == cold_seen
        assert len(warm_seen) == 1 + warm.newton_steps
        assert warm.jacobian == return_map_analytic_jacobian(
            warm.apex, inputs, params)
        wide = tuple(tuple(map(np.float64, row)) for row in closed.jacobian)
        got = numeric_fixed_point(return_map_analytic, closed.apex, inputs,
                                  params, jacobian=wide,
                                  map_jacobian=return_map_analytic_jacobian)
        assert got == warm
        assert type(got.apex.x_dot) is float and type(got.apex.y) is float

    def test_nan_map_jacobian_is_ill_conditioned(self, params):
        # a Jacobian function that gives no finite Jacobian ends the solve
        # with a SlipError, and no differences are taken
        def nan_jacobian(apex, inputs, params):
            return ((math.nan, math.nan), (math.nan, math.nan))

        seen = []
        inputs = ControlInputs(-1.0, 0.5)
        seed = closed_form_fixed_point(-1.0, 0.5, params).apex
        with pytest.raises(IllConditioned, match="not finite"):
            numeric_fixed_point(_counted(return_map_analytic, seen), seed,
                                inputs, params, map_jacobian=nan_jacobian)
        assert seen == [(seed.x_dot, seed.y)]
        jac, rho, stable = stability(return_map_analytic, seed, inputs,
                                     params, nan_jacobian)
        assert math.isnan(rho) and not stable

    @pytest.mark.parametrize("jacobian", [
        ((math.nan, math.nan), (math.nan, math.nan)),  # no Jacobian
        ((1.0, 0.0), (0.0, 1.0)),  # J - I singular: refreshed by FD
    ], ids=["nan", "singular"])
    def test_unusable_start_jacobian_takes_differences(self, params,
                                                       jacobian):
        inputs = ControlInputs(-1.0, 0.5)
        seed = closed_form_fixed_point(-1.0, 0.5, params).apex
        fd_seen, seen = [], []
        fd = numeric_fixed_point(_counted(return_map_analytic, fd_seen),
                                 seed, inputs, params)
        res = numeric_fixed_point(_counted(return_map_analytic, seen), seed,
                                  inputs, params, jacobian=jacobian)
        assert res == fd and res.residual <= 1e-9
        # the same points as the FD start: the 4 differences at the seed
        # that a usable Jacobian skips included
        assert seen == fd_seen

    @pytest.mark.parametrize("wrap", [
        lambda x, y: ApexState(np.float64(x), np.float64(y)),
        lambda x, y: SimpleNamespace(x_dot=np.float64(x), y=np.float64(y)),
    ])
    def test_seed_scalar_type_does_not_change_result(self, params, wrap):
        inputs = ControlInputs(-1.0, 0.5)
        seed = closed_form_fixed_point(-1.0, 0.5, params).apex
        want = numeric_fixed_point(return_map_analytic, seed, inputs, params,
                                   tol=1e-9)
        got = numeric_fixed_point(return_map_analytic,
                                  wrap(seed.x_dot, seed.y), inputs, params,
                                  tol=1e-9)
        assert type(got.apex.x_dot) is float and type(got.apex.y) is float
        assert got.apex == want.apex
        assert type(got.residual) is float and got.residual == want.residual
        assert got.jacobian == want.jacobian
        assert all(type(v) is float for row in got.jacobian for v in row)
        assert got.newton_steps == want.newton_steps

    def test_gait_failure_wraps_map_errors(self, params):
        def broken_map(apex, inputs, params):
            raise InsufficientEnergy("boom", phase="aoa")

        inputs = ControlInputs(-1.0, 0.5)
        with pytest.raises(GaitFailure) as exc:
            numeric_fixed_point(broken_map, ApexState(1.0, 0.25), inputs,
                                params)
        assert exc.value.phase == "aoa"

    def test_gait_failure_when_the_jacobian_fails(self, params):
        # the map works at the seed but fails just above it, so the first
        # finite-difference point of the Jacobian raises
        def cliff_map(apex, inputs, params):
            if apex.x_dot > 1.0:
                raise SlipError("over the cliff", phase="stance")
            return ApexState(0.5 * apex.x_dot, 0.5 * apex.y + 0.1)

        inputs = ControlInputs(-1.0, 0.5)
        with pytest.raises(GaitFailure,
                           match="^Jacobian evaluation failed: over the") \
                as exc:
            numeric_fixed_point(cliff_map, ApexState(1.0, 0.3), inputs,
                                params)
        assert exc.value.phase == "stance"

    def test_unknown_stability_when_a_difference_fails(self, params):
        # a contraction to z* that fails above y* + h/2: Newton converges
        # below the cliff, then the stability differences step over it,
        # so the fixed point is kept with its stability unknown
        x_star, y_star = 1.2, 0.3
        h = fixedpoint.FD_STEP  # the difference step in y, as |y*| < 1

        def cliff_map(apex, inputs, params):
            if apex.y > y_star + 0.5 * h:
                raise InvalidState("over the cliff", phase="ascent")
            return ApexState(x_star + 0.5 * (apex.x_dot - x_star),
                             y_star + 0.5 * (apex.y - y_star))

        res = numeric_fixed_point(cliff_map, ApexState(1.0, 0.25),
                                  ControlInputs(-1.0, 0.5), params)
        assert res.residual <= 1e-9 and res.apex.y <= y_star + 0.5 * h
        assert all(math.isnan(v) for row in res.jacobian for v in row)
        assert math.isnan(res.spectral_radius) and res.stable is False
        assert harness._result_cells(res)[3] is None  # an empty cell

    def test_drift_map_is_ill_conditioned(self, params):
        # P(z) = z + (1, 0) has no fixed point, and its identity Jacobian
        # makes the Newton system P'(z) - I singular
        def drift_map(apex, inputs, params):
            return ApexState(apex.x_dot + 1.0, apex.y)

        inputs = ControlInputs(-1.0, 0.5)
        with pytest.raises(IllConditioned, match="singular Newton system"):
            numeric_fixed_point(drift_map, ApexState(1.0, 0.25), inputs,
                                params, max_steps=5)

    def test_no_convergence(self, params):
        # x -> x - x^2 has a double root at 0, where Newton only halves x
        # each step: the residual x^2 is still ~1e-3 after five steps
        def double_root_map(apex, inputs, params):
            return ApexState(apex.x_dot - apex.x_dot ** 2,
                             0.5 * apex.y + 0.1)

        inputs = ControlInputs(-1.0, 0.5)
        with pytest.raises(NoConvergence, match="after 5 Newton steps"):
            numeric_fixed_point(double_root_map, ApexState(0.9, 0.25),
                                inputs, params, max_steps=5)

    def test_stalled_solve_stops_before_max_steps(self, params):
        # three consecutive steps that do not reduce the residual end the
        # solve: P(seed), then per step 4 differences and the full, half
        # and quarter candidates, against a budget of 50 steps
        seen = []
        inputs = ControlInputs(-1.0, 0.5)
        with pytest.raises(NoConvergence,
                           match="3 consecutive Newton steps did not"):
            numeric_fixed_point(_counted(_cusp_map, seen),
                                ApexState(0.01, 0.2), inputs, params)
        assert len(seen) == 1 + 3 * (4 + 3)
        quarters = [x for x, _ in seen[7::7]]
        assert quarters[0] == pytest.approx(-0.045)
        assert all(abs(b) > abs(a) for a, b in zip([0.01] + quarters,
                                                   quarters))

    def test_line_search_halves_an_overshooting_step(self, params):
        # Newton on the residual -0.9*atan(x) overshoots from x = 1.5 to
        # x = -1.69, where |atan| is larger; the halved step is accepted
        seen = []

        def atan_map(apex, inputs, params):
            seen.append((apex.x_dot, apex.y))
            return ApexState(apex.x_dot - 0.9 * math.atan(apex.x_dot),
                             0.5 * apex.y + 0.1)

        inputs = ControlInputs(-1.0, 0.5)
        res = numeric_fixed_point(atan_map, ApexState(1.5, 0.3), inputs,
                                  params)
        assert res.apex.x_dot == pytest.approx(0.0, abs=1e-9)
        assert res.apex.y == pytest.approx(0.2, abs=1e-9)
        # P(seed), the 4 difference points, then the full and half steps
        seed, full, half = seen[0], seen[5], seen[6]
        assert full[0] < -1.6
        assert half == pytest.approx(((seed[0] + full[0]) / 2,
                                      (seed[1] + full[1]) / 2), abs=1e-12)
        # one extra candidate, then the 4-point stability Jacobian
        assert len(seen) == 1 + 4 + res.newton_steps + 1 + 4
        assert res.stable and res.spectral_radius == pytest.approx(0.5)

    def test_non_reducing_step_retakes_the_differences(self, params):
        # Newton on x^3 - 2x + 2 from x = 0 goes to x = 1; the Broyden
        # step from there reduces the residual at no line-search
        # candidate, and the quarter step is taken
        seen = []

        def cubic_map(apex, inputs, params):
            seen.append((apex.x_dot, apex.y))
            x = apex.x_dot
            return ApexState(x + x ** 3 - 2.0 * x + 2.0, 0.5 * apex.y + 0.1)

        inputs = ControlInputs(-1.0, 0.5)
        with pytest.raises(NoConvergence, match="after 3 Newton steps"):
            numeric_fixed_point(cubic_map, ApexState(0.0, 0.2), inputs,
                                params, max_steps=3)
        # P(seed), 4 differences, step 1, step 2's full, half and quarter
        # candidates, 4 differences at the quarter step, step 3
        assert len(seen) == 1 + 4 + 1 + 3 + 4 + 1
        assert seen[5][0] == pytest.approx(1.0)
        x1, quarter = seen[5][0], seen[8][0]
        assert seen[6][0] - x1 == pytest.approx(4.0 * (quarter - x1))
        assert sorted(seen[9:13]) == sorted([
            (quarter + 1e-6 * quarter, 0.2), (quarter - 1e-6 * quarter, 0.2),
            (quarter, 0.2 + 1e-6), (quarter, 0.2 - 1e-6)])

    def test_no_acceptable_newton_step(self, params):
        # every line-search candidate down to 1/128 of the step fails, and
        # the failure carries the phase of the last one
        inputs = ControlInputs(-1.0, 0.5)
        with pytest.raises(GaitFailure,
                           match="no acceptable Newton step") as exc:
            numeric_fixed_point(_narrow_map, ApexState(1.0, 0.3), inputs,
                                params)
        assert exc.value.phase == "aoa"

    def test_no_acceptable_newton_step_below_the_ground(self, params):
        # the last candidate is no apex state (y <= 0): no phase
        inputs = ControlInputs(-1.0, 0.5)
        with pytest.raises(GaitFailure,
                           match="no acceptable Newton step") as exc:
            numeric_fixed_point(_sinking_map, ApexState(1.0, 0.3), inputs,
                                params)
        assert exc.value.phase is None
