import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sliphop import (ApexState, ControlInputs, DescendingAtLiftoff,
                     FailedLiftoff, GroundFault, InsufficientEnergy,
                     NonPhysical, SlipError, SlipParams, StanceState,
                     UnreachableTouchdown, integrate_stance,
                     return_map_numeric, simulate, stance,
                     write_trajectory_csv)
from sliphop.analytic import flow_liftoff
from sliphop.model import liftoff_reset
from sliphop.simulate import DEFAULT_DT, ascend, check_steps, descend
from sliphop.stance import _locate, _scaled_tableau, _step
from sliphop.trajectory import (HybridTrajectory, TrajectoryEvent,
                                TrajectorySample)

from _oracles import (full_stance_oracle, rk4_step, rk6_tableau_step,
                      stance_rhs, stance_step)


def stance_energy(params, r, r_dot, theta, theta_dot):
    return (0.5 * params.m * (r_dot ** 2 + (r * theta_dot) ** 2)
            + params.m * params.g * r * math.cos(theta)
            + 0.5 * params.k * (r - params.r0) ** 2)


class TestStanceDynamics:
    """The oracle's right-hand side, the reference the kernel is pinned to."""

    def test_gravity_loaded_equilibrium(self, params):
        _, r_ddot, _, th_ddot = stance_rhs((params.r_g, 0.0, 0.0, 0.0), 0.0,
                                           params)
        assert r_ddot == pytest.approx(0.0, abs=1e-12)
        assert th_ddot == 0.0

    def test_unloaded_spring(self, params):
        _, r_ddot, _, th_ddot = stance_rhs((params.r0, 0.0, 0.0, 0.0), 0.0,
                                           params)
        assert r_ddot == pytest.approx(-params.g, abs=1e-14)
        assert th_ddot == 0.0

    def test_general_state(self, params):
        # frozen from hand evaluation of the stance ODE right-hand side
        r_dot, r_ddot, th_dot, th_ddot = stance_rhs((0.19, -1.0, 0.2, -3.0),
                                                    2.0, params)
        assert r_dot == -1.0
        assert th_dot == -3.0
        assert r_ddot == pytest.approx(10.277365053195615, rel=1e-14)
        assert th_ddot == pytest.approx(-4.532953691703028, rel=1e-14)

    def test_centrifugal_term_present(self, params):
        # constant-momentum reduction: r_ddot must contain r*theta_dot^2
        _, a0, _, _ = stance_rhs((0.19, 0.0, 0.0, 0.0), 0.0, params)
        _, a1, _, _ = stance_rhs((0.19, 0.0, 0.0, -3.0), 0.0, params)
        assert a1 - a0 == pytest.approx(0.19 * 9.0, rel=1e-12)


class TestRk4Step:
    # the fine-step reference's scalar RK4 step is the oracle's RK4 step
    # on the oracle's right-hand side, operation for operation
    STATES = [(0.2, -1.6, 0.0, 0.0), (0.19, -1.0, 0.2, -3.0),
              (0.17, 0.4, -0.35, 5.5), (0.21, 1.3, 0.9, -8.0)]

    @pytest.mark.parametrize("h", [1e-4, 1e-5, 3.7e-5])
    @pytest.mark.parametrize("tau", [0.0, 2.0, -7.25])
    @pytest.mark.parametrize("state", STATES)
    def test_bit_identical_to_oracle(self, params, state, tau, h):
        got = rk4_step(*state, h, tau, params.m, params.k, params.b,
                       params.r0, params.g)
        assert got == stance_step(state, h, tau, params)


def _step_consts(params):
    """_step's per-stance constants after the torque: k/m, b/m, r0, g."""
    return params.k / params.m, params.b / params.m, params.r0, params.g


class TestStep:
    @pytest.mark.parametrize("h", [1e-3, 1e-4, 3.7e-5])
    @pytest.mark.parametrize("tau", [0.0, 2.0, -7.25])
    @pytest.mark.parametrize("state", TestRk4Step.STATES)
    def test_matches_the_tableau_oracle(self, params, state, tau, h):
        # Butcher's tableau on the oracle's right-hand side, summed in
        # exact fractions: the step sums in floats, in another order, so
        # it agrees to a few ulps and not bit for bit
        got = _step(*state, tau / params.m, *_step_consts(params),
                    _scaled_tableau(h))
        want = rk6_tableau_step(state, h, tau, params)
        for g, w in zip(got, want):
            assert abs(g - w) <= 4.0 * math.ulp(w)

    def test_observed_order_is_six(self, params):
        # a constant-torque stance over 16 ms: halving the step divides
        # the error by 2^6 for a sixth-order step, and by at least 2^5.5
        # here, from 4 ms down to the default 1 ms
        consts = _step_consts(params)

        def run(h):
            tab = _scaled_tableau(h)
            s = (0.2, -1.6, 0.45, -7.0)
            for _ in range(round(0.016 / h)):
                s = _step(*s, 2.0 / params.m, *consts, tab)
            return s

        ref = run(1.25e-4)
        errors = [max(abs(a - b) for a, b in zip(run(h), ref))
                  for h in (4e-3, 2e-3, 1e-3)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 2.0 ** 5.5


def _rows_digest(rows) -> str:
    """sha256 of a stance kernel's rows, one line of float hex per row."""
    return hashlib.sha256("\n".join(
        ",".join(v.hex() for v in row) for row in rows).encode()).hexdigest()


def _run_core(state, b, ctrl, dt, nsub, ticks, record, params):
    """_stance_core with damping b, the controller gains ctrl = (p_bar,
    kp, ki, kd, tau_max) or () for the passive leg, and a budget of
    ticks control ticks."""
    inputs = None
    if ctrl:
        p_bar, kp, ki, kd, tau_max = ctrl
        # k_theta does not act in stance
        inputs = ControlInputs(p_bar, 0.5, kp, ki, kd, tau_max)
    return stance._stance_core(*state, dataclasses.replace(params, b=b),
                                 inputs, dt, nsub, (ticks - 0.5) * dt * nsub,
                                 record)


class TestStanceKernel:
    # (touchdown state, b, gains, dt, nsub, control ticks) -> liftoff
    # time and state (t, r, r_dot, theta, theta_dot) as float hex, and
    # the recorded stance's t_bottom as float hex, full steps, row count
    # and _rows_digest. The reference kernel is the one that wrote each
    # full step out inline before it called _step; these are its floats.
    CASES = [
        ((0.2, -1.5, 0.0, 0.0), 20.0, (), 2.5e-4, 4, 1000,
         ("0x1.92af476456e57p-4", "0x1.8e4c9467ed53dp-3",
          "0x1.1a8581d9d2d24p+0", "0x0.0p+0", "0x0.0p+0"),
         ("0x1.8ad5017a862a2p-5", 394, 99,
          "2f6ada67d06708d62773a3f95ba2e677bf049a689adb1c37db29eca8b4821499")),
        ((0.2, -1.6, 0.45, -7.0), 20.0, (-1.0, 100.0, 0.2, 0.05, None),
         2.5e-4, 4, 1000,
         ("0x1.36d48b3e1775dp-4", "0x1.8c9687576070ep-3",
          "0x1.454cc87794fc3p+0", "-0x1.31fea8dc8aed0p-2",
          "-0x1.0306929174766p+3"),
         ("0x1.3b2070dc476e7p-5", 304, 76,
          "4f82086e62672e5642b479f8a29651fd6b112b4c8e64b2509c10cbdccdeff848")),
        # tau_max 0.5 saturates the torque for the whole stance
        ((0.2, -1.7, 0.42, -3.5), 20.0, (-1.3, 100.0, 0.2, 0.05, 0.5),
         1e-3, 1, 1000,
         ("0x1.7a636e59ef5bfp-4", "0x1.8cc0624780e8dp-3",
          "0x1.41366704694a3p+0", "0x1.07632ebf7ca1dp-7",
          "-0x1.a0857efb7f229p+1"),
         ("0x1.7484c7423e14bp-5", 93, 93,
          "8d4c763b7431712b52805818afe21797dc85548842e0f0fd1d40704cb4a6cbe5")),
        ((0.2, -0.5, 1.3, -1.0), 0.0, (-1.3, 100.0, 0.2, 0.05, 0.5),
         5e-4, 2, 1000,
         ("0x1.8cdf7a10aae91p-4", "0x1.999999999999ap-3",
          "0x1.1ce8370c1a1dfp-1", "0x1.6831b8f35f68fp+0",
          "0x1.7ecd866c6000ep+1"),
         ("0x1.94af6b89d3e29p-5", 194, 97,
          "09a7fa2c604869407403542bab707b0bfa430ac48444a05fe7339f87d26c4b03")),
    ]
    # (touchdown state, b, gains, dt, nsub, control ticks) -> the
    # error the stance raises and its message
    FAILURES = [
        ((0.2, -1.0, 1.2, 15.0), 20.0, (), 2.5e-4, 4, 1000, GroundFault,
         "mass height reached 0 at t = 0.022500 s (theta = 1.573)"),
        ((0.2, -1.0, 0.3, -3.0), 20.0, (-1.0, 100.0, 0.2, 0.05, None),
         1e-4, 10, 3, FailedLiftoff,
         "leg force never vanished within 0.003 s"),
    ]

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("state,b,ctrl,dt,nsub,ticks,end,recorded",
                             CASES)
    def test_matches_the_reference_kernel(self, params, state, b, ctrl,
                                          dt, nsub, ticks, end, recorded,
                                          record):
        # both modes lift off in the same state after the same steps;
        # only the recorded one has rows and a bottom time
        rows, *floats, t_bottom, steps = _run_core(state, b, ctrl, dt,
                                                   nsub, ticks, record,
                                                   params)
        assert tuple(v.hex() for v in floats) == end
        if record:
            assert (t_bottom.hex(), steps, len(rows),
                    _rows_digest(rows)) == recorded
        else:
            assert (t_bottom, steps, rows) == (None, recorded[1], [])

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("state,b,ctrl,dt,nsub,ticks,error,message",
                             FAILURES)
    def test_failures_raise_the_hops_errors(self, params, state, b, ctrl,
                                            dt, nsub, ticks, error, message,
                                            record):
        with pytest.raises(error) as info:
            _run_core(state, b, ctrl, dt, nsub, ticks, record, params)
        assert type(info.value) is error and str(info.value) == message

    @settings(max_examples=200)
    @given(state=st.tuples(st.floats(0.12, 0.22), st.floats(-4.0, 0.5),
                           st.floats(-1.4, 1.4), st.floats(-25.0, 25.0)),
           b=st.floats(0.0, 60.0),
           ctrl=st.one_of(
               st.just(()),
               st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 300.0),
                         st.floats(0.0, 1.0), st.floats(0.0, 0.2),
                         st.one_of(st.none(), st.floats(0.05, 20.0)))),
           steps=st.sampled_from([(2.5e-4, 4), (1e-3, 1), (1e-4, 10),
                                  (5e-4, 2)]),
           ticks=st.one_of(st.integers(1, 6), st.just(1000)))
    def test_unrecorded_stances_end_as_recorded_ones(
            self, params, state, b, ctrl, steps, ticks):
        # the README contract over random stances, gains, saturated and
        # passive legs and step sizes: record=False lifts off at the
        # recorded stance's time, in its state and after its steps, as
        # the same floats, with no rows and no bottom time, and a stance
        # that fails raises the same error in both modes
        def end(record):
            try:
                return _run_core(state, b, ctrl, *steps, ticks, record,
                                 params)
            except (GroundFault, FailedLiftoff) as err:
                return type(err), str(err)

        recorded, bare = end(True), end(False)
        if recorded[0] in (GroundFault, FailedLiftoff):
            assert bare == recorded
            return
        rows, *floats, t_bottom, n = recorded
        assert bare[-1] == n
        assert [v.hex() for v in bare[1:6]] == [v.hex() for v in floats]
        assert (bare[0], bare[6]) == ([], None)
        assert len(rows) == math.ceil(n / steps[1])


class TestIntegrateStance:
    def test_symmetric_vertical_bounce(self, undamped_params):
        td = StanceState(r=0.2, r_dot=-1.6, theta=0.0, theta_dot=0.0)
        lo, seg = integrate_stance(td, None, undamped_params)
        assert lo.r_dot == pytest.approx(1.6, abs=1e-6)
        assert lo.theta == 0.0
        assert lo.r == pytest.approx(0.2, abs=1e-9)
        assert seg.t_bottom is not None
        assert 0.0 < seg.t_bottom < seg.t_liftoff

    @pytest.mark.parametrize("r_dot", [-0.8, -1.6, -2.4])
    def test_vertical_bounce_event_times(self, undamped_params, r_dot):
        # passive and vertical, r - r_g is a harmonic oscillator started
        # at m*g/k: r_dot first vanishes at t_b below, and the leg force
        # k*(r - r0) at 2*t_b
        p = undamped_params
        w, offset = p.omega0, p.m * p.g / p.k
        t_b = (math.pi + math.atan(r_dot / (offset * w))) / w
        td = StanceState(r=p.r0, r_dot=r_dot, theta=0.0, theta_dot=0.0)
        _, seg = integrate_stance(td, None, p)
        assert seg.t_bottom == pytest.approx(t_b, abs=1e-10)
        assert seg.t_liftoff == pytest.approx(2.0 * t_b, abs=1e-10)

    def test_damping_dissipates(self, params):
        td = StanceState(r=0.2, r_dot=-1.6, theta=0.0, theta_dot=0.0)
        lo, _ = integrate_stance(td, None, params)
        assert abs(lo.r_dot) < abs(td.r_dot)

    def test_energy_conserved_unforced_undamped(self, undamped_params):
        td = StanceState(r=0.2, r_dot=-1.8, theta=0.25, theta_dot=-3.0)
        _, seg = integrate_stance(td, None, undamped_params)
        p = undamped_params
        e0 = stance_energy(p, *seg.samples[0][1:5])
        for row in seg.samples:
            e = stance_energy(p, *row[1:5])
            assert e == pytest.approx(e0, rel=1e-9)

    def test_energy_nonincreasing_with_damping(self, params):
        td = StanceState(r=0.2, r_dot=-1.8, theta=0.25, theta_dot=-3.0)
        _, seg = integrate_stance(td, None, params)
        energies = [stance_energy(params, *row[1:5]) for row in seg.samples]
        for e_prev, e_next in zip(energies, energies[1:]):
            assert e_next <= e_prev + 1e-9 * abs(e_prev)

    def test_matches_fine_rk4_oracle(self, params):
        # production DEFAULT_DT vs an independent RK4 at dt=1e-6
        td = StanceState(r=0.2, r_dot=-1.7, theta=0.42, theta_dot=-3.5)
        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        lo, seg = integrate_stance(td, inputs, params)
        t_oracle, lo_oracle = full_stance_oracle(td, inputs, params, dt=1e-6)
        assert lo.r == pytest.approx(lo_oracle.r, abs=1e-6)
        assert lo.r_dot == pytest.approx(lo_oracle.r_dot, abs=1e-6)
        assert lo.theta == pytest.approx(lo_oracle.theta, abs=1e-6)
        assert lo.theta_dot == pytest.approx(lo_oracle.theta_dot, abs=1e-6)
        assert seg.t_liftoff == pytest.approx(t_oracle, abs=1e-7)

    def test_liftoff_state_consistency(self, params):
        td = StanceState(r=0.2, r_dot=-1.5, theta=0.3, theta_dot=-4.0)
        lo, seg = integrate_stance(td, None, params)
        # leg force vanishes at the localized event
        force = params.k * (lo.r - params.r0) + params.b * lo.r_dot
        assert abs(force) <= 1e-5
        assert lo.r_dot > 0.0
        assert seg.p_liftoff == pytest.approx(
            lo.angular_momentum(params), rel=1e-12)

    def test_unrecorded_stance_skips_the_bottom_search(self, params,
                                                       monkeypatch):
        # record=False takes the same steps to the same liftoff, and
        # locates liftoff alone: no rows, no bottom time
        td = StanceState(r=0.2, r_dot=-1.7, theta=0.42, theta_dot=-3.5)
        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        located = []
        real_locate = stance._locate

        def counted(*args):
            located.append(args[9:11])  # the event function's (a, c)
            return real_locate(*args)

        monkeypatch.setattr(stance, "_locate", counted)
        lo, seg = integrate_stance(td, inputs, params)
        assert located == [(0.0, 1.0), (params.k, params.b)]
        located.clear()
        lo_bare, seg_bare = integrate_stance(td, inputs, params, record=False)
        assert located == [(params.k, params.b)]
        assert (seg_bare.t_bottom, seg_bare.samples) == (None, [])
        assert seg.t_bottom is not None and len(seg.samples) > 0
        assert lo_bare == lo
        assert (seg_bare.t_liftoff.hex(), seg_bare.p_liftoff.hex()) == (
            seg.t_liftoff.hex(), seg.p_liftoff.hex())

    @pytest.mark.parametrize("td", [
        StanceState(r=0.2, r_dot=-1.5, theta=0.3, theta_dot=-4.0),
        StanceState(r=0.2, r_dot=-0.6, theta=-0.2, theta_dot=2.0),
        StanceState(r=0.2, r_dot=-2.4, theta=0.5, theta_dot=-7.0)])
    def test_event_bracket_contract(self, params, td):
        # step the passive leg to the steps that cross bottom and
        # liftoff; each located event lies between a sub-step where the
        # event function is < 0 and the one where it is >= 0, _locate
        # returns the state of the latter, and so does integrate_stance
        # at liftoff
        p = params
        consts = _step_consts(p)

        def step(s, h):
            return _step(*s, 0.0, *consts, _scaled_tableau(h))

        def force(s):
            return p.k * (s[0] - p.r0) + p.b * s[1]

        s = (td.r, td.r_dot, td.theta, td.theta_dot)
        bottom_seen = False
        while True:
            prev, s = s, step(s, DEFAULT_DT)
            if not bottom_seen and prev[1] < 0.0 <= s[1]:
                lo_h, hi_h, *at_hi = _locate(*prev, *s, 0.0, 0.0, 1.0,
                                             DEFAULT_DT, *consts)
                assert step(prev, lo_h)[1] < 0.0 <= step(prev, hi_h)[1]
                assert tuple(at_hi) == step(prev, hi_h)
                bottom_seen = True
            if force(prev) < 0.0 <= force(s) and s[1] > 0.0:
                break
        assert bottom_seen
        lo_h, hi_h, *at_hi = _locate(*prev, *s, 0.0, p.k, p.b, DEFAULT_DT,
                                     *consts)
        assert force(step(prev, lo_h)) < 0.0 <= force(step(prev, hi_h))
        assert tuple(at_hi) == step(prev, hi_h)
        lo, _ = integrate_stance(td, None, p)
        assert (lo.r, lo.r_dot, lo.theta, lo.theta_dot) == step(prev, hi_h)
        assert force(step(prev, hi_h)) <= 1e-10

    def test_event_location_repeats_no_step(self, params, monkeypatch):
        # one recorded hop takes 88 steps, each a call of _step: the
        # stance loop's 77 full steps of length dt, which the kernel
        # counts, and _locate's 11 sub-steps, each shorter and taken
        # once, so no step is taken twice; the liftoff state is pinned
        # bit for bit
        steps, full_steps = [], []
        real_step, real_core = stance._step, stance._stance_core

        def counted_step(*args):
            steps.append(args)
            return real_step(*args)

        def counted_core(*args):
            result = real_core(*args)
            full_steps.append(result[-1])
            return result

        monkeypatch.setattr(stance, "_step", counted_step)
        monkeypatch.setattr(stance, "_stance_core", counted_core)
        _, traj = return_map_numeric(ApexState(x_dot=1.5, y=0.25),
                                     ControlInputs(p_bar=-1.0, k_theta=0.5),
                                     params)
        full_tab = _scaled_tableau(DEFAULT_DT)
        # the tableau's first entry is h/3, so it orders the lengths
        sub_steps = [args for args in steps if args[-1] != full_tab]
        assert (len(steps), full_steps, len(sub_steps)) == (88, [77], 11)
        assert len(set(steps)) == len(steps)
        assert all(0.0 < args[-1][0] < full_tab[0] for args in sub_steps)
        liftoff = next(e for e in traj.events if e.name == "liftoff")
        assert {name: v.hex() for name, v in liftoff.state.items()} == {
            "r": "0x1.8b06cef2ddad6p-3", "r_dot": "0x1.6c55ca485a132p+0",
            "theta": "-0x1.2f190f0dff763p-2",
            "theta_dot": "-0x1.06e18310352bfp+3",
            "p_theta": "-0x1.02331faa36ad7p+0"}

    def test_applied_torque_respects_saturation(self, params):
        td = StanceState(r=0.2, r_dot=-1.7, theta=0.42, theta_dot=-3.5)
        inputs = ControlInputs(p_bar=-1.3, k_theta=0.5, tau_max=7.0)
        _, seg = integrate_stance(td, inputs, params)
        taus = [row[5] for row in seg.samples]
        assert all(abs(tau) <= 7.0 + 1e-12 for tau in taus)
        assert any(abs(tau) > 6.9 for tau in taus)  # the transient saturates

    # both stance maps start from the same touchdown check
    STANCE_MAPS = {
        "integrate_stance": lambda td, p: integrate_stance(td, None, p),
        "flow_liftoff": lambda td, p: flow_liftoff(td.r, td.r_dot, td.theta,
                                                   -1.0, p),
    }

    @pytest.mark.parametrize("stance_map", STANCE_MAPS)
    def test_requires_rest_length(self, params, stance_map):
        with pytest.raises(ValueError, match=r"^touchdown r = 0\.19 must "
                                             r"equal r0 = 0\.2$"):
            self.STANCE_MAPS[stance_map](
                StanceState(r=0.19, r_dot=-1.0, theta=0.0, theta_dot=0.0),
                params)

    @pytest.mark.parametrize("stance_map", STANCE_MAPS)
    def test_requires_compression(self, params, stance_map):
        with pytest.raises(NonPhysical,
                           match=r"^touchdown r_dot = 0\.5000 >= 0$"):
            self.STANCE_MAPS[stance_map](
                StanceState(r=0.2, r_dot=0.5, theta=0.0, theta_dot=0.0),
                params)

    @pytest.mark.parametrize("field", ["dt", "control_dt"])
    @pytest.mark.parametrize("bad", [0.0, -1e-4, math.nan, math.inf])
    def test_rejects_bad_step(self, params, field, bad):
        td = StanceState(r=0.2, r_dot=-1.5, theta=0.0, theta_dot=0.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            integrate_stance(td, None, params, **{field: bad})

    @pytest.mark.parametrize("dt,control_dt,nsub", [
        (1e-4, 1e-3, 10), (2e-4, 2e-3, 10), (1e-3, 1e-3, 1),
        (1e-5, 1e-3, 100), (1e-6, 1e-3, 1000)])
    def test_steps_per_control_period(self, dt, control_dt, nsub):
        assert check_steps(dt, control_dt) == nsub

    @pytest.mark.parametrize("dt,control_dt", [(3e-4, 1e-3), (1e-4, 5e-5)])
    def test_rejects_control_period_not_a_multiple(self, params, dt,
                                                   control_dt):
        td = StanceState(r=0.2, r_dot=-1.5, theta=0.0, theta_dot=0.0)
        with pytest.raises(ValueError, match="^control_dt must be a whole"):
            integrate_stance(td, None, params, dt=dt, control_dt=control_dt)

    def test_failed_liftoff_overdamped(self):
        params = SlipParams(m=3.3, k=4000.0, b=500.0, r0=0.2)
        td = StanceState(r=0.2, r_dot=-1.0, theta=0.0, theta_dot=0.0)
        with pytest.raises(FailedLiftoff):
            integrate_stance(td, None, params)

    def test_ground_fault_on_toppling(self, params):
        # gravity topples the nearly horizontal leg over the toe
        td = StanceState(r=0.2, r_dot=-0.3, theta=1.4, theta_dot=3.0)
        with pytest.raises(GroundFault):
            integrate_stance(td, None, params)


class TestFlightMaps:
    """descend and ascend, on the flight state (x_dot, y, y_dot)."""

    def test_descent_zero_height_drop(self, params):
        apex = ApexState(x_dot=1.0, y=params.r0)
        assert descend(apex, 0.0, params) == (1.0, params.r0, 0.0)

    def test_descent_vertical_drop(self, params):
        # 0.4039 - 0.2 = y_dot^2 / (2*9.81)
        _, _, y_dot = descend(ApexState(x_dot=1.0, y=0.4039), 0.0, params)
        assert y_dot == pytest.approx(-2.000129495807709, rel=1e-12)

    def test_descent_general(self, params):
        x_dot, y, y_dot = descend(ApexState(x_dot=1.5, y=0.3), 0.4, params)
        assert y == pytest.approx(0.18421219880057704, rel=1e-14)
        assert y_dot == pytest.approx(-1.5072347725330244, rel=1e-12)
        assert x_dot == 1.5

    def test_descent_unreachable(self, params):
        with pytest.raises(UnreachableTouchdown):
            descend(ApexState(x_dot=1.0, y=0.15), 0.0, params)

    def test_ascent_identity_at_apex(self, params):
        apex = ascend(1.0, 0.25, 0.0, params)
        assert apex.x_dot == 1.0
        assert apex.y == 0.25

    def test_ascent_examples(self, params):
        a1 = ascend(1.0, 0.2, 2.0, params)
        assert a1.y == pytest.approx(0.4038735983690112, rel=1e-12)
        a2 = ascend(2.0, 0.19, 1.5, params)
        assert a2.y == pytest.approx(0.3046788990825688, rel=1e-12)
        assert a2.x_dot == 2.0

    def test_ascent_rejects_descending(self, params):
        with pytest.raises(DescendingAtLiftoff):
            ascend(1.0, 0.2, -0.1, params)

    def test_flight_energy_conserved(self, params):
        apex = ApexState(x_dot=1.5, y=0.3)
        x_dot, y, y_dot = descend(apex, 0.4, params)
        e_apex = 0.5 * params.m * apex.x_dot ** 2 \
            + params.m * params.g * apex.y
        e_td = 0.5 * params.m * (x_dot ** 2 + y_dot ** 2) \
            + params.m * params.g * y
        assert e_td == pytest.approx(e_apex, rel=1e-10)


class TestReturnMap:
    def test_trajectory_structure(self, params):
        apex = ApexState(x_dot=1.2, y=0.24)
        inputs = ControlInputs(p_bar=-0.9, k_theta=0.55)
        nxt, traj = return_map_numeric(apex, inputs, params)
        traj.validate()
        names = [e.name for e in traj.events]
        assert names == ["touchdown", "bottom", "liftoff", "apex"]
        phases = {s.phase for s in traj.samples}
        assert phases == {"descent", "stance", "ascent"}
        assert nxt.y > params.r_g

    def test_reset_continuity(self, params):
        apex = ApexState(x_dot=1.2, y=0.24)
        inputs = ControlInputs(p_bar=-0.9, k_theta=0.55)
        _, traj = return_map_numeric(apex, inputs, params)
        td_event = traj.events[0]
        first_stance = next(s for s in traj.samples if s.phase == "stance")
        # stance start equals the event-localized touchdown state
        assert first_stance.r == pytest.approx(td_event.state["r"], abs=1e-12)
        # Cartesian velocity continuous through the touchdown reset
        t_fall = td_event.t
        assert first_stance.y_dot == pytest.approx(-params.g * t_fall,
                                                   abs=1e-9)
        assert first_stance.x_dot == pytest.approx(apex.x_dot, abs=1e-9)
        assert first_stance.y == pytest.approx(
            params.r0 * math.cos(td_event.state["theta"]), abs=1e-9)

    def test_insufficient_energy_tagged(self, params):
        apex = ApexState(x_dot=1.0, y=0.15)
        inputs = ControlInputs(p_bar=-0.5, k_theta=0.05)
        with pytest.raises(InsufficientEnergy) as exc:
            return_map_numeric(apex, inputs, params)
        assert exc.value.phase == "aoa"

    def test_failure_phase_tagging(self, params):
        # momentum target opposing the travel direction swings the leg
        # backward, so the mass is still descending when the leg unloads
        apex = ApexState(x_dot=1.0, y=0.25)
        inputs = ControlInputs(p_bar=2.0, k_theta=0.9)
        with pytest.raises(DescendingAtLiftoff) as exc:
            return_map_numeric(apex, inputs, params)
        assert exc.value.phase == "ascent"

    def test_steps_are_a_config_error_not_a_gait_failure(self, params):
        with pytest.raises(ValueError, match="^control_dt must be a whole") \
                as exc:
            return_map_numeric(ApexState(x_dot=1.5, y=0.25),
                               ControlInputs(p_bar=-1.0, k_theta=0.5),
                               params, dt=3e-4)
        assert not isinstance(exc.value, SlipError)

    def test_recorder_uses_the_model_laws(self, params, monkeypatch):
        # one recorded hop, checked bit for bit against the stance kernel's
        # own touchdown and liftoff states and the liftoff reset
        kernel = []
        real = simulate.integrate_stance

        def recorded(td, *args, **kwargs):
            lo, seg = real(td, *args, **kwargs)
            kernel.append((td, lo, seg))
            return lo, seg

        monkeypatch.setattr(simulate, "integrate_stance", recorded)
        apex = ApexState(x_dot=1.2, y=0.24)
        inputs = ControlInputs(p_bar=-0.9, k_theta=0.55)
        nxt, traj = return_map_numeric(apex, inputs, params)
        [(td, lo, seg)] = kernel
        events = {e.name: e for e in traj.events}
        assert list(events["touchdown"].state.items()) == list(
            dataclasses.asdict(td).items())
        assert list(events["liftoff"].state.items()) == list(
            dataclasses.asdict(lo).items()) + [("p_theta", seg.p_liftoff)]
        assert list(events["apex"].state)[:2] == ["x_dot", "y"]
        assert events["apex"].state["x_dot"] == nxt.x_dot
        assert events["apex"].state["y"] == nxt.y

        toe = apex.x_dot * events["touchdown"].t + params.r0 * math.sin(
            td.theta)
        stance = [s for s in traj.samples if s.phase == "stance"]
        assert len(stance) == len(seg.samples)
        for s in stance:
            x_dot, y, y_dot = liftoff_reset(s.r, s.r_dot, s.theta,
                                            s.theta_dot)
            assert (s.y, s.x_dot, s.y_dot) == (y, x_dot, y_dot)
            assert s.x == toe - s.r * math.sin(s.theta)
        first_ascent = next(s for s in traj.samples if s.phase == "ascent")
        assert first_ascent.t == events["liftoff"].t
        assert first_ascent.x == toe - lo.r * math.sin(lo.theta)

    def test_record_false_skips_trajectory(self, params, monkeypatch):
        # and hands record=False on to the stance, which then carries no
        # samples and no bottom time
        segments = []
        real = simulate.integrate_stance

        def kept(*args, **kwargs):
            lo, seg = real(*args, **kwargs)
            segments.append(seg)
            return lo, seg

        monkeypatch.setattr(simulate, "integrate_stance", kept)
        apex = ApexState(x_dot=1.2, y=0.24)
        inputs = ControlInputs(p_bar=-0.9, k_theta=0.55)
        nxt, traj = return_map_numeric(apex, inputs, params, record=False)
        assert traj is None
        nxt2, _ = return_map_numeric(apex, inputs, params, record=True)
        assert nxt2.x_dot == nxt.x_dot and nxt2.y == nxt.y
        assert [(s.t_bottom is None, len(s.samples) == 0)
                for s in segments] == [(True, True), (False, False)]


class TestTrajectoryValidate:
    @staticmethod
    def flight(t, phase):
        return TrajectorySample(t, phase, None, None, None, None, 0.0, 0.2,
                                1.0, 0.0, None)

    def test_rejects_a_phase_out_of_cycle(self):
        traj = HybridTrajectory([self.flight(0.0, "descent"),
                                 self.flight(0.001, "ascent")])
        with pytest.raises(ValueError, match="^phase 'descent' -> 'ascent' "
                                             "breaks the"):
            traj.validate()
        # a phase outside the cycle, alone or followed by one in it
        for samples in ([self.flight(0.0, "hover")],
                        [self.flight(0.0, "hover"),
                         self.flight(0.001, "descent")]):
            with pytest.raises(ValueError, match="^unknown phase 'hover' at "
                                                 "t = 0.0$"):
                HybridTrajectory(samples).validate()

    def test_rejects_a_sample_out_of_its_layout(self):
        # a descent sample with a leg length and a torque, then a stance
        # sample without a torque: each breaks its phase's layout
        descent = self.flight(0.0, "descent")._replace(r=0.2, tau=5.0)
        stance = TrajectorySample(0.001, "stance", 0.2, -1.0, 0.3, -2.0,
                                  0.0, 0.2, 1.0, 0.0, None)
        for samples in ([descent, stance], [stance]):
            with pytest.raises(ValueError, match=(
                    f"^{samples[0].phase} sample at t = {samples[0].t} "
                    "breaks its phase's layout$")):
                HybridTrajectory(samples).validate()
        HybridTrajectory([stance._replace(tau=0.5)]).validate()

    def test_rejects_a_flight_speed_that_changes(self):
        samples = [self.flight(0.0, "ascent"), self.flight(0.001, "ascent"),
                   self.flight(0.002, "ascent")._replace(x_dot=1.5)]
        HybridTrajectory(samples[:2]).validate()
        with pytest.raises(ValueError, match="^x_dot changes within the "
                                             "ascent run at t = 0.002$"):
            HybridTrajectory(samples).validate()

    def test_a_recorded_trajectory_validates(self, params):
        _, traj = return_map_numeric(ApexState(x_dot=1.2, y=0.24),
                                     ControlInputs(p_bar=-0.9, k_theta=0.55),
                                     params)
        traj.validate()
        # one launch speed in each flight run: the one float object
        assert {(s.phase, id(s.x_dot)) for s in traj.samples
                if s.phase != "stance"} == {
            ("descent", id(traj.samples[0].x_dot)),
            ("ascent", id(traj.samples[-1].x_dot))}

    def test_rejects_event_times_not_increasing(self):
        traj = HybridTrajectory(events=[TrajectoryEvent("touchdown", 0.1),
                                        TrajectoryEvent("liftoff", 0.1)])
        with pytest.raises(ValueError,
                           match="^event times not increasing: 0.1 >= 0.1$"):
            traj.validate()


class TestScalarType:
    def test_numpy_scalar_apex_gives_the_float_result(self, params):
        # Newton builds apex states from numpy arrays; the state types
        # store plain floats, so the stance kernel never runs on numpy
        # scalars and the map result does not depend on the input type
        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        z = np.array([1.87, 0.242])
        from_numpy = ApexState(z[0], z[1])
        from_float = ApexState(float(z[0]), float(z[1]))
        assert type(from_numpy.x_dot) is float
        assert type(from_numpy.y) is float
        got, _ = return_map_numeric(from_numpy, inputs, params, dt=1e-5,
                                    record=False)
        want, _ = return_map_numeric(from_float, inputs, params, dt=1e-5,
                                     record=False)
        assert type(got.x_dot) is float and type(got.y) is float
        assert got.x_dot == want.x_dot and got.y == want.y

    def test_state_types_store_floats(self):
        f = np.float64
        states = (ApexState(x_dot=f(1.0), y=f(0.2)),
                  StanceState(r=f(0.2), r_dot=f(-1.0), theta=f(0.3),
                              theta_dot=f(-3.0)))
        for state in states:
            for name, value in vars(state).items():
                assert type(value) is float, name


class TestCsvExport:
    def test_deterministic_and_well_formed(self, params, tmp_path):
        apex = ApexState(x_dot=1.2, y=0.24)
        inputs = ControlInputs(p_bar=-0.9, k_theta=0.55)
        _, traj = return_map_numeric(apex, inputs, params)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(traj, p1)
        write_trajectory_csv(traj, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "t,phase,r,r_dot,theta,theta_dot,x,y,x_dot,y_dot,tau"
        assert len(lines) == len(traj.samples) + 1
        first_flight = lines[1].split(",")
        assert first_flight[1] == "descent"
        assert first_flight[2] == ""   # no leg state in flight
        assert first_flight[10] == ""  # no torque in flight
        stance_row = next(ln for ln in lines if ",stance," in ln).split(",")
        assert all(cell != "" for cell in stance_row)

    def test_sample_rate(self, params):
        apex = ApexState(x_dot=1.2, y=0.24)
        inputs = ControlInputs(p_bar=-0.9, k_theta=0.55)
        _, traj = return_map_numeric(apex, inputs, params)
        stance_t = [s.t for s in traj.samples if s.phase == "stance"]
        dts = np.diff(stance_t)
        assert np.allclose(dts, 1e-3, atol=1e-12)
