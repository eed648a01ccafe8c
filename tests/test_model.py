import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sliphop import (ApexState, ControlInputs, NonPhysical, SlipError,
                     SlipParams, StanceState, TouchdownMismatch)
from sliphop.model import (TOUCHDOWN_TOL, check_flight, check_stance,
                           check_touchdown_leg, liftoff_reset,
                           polar_to_cartesian, touchdown_reset)


class TestSlipParams:
    def test_r_g_value(self, params):
        # 0.2 - 3.3*9.81/4000
        assert params.r_g == pytest.approx(0.19191, abs=1e-4)

    def test_r_g_formula(self, params):
        assert params.r_g == params.r0 - params.m * params.g / params.k

    @pytest.mark.parametrize("field,value", [
        ("m", 0.0), ("m", -1.0), ("k", 0.0), ("b", -0.1), ("r0", 0.0),
        ("g", 0.0),
    ])
    def test_rejects_bad_values(self, field, value):
        kwargs = dict(m=3.3, k=4000.0, b=20.0, r0=0.2, g=9.81)
        kwargs[field] = value
        with pytest.raises(ValueError):
            SlipParams(**kwargs)

    def test_rejects_sagging_spring(self):
        # m*g/k >= r0 leaves no gravity-loaded length
        with pytest.raises(ValueError):
            SlipParams(m=100.0, k=10.0, b=0.0, r0=0.2)


    def test_hash_is_the_dataclass_hash_of_the_fields(self, params):
        # computed once, at construction, with the dataclass's value;
        # equality, asdict, replace and fields see the five fields only
        assert hash(params) == hash((params.m, params.k, params.b,
                                     params.r0, params.g))
        assert [f.name for f in dataclasses.fields(params)] == [
            "m", "k", "b", "r0", "g"]
        assert dataclasses.asdict(params) == {
            "m": params.m, "k": params.k, "b": params.b, "r0": params.r0,
            "g": params.g}
        twin = SlipParams(np.float64(params.m), int(params.k), params.b,
                          params.r0, params.g)
        assert twin == params and hash(twin) == hash(params)
        heavier = dataclasses.replace(params, m=4.0)
        assert heavier != params
        assert hash(heavier) == hash(dataclasses.astuple(heavier))
        assert hash(pickle.loads(pickle.dumps(params))) == hash(params)


class TestControlInputs:
    def test_k_theta_bounds(self):
        with pytest.raises(ValueError):
            ControlInputs(p_bar=-1.0, k_theta=1.2)
        with pytest.raises(ValueError):
            ControlInputs(p_bar=-1.0, k_theta=-0.1)

    def test_tau_max_positive_or_none(self):
        ControlInputs(p_bar=-1.0, k_theta=0.5, tau_max=None)
        with pytest.raises(ValueError):
            ControlInputs(p_bar=-1.0, k_theta=0.5, tau_max=0.0)
        with pytest.raises(ValueError):
            ControlInputs(p_bar=-1.0, k_theta=0.5, tau_max=math.nan)

    def test_tau_max_finite(self):
        # None means unlimited; an infinite tau_max would be written to
        # report.json and single.json as Infinity, which is not JSON
        with pytest.raises(ValueError, match="^tau_max must be > 0 and "
                                             r"finite when set \(None for "
                                             r"unlimited\), got inf$"):
            ControlInputs(p_bar=-1.0, k_theta=0.5, tau_max=math.inf)

    @pytest.mark.parametrize("gain", ["kp", "ki", "kd"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_gains_finite(self, gain, value):
        # a NaN gain would otherwise run every simulator stance to its
        # time budget and surface as a stance failure
        with pytest.raises(ValueError, match=f"^{gain} must be finite"):
            ControlInputs(p_bar=-1.0, k_theta=0.5, **{gain: value})


    @pytest.mark.parametrize("kind", [float, np.float64, int])
    def test_gains_stored_as_floats(self, kind):
        values = {"p_bar": -1.0, "k_theta": 1.0, "kp": 100.0, "ki": 2.0,
                  "kd": 5.0}
        inputs = ControlInputs(**{n: kind(v) for n, v in values.items()})
        assert {n: type(getattr(inputs, n)) for n in values} == dict.fromkeys(
            values, float)
        assert inputs == ControlInputs(**values)

    @pytest.mark.parametrize("value", [math.nan, math.inf,
                                       np.float64(-math.inf)])
    def test_first_non_finite_input_named(self, value):
        for name in ("p_bar", "k_theta"):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ControlInputs(**{"p_bar": -1.0, "k_theta": 0.5, name: value,
                                 "kd": math.nan})


class TestStateValidation:
    def test_stance_requires_positive_r(self):
        with pytest.raises(ValueError):
            StanceState(r=0.0, r_dot=0.0, theta=0.0, theta_dot=0.0)

    def test_flight_requires_positive_y(self):
        with pytest.raises(ValueError):
            check_flight(x_dot=0.0, y=-0.1, y_dot=0.0)

    def test_apex_requires_positive_y(self):
        with pytest.raises(ValueError):
            ApexState(x_dot=1.0, y=0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StanceState(r=0.2, r_dot=math.nan, theta=0.0, theta_dot=0.0)

    @pytest.mark.parametrize("build", [
        lambda: StanceState(r=0.0, r_dot=0.0, theta=0.0, theta_dot=0.0),
        lambda: check_flight(x_dot=0.0, y=-0.1, y_dot=0.0),
        lambda: ApexState(x_dot=1.0, y=math.nan)])
    def test_a_failed_check_is_a_value_error_not_a_gait_failure(self, build):
        # only inside a hop does it become a phase-tagged InvalidState
        with pytest.raises(ValueError) as info:
            build()
        assert not isinstance(info.value, SlipError)

    @pytest.mark.parametrize("bad", ["0.2", None, 1j])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(TypeError):
            StanceState(r=0.2, r_dot=bad, theta=0.0, theta_dot=0.0)


_HUGE = 10 ** 400  # an int that no float can hold


@pytest.mark.parametrize("name,build", [
    ("kp", lambda: ControlInputs(-1.0, 0.5, kp=_HUGE)),
    ("p_bar", lambda: ControlInputs(-_HUGE, 0.5)),
    ("tau_max", lambda: ControlInputs(-1.0, 0.5, tau_max=_HUGE)),
    ("k", lambda: SlipParams(m=3.3, k=_HUGE, b=20.0, r0=0.2)),
    ("x_dot", lambda: ApexState(_HUGE, 0.2)),
    ("r_dot", lambda: StanceState(0.2, _HUGE, 0, 0)),
    ("x_dot", lambda: check_flight(_HUGE, 0.2, 0)),
    ("theta", lambda: check_stance(0.2, -1.0, _HUGE, 0.0)),
], ids=["ControlInputs.kp", "ControlInputs.p_bar", "ControlInputs.tau_max",
        "SlipParams.k", "ApexState", "StanceState", "check_flight",
        "check_stance"])
def test_int_too_large_for_a_float_is_a_value_error(name, build):
    # float() of such an int raises OverflowError; the checks name the
    # field instead, as for any other value that is not a finite float
    with pytest.raises(ValueError, match=f"^{name} must be finite, got an "
                                         "int too large for a float$"):
        build()


# (state type, fields in order, the field that must be > 0, its message)
STATE_TYPES = [
    (StanceState, ("r", "r_dot", "theta", "theta_dot"), "r",
     "r must be > 0"),
    (ApexState, ("x_dot", "y"), "y", "apex height must be > 0"),
]
# the state types and the flight state's check, which takes its fields
# by the same names; the check, like the hop chain that calls it, takes
# Python floats, while a state type stores a numpy scalar as a float
STATE_CHECKS = STATE_TYPES + [
    (check_flight, ("x_dot", "y", "y_dot"), "y", "y must be > 0")]


def _as_given(data, cls, value):
    """value, or for a state type possibly its numpy scalar."""
    if isinstance(cls, type) and data.draw(st.booleans(), label="float64"):
        return np.float64(value)
    return value
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _valid_fields(data, names, signed):
    return {n: data.draw(positive if n == signed else finite, label=n)
            for n in names}


@given(st.sampled_from(STATE_TYPES), st.data())
def test_exact_floats_stored_bit_for_bit(state_type, data):
    cls, names, signed, _ = state_type
    values = _valid_fields(data, names, signed)
    state = cls(**values)
    for n in names:
        assert type(getattr(state, n)) is float
        assert _bits(getattr(state, n)) == _bits(values[n])


@given(st.sampled_from(STATE_TYPES), st.data())
def test_numpy_scalars_and_ints_stored_as_float(state_type, data):
    cls, names, signed, _ = state_type
    values = _valid_fields(data, names, signed)
    given_values = {}
    for n in names:
        kind = data.draw(st.sampled_from(["float", "float64", "int"]),
                         label=f"{n} kind")
        if kind == "float64":
            given_values[n] = np.float64(values[n])
        elif kind == "int":
            lo = 1 if n == signed else -2 ** 53
            given_values[n] = data.draw(st.integers(lo, 2 ** 53), label=n)
        else:
            given_values[n] = values[n]
    state = cls(**given_values)
    for n in names:
        assert type(getattr(state, n)) is float
        assert getattr(state, n) == given_values[n]


@given(st.sampled_from(STATE_CHECKS), st.data())
def test_non_finite_field_named(state_type, data):
    cls, names, signed, _ = state_type
    values = _valid_fields(data, names, signed)
    bad = data.draw(st.sets(st.sampled_from(names), min_size=1), label="bad")
    for n in bad:
        value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        values[n] = _as_given(data, cls, value)
    first = next(n for n in names if n in bad)
    with pytest.raises(ValueError, match=f"^{first} must be finite"):
        cls(**values)


@given(st.sampled_from(STATE_CHECKS), st.data())
def test_sign_check_fires(state_type, data):
    cls, names, signed, message = state_type
    values = _valid_fields(data, names, signed)
    values[signed] = _as_given(data, cls, data.draw(
        st.floats(max_value=0.0, allow_infinity=False), label=signed))
    with pytest.raises(ValueError, match=f"^{message}"):
        cls(**values)


class TestStanceToFlight:
    """The liftoff reset, model.liftoff_reset."""

    def test_vertical_symmetry(self):
        x_dot, y, y_dot = liftoff_reset(0.2, 2.0, 0.0, -5.0)
        assert x_dot == pytest.approx(1.0, abs=1e-15)
        assert y == pytest.approx(0.2, abs=1e-15)
        assert y_dot == pytest.approx(2.0, abs=1e-15)

    def test_rest_case(self):
        assert liftoff_reset(0.2, 0.0, 0.0, 0.0) == (0.0, 0.2, 0.0)

    def test_general_state(self):
        # frozen from direct evaluation of the reset formula
        x_dot, y, y_dot = liftoff_reset(0.19, 1.5, 0.3, -4.0)
        assert x_dot == pytest.approx(0.28277542174345127, rel=1e-14)
        assert y == pytest.approx(0.18151393293386514, rel=1e-14)
        assert y_dot == pytest.approx(1.657600090751027, rel=1e-14)


def test_polar_to_cartesian_position_and_velocity():
    # the reset's velocity is the time derivative of the toe-relative
    # position, here by a central difference along a uniform motion
    r, r_dot, theta, theta_dot = 0.19, 1.5, 0.3, -4.0
    h = 1e-6
    xp, yp, _, _ = polar_to_cartesian(r + h * r_dot, r_dot,
                                      theta + h * theta_dot, theta_dot)
    xm, ym, _, _ = polar_to_cartesian(r - h * r_dot, r_dot,
                                      theta - h * theta_dot, theta_dot)
    x, y, x_dot, y_dot = polar_to_cartesian(r, r_dot, theta, theta_dot)
    assert (x, y) == (-r * math.sin(theta), r * math.cos(theta))
    assert x_dot == pytest.approx((xp - xm) / (2 * h), rel=1e-8)
    assert y_dot == pytest.approx((yp - ym) / (2 * h), rel=1e-8)


class TestCheckTouchdown:
    """The touchdown check, model.check_touchdown_leg."""

    @pytest.mark.parametrize("offset", [0.0, TOUCHDOWN_TOL, -TOUCHDOWN_TOL])
    def test_accepts_rest_length_within_tolerance(self, params, offset):
        check_touchdown_leg(params.r0 + offset, -1.0, params)

    @pytest.mark.parametrize("offset", [2 * TOUCHDOWN_TOL,
                                        -2 * TOUCHDOWN_TOL])
    def test_rejects_rest_length_past_tolerance(self, params, offset):
        with pytest.raises(ValueError, match="^touchdown r = .* must equal"):
            check_touchdown_leg(params.r0 + offset, -1.0, params)

    def test_rejects_a_leg_at_rest(self, params):
        with pytest.raises(NonPhysical,
                           match="^touchdown r_dot = 0.0000 >= 0$"):
            check_touchdown_leg(params.r0, 0.0, params)


class TestFlightToStance:
    """The touchdown reset, model.touchdown_reset: the leg rates
    (r_dot, theta_dot) at rest length r0."""

    def test_vertical_case(self, params):
        r_dot, theta_dot = touchdown_reset(1.0, 0.2, -2.0, 0.0, params)
        assert r_dot == pytest.approx(-2.0, abs=1e-15)
        assert theta_dot == pytest.approx(-5.0, abs=1e-15)

    def test_general_state(self, params):
        # frozen from direct evaluation of the reset formula
        theta = 0.4
        r_dot, theta_dot = touchdown_reset(
            1.2, params.r0 * math.cos(theta), -1.8, theta, params)
        assert r_dot == pytest.approx(-2.125211799975574, rel=1e-14)
        assert theta_dot == pytest.approx(-2.021600883239455, rel=1e-14)

    def test_height_mismatch_raises(self, params):
        with pytest.raises(TouchdownMismatch):
            touchdown_reset(1.0, 0.21, -2.0, 0.0, params)


stance_at_r0 = st.builds(
    StanceState,
    r=st.just(0.2),
    r_dot=st.floats(-4.0, 4.0),
    theta=st.floats(-1.3, 1.3),
    theta_dot=st.floats(-15.0, 15.0),
)


@given(stance_at_r0)
def test_roundtrip_at_rest_length(s):
    params = SlipParams(m=3.3, k=4000.0, b=20.0, r0=0.2)
    flight = liftoff_reset(s.r, s.r_dot, s.theta, s.theta_dot)
    r_dot, theta_dot = touchdown_reset(*flight, s.theta, params)
    assert r_dot == pytest.approx(s.r_dot, abs=1e-12)
    assert theta_dot == pytest.approx(s.theta_dot, abs=1e-12)


@given(stance_at_r0)
def test_resets_preserve_kinetic_energy(s):
    params = SlipParams(m=3.3, k=4000.0, b=20.0, r0=0.2)
    ke_stance = s.kinetic_energy(params)
    x_dot, _, y_dot = liftoff_reset(s.r, s.r_dot, s.theta, s.theta_dot)
    ke_flight = 0.5 * params.m * (x_dot ** 2 + y_dot ** 2)
    assert ke_flight == pytest.approx(ke_stance, rel=1e-12, abs=1e-15)
