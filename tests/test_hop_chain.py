"""The float hop chain against the dataclass chain it replaced.

Both apex maps pass plain floats from phase to phase. Their reference
(tests/_oracles.py) builds and validates a flight state or StanceState
at every phase boundary. For any apex and gait the two must agree: the
same ApexState bit for bit, or the same exception type, phase and
message. The one difference is a state check that fails: the reference
raises the state class's StateCheckError, a ValueError with no phase,
and the chain an InvalidState with the same message, tagged with the
phase it failed in.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from sliphop import (ApexState, ControlInputs, InvalidState, StanceState,
                     analytic, liftoff_time, return_map_analytic, simulate,
                     simulator_return_map)
from sliphop.analytic import flow_liftoff

from sliphop.model import StateCheckError

from _oracles import (flow_coeffs, reference_flow, reference_flow_coeffs,
                      reference_liftoff_time, reference_return_map_analytic,
                      reference_return_map_numeric,
                      reference_stance_map_analytic)

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# a band where most hops succeed, then any float ApexState accepts
_APEX = st.builds(ApexState, st.one_of(st.floats(-1.0, 5.0), _FINITE),
                  st.one_of(st.floats(0.01, 0.6), _POSITIVE))
_GAIT = st.builds(ControlInputs,
                  st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]),
                            _FINITE),
                  st.floats(0.0, 1.0))
# coarse steps keep each simulator hop to about 1 ms
_SIM_STEPS = {"dt": 1e-3, "control_dt": 1e-3}


def _bits(value) -> tuple:
    """The exact floats of a float, a tuple of floats or a state."""
    if isinstance(value, float):
        return (value.hex(),)
    if not isinstance(value, tuple):
        value = dataclasses.astuple(value)
    return tuple(v.hex() for v in value)


def _outcome(fn, *args, **kwargs) -> tuple:
    """The result's bits, or the exception's type, phase and message (the
    message tells which check raised a ValueError, which has no phase)."""
    try:
        return ("ok", _bits(fn(*args, **kwargs)))
    except Exception as err:  # every failure must match, not only SlipError
        return (type(err), getattr(err, "phase", None), str(err))


def _assert_same_outcome(new: tuple, reference: tuple) -> None:
    """new is the float chain's outcome, reference the dataclass chain's.
    They are equal, except that a failed state check (a StateCheckError
    in the reference) is an InvalidState with the same message, tagged
    with a phase after the angle of attack."""
    if reference[0] is StateCheckError:
        kind, phase, message = new
        assert (kind, message) == (InvalidState, reference[2])
        assert phase in ("descent", "touchdown", "stance", "ascent")
    else:
        assert new == reference


@settings(max_examples=500)
@given(apex=_APEX, gait=_GAIT)
@example(apex=ApexState(1.5, 0.24), gait=ControlInputs(-1.0, 0.5))
@example(apex=ApexState(12.29, 7.42), gait=ControlInputs(1.77, 0.94))
@example(apex=ApexState(-0.0, 0.2), gait=ControlInputs(-0.0, 0.5))
@example(apex=ApexState(1.0, 4.271090701434314e+151),
         gait=ControlInputs(0.0, 1.0))
def test_analytic_map_matches_the_dataclass_chain(params, apex, gait):
    _assert_same_outcome(
        _outcome(return_map_analytic, apex, gait, params),
        _outcome(reference_return_map_analytic, apex, gait, params))


@settings(max_examples=150)
@given(apex=_APEX, gait=_GAIT)
@example(apex=ApexState(1.5, 0.24), gait=ControlInputs(-1.0, 0.5))
@example(apex=ApexState(1.0, 0.25), gait=ControlInputs(2.0, 0.9))
def test_simulator_map_matches_the_dataclass_chain(params, apex, gait):
    _assert_same_outcome(
        _outcome(simulator_return_map, apex, gait, params, **_SIM_STEPS),
        _outcome(reference_return_map_numeric, apex, gait, params,
                 **_SIM_STEPS))


class _Stop(Exception):
    """Ends a hop at stance, once the stance map has seen its input."""


@given(angle=st.floats(-1.5, 1.5), k_theta=st.floats(0.0, 1.0))
@example(angle=-0.8830002814664268, k_theta=0.7836552326153898)
def test_chain_commands_k_theta_times_the_angle(params, angle, k_theta):
    # the touchdown law is written once, in compose_return_map: the stance
    # map gets k_theta times the solver's angle of attack, bit for bit
    seen = []

    def stance_map(r_dot, theta, theta_dot, inputs, params):
        seen.append(theta)
        raise _Stop

    inputs = ControlInputs(-1.0, k_theta)
    with pytest.raises(_Stop):
        simulate.compose_return_map(ApexState(1.0, 0.3), inputs, params,
                                    lambda *args: angle, stance_map)
    assert _bits(seen[0]) == _bits(k_theta * angle)


_TOUCHDOWN = st.builds(StanceState, st.floats(0.05, 0.4),
                       st.floats(-4.0, 1.0), st.floats(-1.2, 1.2),
                       st.floats(-20.0, 20.0))


@settings(max_examples=300)
@given(td=_TOUCHDOWN, p_bar=st.one_of(st.floats(-3.0, 3.0), _FINITE),
       t=st.floats(0.0, 0.2))
def test_flow_laws_match_the_dataclass_chain(params, td, p_bar, t):
    # the float laws _flow_coeffs (on the gait's cached constants, named
    # by the oracle module's flow_coeffs), _flow, liftoff_time and
    # flow_liftoff keep the dataclass chain's results bit for bit
    assert _outcome(flow_coeffs, td, p_bar, params) == _outcome(
        reference_flow_coeffs, td, p_bar, params)
    try:
        coeffs = flow_coeffs(td, p_bar, params)
    except Exception:
        return
    ref = reference_flow_coeffs(td, p_bar, params)
    assert _outcome(liftoff_time, coeffs, params) == _outcome(
        reference_liftoff_time, ref, params)
    assert _outcome(analytic._flow, t, coeffs, td.theta) == _outcome(
        lambda: reference_flow(t, ref, td.theta, p_bar, params)[:3])
    touchdown = StanceState(params.r0, td.r_dot, td.theta, td.theta_dot)
    assert _outcome(flow_liftoff, params.r0, td.r_dot, td.theta, p_bar,
                    params) == _outcome(reference_stance_map_analytic,
                                        touchdown, p_bar, params)


class TestGaitConstants:
    def test_cache_is_small_and_reused(self, params):
        cache = analytic._gait_constants
        assert 0 < cache.cache_info().maxsize <= 64
        flow_coeffs(StanceState(params.r0, -1.0, 0.3, -5.0), -0.987, params)
        hits = cache.cache_info().hits
        return_map_analytic(ApexState(1.5, 0.24),
                            ControlInputs(-0.987, 0.5), params)
        assert cache.cache_info().hits == hits + 1

    def test_signed_zero_momentum(self, params):
        # the cache cannot tell -0.0 from 0.0, so the constants it keeps
        # must not depend on the sign of p_bar
        td = StanceState(params.r0, -1.2, -0.0, 0.0)
        for p_bar in (0.0, -0.0, 0.0):
            assert _bits(flow_coeffs(td, p_bar, params)) == _bits(
                reference_flow_coeffs(td, p_bar, params))
            assert _bits(flow_liftoff(td.r, td.r_dot, td.theta, p_bar,
                                      params)) == _bits(
                reference_stance_map_analytic(td, p_bar, params))
        assert math.copysign(1.0, flow_coeffs(td, -0.0, params).x_rate) < 0
