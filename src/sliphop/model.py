"""Domain types, the flight/stance coordinate-change reset maps, and the
touchdown state stance starts from.

The hop chain (simulate.compose_return_map) runs on plain floats, and
each law here is one function on floats: check_flight and check_stance
are the checks of a flight state (x_dot, y, y_dot) and of a stance
state on their fields, touchdown_reset and liftoff_reset the reset
maps, check_touchdown_leg the touchdown check. StanceState runs
check_stance in __post_init__.

Conventions: SI units throughout, no internal nondimensionalization.
The leg angle theta is measured from vertical; theta > 0 means the toe
leads the body in the +x direction, so forward travel (+x_dot) pairs
with a negative target angular momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPhysical, TouchdownMismatch

# Resets are exact coordinate changes; this slack only absorbs
# event-detection error at touchdown (flight height and leg length).
TOUCHDOWN_TOL = 1e-9


class StateCheckError(ValueError):
    """A state failed the check of its class: a non-finite field, y <= 0
    or r <= 0. Building such a state is the caller's error, so this is a
    ValueError and not a SlipError; inside a hop,
    simulate.compose_return_map re-raises it as a phase-tagged
    errors.InvalidState."""


def _require_finite(name: str, value: float,
                    error: type[ValueError] = ValueError) -> None:
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise error(f"{name} must be finite, got an int too large for a "
                    "float") from None
    if not finite:
        raise error(f"{name} must be finite, got {value!r}")


def _finite_floats(obj, names: tuple[str, ...],
                   error: type[ValueError] = StateCheckError) -> None:
    """Check each field is finite and store it as a Python float.

    The path of the parameters, the gait inputs and a state whose fields
    are not all exact floats: the first non-finite field raises error by
    name, a non-number raises TypeError, and numpy scalars and ints are
    stored as float, so they cannot carry into the pure-Python maps.
    """
    for name in names:
        value = getattr(obj, name)
        _require_finite(name, value, error)
        if type(value) is not float:
            object.__setattr__(obj, name, float(value))


def _raise_nonfinite(names: tuple[str, ...], values: tuple) -> None:
    """Raise StateCheckError naming the first non-finite value, if any.

    The callers first test all values in one expression: 0.0 * x1 * ...
    * xn == 0.0 holds only when none is NaN or infinite, and overflows
    only on an int too large for a float.
    """
    for name, value in zip(names, values):
        _require_finite(name, value, StateCheckError)


_STANCE_FIELDS = ("r", "r_dot", "theta", "theta_dot")
_FLIGHT_FIELDS = ("x_dot", "y", "y_dot")


def check_stance(r: float, r_dot: float, theta: float,
                 theta_dot: float) -> None:
    """The checks of a StanceState on its fields: each finite
    (StateCheckError naming the first that is not), and r > 0."""
    try:
        if 0.0 * r * r_dot * theta * theta_dot == 0.0 and r > 0.0:
            return
    except OverflowError:  # an int too large for a float
        pass
    _raise_nonfinite(_STANCE_FIELDS, (r, r_dot, theta, theta_dot))
    raise StateCheckError(f"r must be > 0, got {r}")


def check_flight(x_dot: float, y: float, y_dot: float) -> None:
    """The checks of a flight state (x_dot, y, y_dot): each finite
    (StateCheckError naming the first that is not), and y > 0."""
    try:
        if 0.0 * x_dot * y * y_dot == 0.0 and y > 0.0:
            return
    except OverflowError:  # an int too large for a float
        pass
    _raise_nonfinite(_FLIGHT_FIELDS, (x_dot, y, y_dot))
    raise StateCheckError(f"y must be > 0, got {y}")


@dataclass(frozen=True)
class SlipParams:
    """Physical constants of the point-mass hopper.

    m     mass (kg)
    k     spring constant (N/m)
    b     damping coefficient (N*s/m)
    r0    spring rest length (m)
    g     gravitational acceleration (m/s^2)
    """

    m: float
    k: float
    b: float
    r0: float
    g: float = 9.81

    def __post_init__(self):
        _finite_floats(self, ("m", "k", "b", "r0", "g"), ValueError)
        if self.m <= 0.0:
            raise ValueError(f"m must be > 0, got {self.m}")
        if self.k <= 0.0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if self.b < 0.0:
            raise ValueError(f"b must be >= 0, got {self.b}")
        if self.r0 <= 0.0:
            raise ValueError(f"r0 must be > 0, got {self.r0}")
        if self.g <= 0.0:
            raise ValueError(f"g must be > 0, got {self.g}")
        if not 0.0 < self.r_g < self.r0:
            raise ValueError(
                f"gravity-loaded length r_g = r0 - m*g/k = {self.r_g:.6g} "
                f"must lie in (0, r0)")
        # the dataclass hash of the fields, once: the gait caches hash
        # the parameters on every call
        object.__setattr__(self, "_hash", hash(
            (self.m, self.k, self.b, self.r0, self.g)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def r_g(self) -> float:
        """Gravity-loaded equilibrium leg length r0 - m*g/k."""
        return self.r0 - self.m * self.g / self.k

    @property
    def omega0(self) -> float:
        """Undamped radial natural frequency sqrt(k/m)."""
        return math.sqrt(self.k / self.m)


#: Reference hopper parameters used throughout the tests and as CLI defaults.
DEFAULT_PARAMS = SlipParams(m=3.3, k=4000.0, b=20.0, r0=0.2)


@dataclass(frozen=True)
class ControlInputs:
    """Gait knobs plus stance-controller configuration.

    p_bar    target angular momentum in stance (kg*m^2/s, negative for
             forward travel)
    k_theta  touchdown-angle gain in [0, 1]
    kp/ki/kd PID gains on the angular-momentum error; ki is a gain per
             control tick: the stance loop adds the error to its
             integral once per tick (no factor control_dt), so the
             integral gain per second is ki/control_dt, and a finer
             hold also raises it
    tau_max  hip torque saturation (N*m), > 0 and finite, or None
             for unlimited
    """

    p_bar: float
    k_theta: float
    kp: float = 100.0
    ki: float = 0.2
    kd: float = 0.05
    tau_max: float | None = None

    def __post_init__(self):
        p_bar, k_theta, kp, ki, kd = (self.p_bar, self.k_theta, self.kp,
                                      self.ki, self.kd)
        if not (float is type(p_bar) is type(k_theta) is type(kp)
                is type(ki) is type(kd)
                and 0.0 * p_bar * k_theta * kp * ki * kd == 0.0):
            _finite_floats(self, ("p_bar", "k_theta", "kp", "ki", "kd"),
                           ValueError)
        if not 0.0 <= self.k_theta <= 1.0:
            raise ValueError(f"k_theta must be in [0, 1], got {self.k_theta}")
        if self.tau_max is not None:
            if not 0.0 < self.tau_max < math.inf:
                raise ValueError("tau_max must be > 0 and finite when set "
                                 f"(None for unlimited), got {self.tau_max}")
            _finite_floats(self, ("tau_max",), ValueError)


@dataclass(frozen=True)
class StanceState:
    """Polar stance state [r, r_dot, theta, theta_dot] about the toe."""

    r: float
    r_dot: float
    theta: float
    theta_dot: float

    def __post_init__(self):
        if not (float is type(self.r) is type(self.r_dot)
                is type(self.theta) is type(self.theta_dot)):
            _finite_floats(self, _STANCE_FIELDS)
        check_stance(self.r, self.r_dot, self.theta, self.theta_dot)

    def angular_momentum(self, params: SlipParams) -> float:
        """p_theta = m * r^2 * theta_dot about the toe."""
        return params.m * self.r * self.r * self.theta_dot

    def kinetic_energy(self, params: SlipParams) -> float:
        return 0.5 * params.m * (
            self.r_dot ** 2 + (self.r * self.theta_dot) ** 2)


@dataclass(frozen=True)
class ApexState:
    """Apex Poincare-section state [x_dot, y] (y_dot = 0 by definition)."""

    x_dot: float
    y: float

    def __post_init__(self):
        x_dot, y = self.x_dot, self.y
        if not (float is type(x_dot) is type(y) and 0.0 * x_dot * y == 0.0):
            _finite_floats(self, ("x_dot", "y"))
        if self.y <= 0.0:
            raise StateCheckError(f"apex height must be > 0, got {self.y}")


def polar_to_cartesian(r: float, r_dot: float, theta: float,
                       theta_dot: float) -> tuple[float, float, float, float]:
    """Mass position and velocity (x, y, x_dot, y_dot) relative to the toe
    from the polar leg state: x = -r*sin(theta), y = r*cos(theta) and
    their time derivatives. The one copy of this coordinate change."""
    c = math.cos(theta)
    sn = math.sin(theta)
    return (-r * sn, r * c, -theta_dot * r * c - r_dot * sn,
            -theta_dot * r * sn + r_dot * c)


def liftoff_reset(r: float, r_dot: float, theta: float,
                  theta_dot: float) -> tuple[float, float, float]:
    """Liftoff reset on floats: the flight state (x_dot, y, y_dot) of
    polar_to_cartesian, checked by check_flight."""
    _, y, x_dot, y_dot = polar_to_cartesian(r, r_dot, theta, theta_dot)
    check_flight(x_dot, y, y_dot)
    return x_dot, y, y_dot


def check_touchdown_leg(r: float, r_dot: float, params: SlipParams) -> None:
    """Stance starts at touchdown: raises ValueError unless the leg length
    r is the rest length (within TOUCHDOWN_TOL), NonPhysical unless the
    leg compresses (r_dot < 0)."""
    if abs(r - params.r0) > TOUCHDOWN_TOL:
        raise ValueError(f"touchdown r = {r} must equal r0 = {params.r0}")
    if r_dot >= 0.0:
        raise NonPhysical(f"touchdown r_dot = {r_dot:.4f} >= 0")


def touchdown_reset(x_dot: float, y: float, y_dot: float, theta_td: float,
                    params: SlipParams) -> tuple[float, float]:
    """Touchdown reset on floats: the leg rates (r_dot, theta_dot) at
    rest length r0 and leg angle theta_td, checked as a StanceState.

    Requires the flight height to match the touchdown geometry
    y = r0*cos(theta_td) within TOUCHDOWN_TOL; raises TouchdownMismatch
    otherwise.
    """
    c = math.cos(theta_td)
    y_td = params.r0 * c
    if abs(y - y_td) > TOUCHDOWN_TOL:
        raise TouchdownMismatch(
            f"flight height {y:.12g} != r0*cos(theta_td) = {y_td:.12g}")
    sn = math.sin(theta_td)
    r_dot = -sn * x_dot + c * y_dot
    theta_dot = (-c * x_dot - sn * y_dot) / params.r0
    check_stance(params.r0, r_dot, theta_td, theta_dot)
    return r_dot, theta_dot
