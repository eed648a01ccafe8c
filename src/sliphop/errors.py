"""Exception hierarchy for gait computation failures.

Every failure mode of the hybrid gait (solver breakdowns, hybrid-event
failures, non-physical fixed points) gets its own class so callers can
react per mode. ``phase`` identifies where in the hop the failure
occurred when the error propagates out of a return-map evaluation.
"""

from __future__ import annotations


class SlipError(Exception):
    """Base class for all gait errors.

    Attributes
    ----------
    phase : str | None
        Hop phase tag ("aoa", "descent", "touchdown", "stance" or
        "ascent", which includes the liftoff reset) that
        simulate.compose_return_map attaches when the error surfaces
        from a return-map evaluation.
    """

    def __init__(self, *args, phase: str | None = None):
        super().__init__(*args)
        self.phase = phase


# --- controller / solver errors ---

class InsufficientEnergy(SlipError):
    """No admissible touchdown angle: apex too low for the commanded gain."""


class NoConvergence(SlipError):
    """Iterative solver exhausted its budget without meeting tolerance."""


class NegativeDiscriminant(SlipError):
    """Quadratic has no real roots."""


class DegenerateQuadratic(SlipError):
    """Leading and linear coefficients both vanish."""


# --- reset / flight errors ---

class TouchdownMismatch(SlipError):
    """Flight state height inconsistent with the commanded touchdown angle."""


class UnreachableTouchdown(SlipError):
    """Apex below touchdown height: premature-touchdown regime."""


class DescendingAtLiftoff(SlipError):
    """Vertical velocity negative at liftoff: immediate re-touchdown."""


class InvalidState(SlipError):
    """A state of the hop chain failed the check of its state class (a
    non-finite field, y <= 0 or r <= 0); the message is the check's."""


# --- stance errors ---

class FailedLiftoff(SlipError):
    """Leg force never returned to zero within the time budget."""


class GroundFault(SlipError):
    """Body height reached the ground during stance."""


class Overdamped(SlipError):
    """Damping ratio >= 1: the underdamped closed forms do not apply."""


class NoLiftoffRoot(SlipError):
    """Liftoff-time arccos argument left [-1, 1]."""


class NonpositiveTime(SlipError):
    """Liftoff-time branch selection produced a non-physical time."""


# --- fixed-point errors ---

class NoRealFixedPoint(SlipError):
    """Fixed-point quadratic has a negative discriminant."""


class NonPhysical(SlipError):
    """Computed fixed point violates a physical sanity condition."""


class IllConditioned(SlipError):
    """Finite differences cannot resolve the return-map Jacobian."""


class GaitFailure(SlipError):
    """A map evaluation failed while iterating for a fixed point."""
