"""Hip-energized SLIP hopping: simulator, closed-form maps, fixed points.

The package provides three mutually validating routes to steady hopping
gaits of a damped spring-leg point-mass hopper whose speed is set by a
target stance angular momentum and whose touchdown angle aligns the
landing velocity with the leg:

* a full hybrid simulator (sixth-order Runge-Kutta stance integration,
  one step per control tick, event-localized touchdown/liftoff,
  ballistic flight),
* a closed-form approximate return map built on the linearized stance
  flow, and
* a fixed-point engine (closed-form quadratic solution plus Broyden's
  quasi-Newton iteration on either return map) with spectral-radius
  stability classification.

`import sliphop` loads the map and solver layers alone: errors, model,
numerics, control, simulate, analytic and fixedpoint. The stance kernel
(sliphop.stance) loads with the first stance integration and the hop
recorder (sliphop.trajectory) with the first recorded hop. The batch
front end's names (SweepConfig, SweepReport, run_single, run_sweep,
simulator_return_map, solve_point) load sliphop.harness on first use,
and the trajectory records (HybridTrajectory, a recorded trajectory's
phase runs and events, and TrajectoryEvent) and their writer
(write_trajectory_csv) sliphop.trajectory; _LAZY maps each such name to
its module.
"""

from .errors import (DegenerateQuadratic, DescendingAtLiftoff, FailedLiftoff,
                     GaitFailure, GroundFault, IllConditioned,
                     InsufficientEnergy, InvalidState, NegativeDiscriminant,
                     NoConvergence, NoLiftoffRoot, NonPhysical,
                     NonpositiveTime, NoRealFixedPoint, Overdamped, SlipError,
                     TouchdownMismatch, UnreachableTouchdown)
from .model import (ApexState, ControlInputs, DEFAULT_PARAMS, SlipParams,
                    StanceState)
from .control import solve_aoa_approx, solve_aoa_implicit, vertical_energy
from .simulate import StanceSegment, integrate_stance, return_map_numeric
from .analytic import (StanceMapConstants, bottom_time, liftoff_time,
                       return_map_analytic, return_map_analytic_jacobian,
                       simplified_map_constants, simplified_stance_map,
                       theta_offset)
from .fixedpoint import (ANALYTIC_NUMERIC, CLOSED_FORM, FixedPointResult,
                         SIMULATOR_NUMERIC, TouchdownFixedPoint,
                         closed_form_fixed_point, energy_speed_constraints,
                         numeric_fixed_point, quadratic_roots, stability)

__version__ = "0.1.0"

# name -> the submodule that owns it, imported on first use
_LAZY = {
    **dict.fromkeys(("SweepConfig", "SweepReport", "run_single", "run_sweep",
                     "simulator_return_map", "solve_point"), "harness"),
    **dict.fromkeys(("HybridTrajectory", "TrajectoryEvent",
                     "write_trajectory_csv"), "trajectory"),
}


def __getattr__(name):
    # PEP 562: called only for names the package does not yet hold
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
