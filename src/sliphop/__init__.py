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
* a fixed-point engine (closed-form quadratic solution plus Newton on
  either return map) with spectral-radius stability classification.
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
from .simulate import (HybridTrajectory, StanceSegment, TrajectoryEvent,
                       TrajectorySample, integrate_stance, return_map_numeric)
from .analytic import (StanceFlowCoeffs, StanceMapConstants, flow_coeffs,
                       bottom_time, liftoff_time, liftoff_time_bisect,
                       return_map_analytic, simplified_map_constants,
                       simplified_stance_map, stance_flow, theta_offset)
from .fixedpoint import (ANALYTIC_NUMERIC, CLOSED_FORM, FixedPointResult,
                         SIMULATOR_NUMERIC, TouchdownFixedPoint,
                         closed_form_fixed_point, energy_speed_constraints,
                         numeric_fixed_point, quadratic_roots, stability)
from .harness import (SweepConfig, SweepReport, run_single, run_sweep,
                      simulator_return_map, solve_point, write_trajectory_csv)

__version__ = "0.1.0"
