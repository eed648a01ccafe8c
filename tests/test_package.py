"""The package's import surface: what `import sliphop` loads, what the
first stance and the first recorded hop load, the names it hands on to
sliphop.harness and sliphop.trajectory, and the record types."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sliphop
from sliphop import harness, trajectory
from sliphop.analytic import StanceMapConstants
from sliphop.fixedpoint import FixedPointResult
from sliphop.simulate import StanceSegment
from sliphop.trajectory import HybridTrajectory, TrajectoryEvent

BATCH_NAMES = ("SweepConfig", "SweepReport", "run_single", "run_sweep",
               "simulator_return_map", "solve_point")
TRAJECTORY_NAMES = ("HybridTrajectory", "TrajectoryEvent",
                    "write_trajectory_csv")
# each name the package loads on first use, and the module that owns it
LAZY_NAMES = {**dict.fromkeys(BATCH_NAMES, harness),
              **dict.fromkeys(TRAJECTORY_NAMES, trajectory)}


def _fresh_stdout(code: str) -> str:
    """What code prints in a fresh interpreter that imports this src/."""
    src = str(Path(sliphop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_out_the_batch_front_end():
    assert _fresh_stdout("""
        import sys
        import sliphop
        print(sorted(m for m in ("sliphop.harness", "sliphop.cli")
                     if m in sys.modules))
    """) == "[]\n"


def test_maps_load_the_stance_kernel_and_the_recorder_on_first_use():
    # the closed form and the analytic map need neither the stance
    # kernel nor the recorder; an unrecorded simulator hop loads the
    # kernel alone, and the first recorded hop the recorder
    assert _fresh_stdout("""
        import sys
        from sliphop import (ControlInputs, DEFAULT_PARAMS,
                             closed_form_fixed_point, return_map_analytic,
                             return_map_analytic_jacobian,
                             return_map_numeric)

        def loaded():
            print([m for m in ("sliphop.stance", "sliphop.trajectory",
                               "sliphop.harness") if m in sys.modules])

        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        apex = closed_form_fixed_point(-1.0, 0.5, DEFAULT_PARAMS).apex
        return_map_analytic(apex, inputs, DEFAULT_PARAMS)
        return_map_analytic_jacobian(apex, inputs, DEFAULT_PARAMS)
        loaded()
        return_map_numeric(apex, inputs, DEFAULT_PARAMS, record=False)
        loaded()
        return_map_numeric(apex, inputs, DEFAULT_PARAMS, record=True)
        loaded()
    """) == ("[]\n['sliphop.stance']\n"
             "['sliphop.stance', 'sliphop.trajectory']\n")


def test_src_imports_the_standard_library_alone():
    # site may preload packages (a setuptools hook, certifi), so only the
    # modules that sliphop's imports and its first maps load are counted
    assert _fresh_stdout("""
        import sys
        before = set(sys.modules)
        import sliphop
        import sliphop.cli
        import sliphop.harness
        from sliphop import (ControlInputs, DEFAULT_PARAMS,
                             closed_form_fixed_point, return_map_analytic,
                             return_map_numeric)

        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        apex = closed_form_fixed_point(-1.0, 0.5, DEFAULT_PARAMS).apex
        return_map_analytic(apex, inputs, DEFAULT_PARAMS)
        return_map_numeric(apex, inputs, DEFAULT_PARAMS, record=True)
        assert "sliphop.stance" in sys.modules
        assert "sliphop.trajectory" in sys.modules
        print(sorted({m.partition(".")[0] for m in set(sys.modules) - before}
                     - set(sys.stdlib_module_names) - {"sliphop"}))
    """) == "[]\n"


def _resolves_to_its_module(name):
    want = getattr(LAZY_NAMES[name], name)
    assert getattr(sliphop, name) is want
    namespace = {}
    exec(f"from sliphop import {name}", namespace)
    assert namespace[name] is want


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_batch_names_resolve_to_the_harness(name):
    _resolves_to_its_module(name)


@pytest.mark.parametrize("name", TRAJECTORY_NAMES)
def test_trajectory_names_resolve_to_the_recorder(name):
    _resolves_to_its_module(name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sliphop.no_such_name


@pytest.mark.parametrize("cls", [sliphop.ControlInputs, sliphop.SlipParams,
                                 sliphop.ApexState,
                                 sliphop.TouchdownFixedPoint,
                                 harness.SweepConfig])
def test_value_types_stay_dataclasses(cls):
    # the CLI, the harness and the benchmark call replace and asdict on them
    assert dataclasses.is_dataclass(cls)


def test_only_the_value_types_are_dataclasses():
    # results are records (named tuples, below), built once and never
    # assigned to; a dataclass under src/ is one of the value types
    modules = [importlib.import_module(f"sliphop.{m.name}")
               for m in pkgutil.iter_modules(sliphop.__path__)]
    found = {name for mod in modules
             for name, cls in inspect.getmembers(mod, inspect.isclass)
             if cls.__module__ == mod.__name__
             and dataclasses.is_dataclass(cls)}
    assert found == {"SlipParams", "ControlInputs", "StanceState",
                     "ApexState", "TouchdownFixedPoint", "SweepConfig"}


@pytest.mark.parametrize("cls,fields,defaults", [
    (TrajectoryEvent, ("name", "t", "state"), {"state": None}),
    (StanceSegment, ("t_liftoff", "t_bottom", "p_liftoff", "samples"), {}),
    (StanceMapConstants, ("c1", "c2", "c3", "c4", "t_lo"), {}),
    (FixedPointResult, ("apex", "touchdown", "jacobian", "spectral_radius",
                        "stable", "provenance", "residual", "newton_steps"),
     {"newton_steps": 0}),
    (harness.PointOutcome, ("p_bar", "k_theta", "pipeline", "result",
                            "status"),
     {"result": None, "status": "converged"}),
    (harness.ErrorStats, ("predicted", "reference", "quantity", "n", "rms",
                          "percent_rms", "rms_over_mean_ref"), {}),
    (harness.SweepReport, ("config", "outcomes", "error_stats",
                           "runtime_s"), {}),
    (harness.SingleRunReport, ("hops", "trajectory", "final_apex",
                               "failure"), {"failure": None}),
    (HybridTrajectory, ("runs", "events"), {"runs": (), "events": ()}),
])
def test_records_are_named_tuples(cls, fields, defaults):
    assert issubclass(cls, tuple)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
