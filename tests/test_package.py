"""The package's import surface: what `import sliphop` loads, the batch
names it hands on to sliphop.harness, and the record types."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sliphop
from sliphop import harness
from sliphop.analytic import StanceMapConstants
from sliphop.fixedpoint import FixedPointResult
from sliphop.simulate import StanceSegment, TrajectoryEvent

BATCH_NAMES = ("SweepConfig", "SweepReport", "run_single", "run_sweep",
               "simulator_return_map", "solve_point", "write_trajectory_csv")


def test_import_leaves_out_the_batch_front_end():
    code = textwrap.dedent("""
        import sys
        import sliphop
        print(sorted(m for m in ("sliphop.harness", "sliphop.cli")
                     if m in sys.modules))
    """)
    src = str(Path(sliphop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", BATCH_NAMES)
def test_batch_names_resolve_to_the_harness(name):
    want = getattr(harness, name)
    assert getattr(sliphop, name) is want
    namespace = {}
    exec(f"from sliphop import {name}", namespace)
    assert namespace[name] is want


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


@pytest.mark.parametrize("cls,fields,defaults", [
    (TrajectoryEvent, ("name", "t", "state"), {"state": None}),
    (StanceSegment, ("t_liftoff", "t_bottom", "p_liftoff", "samples"), {}),
    (StanceMapConstants, ("c1", "c2", "c3", "c4", "t_lo"), {}),
    (FixedPointResult, ("apex", "touchdown", "jacobian", "spectral_radius",
                        "stable", "provenance", "residual", "newton_steps"),
     {"newton_steps": 0}),
])
def test_records_are_named_tuples(cls, fields, defaults):
    assert issubclass(cls, tuple)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
