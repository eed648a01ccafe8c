"""The benchmark's tracer still finds the layers it times.

benchmarks/tracing.py wraps module attributes by name. A refactor that
renames one, or that stops calling one through its module, would crash
traced runs or quietly zero a layer's counts; these tests catch both.
"""

import importlib.util
import sys
from pathlib import Path

from sliphop import SweepConfig, harness
from sliphop.fixedpoint import ANALYTIC_NUMERIC, CLOSED_FORM

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("_bench_tracing", _PATH)
tracing = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_target_is_a_callable_attribute():
    for target in tracing.TARGETS:
        assert callable(getattr(target.module, target.attr, None)), (
            f"{target.module.__name__}.{target.attr}")


def test_analytic_sweep_counts_map_and_angle_spans():
    originals = [getattr(t.module, t.attr) for t in tracing.TARGETS]
    with tracing.Tracer() as tracer:
        harness.run_sweep(SweepConfig(p_bar_range=(-1.2, -0.8, 2),
                                      k_theta_range=(0.4, 0.6, 2),
                                      pipelines=(CLOSED_FORM,
                                                 ANALYTIC_NUMERIC)))
    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    maps = calls.get("analytic.return_map_analytic", 0)
    assert maps > 0
    assert calls.get("control.solve_aoa_approx", 0) == maps
    assert [getattr(t.module, t.attr) for t in tracing.TARGETS] == originals
