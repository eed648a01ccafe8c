"""The benchmark still finds every name it uses in the package.

benchmarks/tracing.py wraps module attributes by name. A refactor that
renames one, or that stops calling one through its module, would crash
traced runs or quietly zero a layer's counts; these tests catch both.
The benchmark's own tests are not part of this suite, so the names that
benchmarks/workloads.py imports, that run.py's fresh-interpreter setup
code imports and that run.py reads from simulate are checked here too.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import sliphop
from sliphop import SweepConfig, harness, simulate
from sliphop.fixedpoint import ANALYTIC_NUMERIC, CLOSED_FORM

_BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  _BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


def test_every_target_is_a_callable_attribute():
    for target in tracing.TARGETS:
        assert callable(getattr(target.module, target.attr, None)), (
            f"{target.module.__name__}.{target.attr}")


def test_workloads_build_their_inputs():
    workloads = _load("workloads")  # its imports from sliphop resolve
    for name, wl in workloads.WORKLOADS.items():
        workloads.setup_probe(name, wl.make_inputs(1))


def test_run_uses_only_names_the_package_has():
    tree = ast.parse((_BENCH / "run.py").read_text())
    [setup_code] = [node.value.value for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["SETUP_CODE"]]
    imported = [alias.name for node in ast.walk(ast.parse(setup_code))
                if isinstance(node, ast.ImportFrom)
                and node.module == "sliphop" for alias in node.names]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "simulate"}
    assert imported and read
    for name in imported:
        assert hasattr(sliphop, name), f"sliphop.{name}"
    for name in read:
        assert hasattr(simulate, name), f"simulate.{name}"


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
