"""The benchmark still finds every name it uses in the package.

benchmarks/tracing.py wraps module attributes by name. A refactor that
renames one, or that stops calling one through its module, would crash
traced runs or quietly zero a layer's counts; these tests catch both.
The benchmark's own tests are not part of this suite, so the names that
benchmarks/workloads.py imports, that run.py's fresh-interpreter setup
code imports and that run.py reads from simulate are checked here too,
and the workloads' correctness passes run here on a small sweep and a
two-hop single run: they call the package by name at run time, after
the timed call.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import sliphop
from sliphop import SweepConfig, harness, simulate
from sliphop.fixedpoint import ANALYTIC_NUMERIC, CLOSED_FORM, SIMULATOR_NUMERIC

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


def test_correctness_pass_checks_every_converged_cell():
    workloads = _load("workloads")
    cfg = SweepConfig(p_bar_range=(-1.2, -0.8, 2),
                      k_theta_range=(0.4, 0.6, 2),
                      pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC))
    report = harness.run_sweep(cfg)
    converged = sum(counts["converged"]
                    for counts in report.status_counts().values())
    check = workloads.check_sweep(cfg, report)
    assert check.misses == []
    assert check.checked == converged > 0


def _span_counts(tracer) -> dict[str, int]:
    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    return calls


def test_analytic_sweep_counts_map_and_angle_spans():
    originals = [getattr(t.module, t.attr) for t in tracing.TARGETS]
    with tracing.Tracer() as tracer:
        harness.run_sweep(SweepConfig(p_bar_range=(-1.2, -0.8, 2),
                                      k_theta_range=(0.4, 0.6, 2),
                                      pipelines=(CLOSED_FORM,
                                                 ANALYTIC_NUMERIC)))
    calls = _span_counts(tracer)
    maps = calls.get("analytic.return_map_analytic", 0)
    assert maps > 0
    assert calls.get("control.solve_aoa_approx", 0) == maps
    assert [getattr(t.module, t.attr) for t in tracing.TARGETS] == originals


def test_simulator_sweep_counts_closed_form_and_newton_spans():
    with tracing.Tracer() as tracer:
        report = harness.run_sweep(SweepConfig(
            p_bar_range=(-1.0, -1.0, 1), k_theta_range=(0.45, 0.55, 2),
            pipelines=(CLOSED_FORM, SIMULATOR_NUMERIC)))
    calls = _span_counts(tracer)
    closed = calls.get("fixedpoint.closed_form_fixed_point", 0)
    assert calls.get("analytic.simplified_map_constants", 0) == closed > 0
    assert calls.get("simulate.return_map_numeric", 0) > 0
    # each cell solves the analytic map first, as the simulator's seed
    solves = [span.info["pipeline"] for span in tracer.spans
              if span.name == "fixedpoint.numeric_fixed_point"]
    assert solves == ["analytic", "sim"] * 2
    assert [o.pipeline for o in report.outcomes] == [
        CLOSED_FORM, SIMULATOR_NUMERIC] * 2


def test_single_hop_correctness_pass_checks_every_hop(tmp_path):
    workloads = _load("workloads")
    single = workloads.WORKLOADS["single-hop"]
    w = workloads._single_inputs(1, n_hops=2)
    check = single.check(w, single.run(w, tmp_path))
    assert check.misses == []
    assert check.checked == 2


def test_single_hop_counts_map_stance_and_writer_spans(tmp_path):
    workloads = _load("workloads")
    single = workloads.WORKLOADS["single-hop"]
    w = workloads._single_inputs(1, n_hops=2)
    with tracing.Tracer() as tracer:
        report = single.run(w, tmp_path)
    assert len(report.hops) == 2
    calls = _span_counts(tracer)
    assert [calls.get(name, 0) for name in (
        "harness.run_single", "simulate.return_map_numeric",
        "simulate.integrate_stance", "simulate.write_trajectory_csv")] == [
        1, 2, 2, 1]
    stances = [span for span in tracer.spans
               if span.name == "simulate.integrate_stance"]
    assert all(span.info["steps"] > 0 for span in stances)
