"""Workload inputs, the definition file, and traced-versus-untraced answers.

The workloads here are shrunk versions of the benchmark's (one sim cell,
a 3x3 analytic grid, three hops) so the file runs in a few seconds.
"""

import json
from dataclasses import replace

import pytest

import run
import tracing
import workloads
from sliphop import fixedpoint as fp
from tracing import Tracer


def _small(name, seed=3):
    wl = workloads.WORKLOADS[name]
    if name == "sweep-sim":
        return wl, workloads._sweep_inputs(
            seed, 1, (fp.CLOSED_FORM, fp.SIMULATOR_NUMERIC))
    if name == "sweep-analytic":
        return wl, workloads._sweep_inputs(
            seed, 3, (fp.CLOSED_FORM, fp.ANALYTIC_NUMERIC))
    w = workloads._single_inputs(seed, n_hops=3)
    return wl, replace(w, k_theta_step=(1, w.k_theta_step[1]))


def test_inputs_come_from_the_seed_alone():
    for name, wl in workloads.WORKLOADS.items():
        assert wl.make_inputs(7) == wl.make_inputs(7), name
        assert wl.make_inputs(7) != wl.make_inputs(8), name
    cfg = workloads.WORKLOADS["sweep-analytic"].make_inputs(7)
    assert workloads.P_BAR_GRID[0] < cfg.p_bar_range[0]
    assert cfg.p_bar_range[1] < workloads.P_BAR_GRID[1]
    assert cfg.p_bar_range[2] == cfg.k_theta_range[2] == 20


def test_definition_file_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_identical_answers(name, tmp_path):
    wl, inputs = _small(name)
    plain = run.run_once(wl, inputs, tmp_path / "plain", traced=False)
    traced = run.run_once(wl, inputs, tmp_path / "traced", traced=True)
    assert plain.spans is None
    assert traced.spans
    assert plain.outputs == traced.outputs
    assert wl.statuses(plain.report, inputs) == \
        wl.statuses(traced.report, inputs)
    assert not wl.check(inputs, plain.report).misses


def _layers(name, tmp_path):
    wl, inputs = _small(name)
    with Tracer() as tracer:
        report = wl.run(inputs, tmp_path)
    numeric = sum(o.pipeline in tracing.PIPELINE_KEY
                  for o in getattr(report, "outcomes", ()))
    return tracing.layer_metrics(tracer.spans, numeric)


def test_layer_metrics_confirm_the_workload_design(tmp_path):
    sim = _layers("sweep-sim", tmp_path / "s")
    assert sim["simulate.integrate_stance.calls"] == \
        sim["simulate.return_map_numeric.calls"] > 0
    assert sim["simulate.stance_numpy_scalar_frac"] > 0.0
    assert sim["fixedpoint.map_evals_per_solve.sim"] > 1
    assert sim["harness.solves_per_cell"] == 1.0

    ana = _layers("sweep-analytic", tmp_path / "a")
    assert ana["simulate.integrate_stance.calls"] == 0
    assert ana["control.solve_aoa_approx.calls"] == \
        ana["analytic.return_map_analytic.calls"] > 0
    assert ana["fixedpoint.closed_form_fixed_point.calls"] == 9

    hop = _layers("single-hop", tmp_path / "h")
    assert hop["simulate.integrate_stance.calls"] == 3
    assert hop["simulate.stance_numpy_scalar_frac"] == 0.0
    assert hop["simulate.write_trajectory_csv.self_s"] > 0.0


def test_spans_of_one_cell_or_hop_share_a_group(tmp_path):
    wl, inputs = _small("single-hop")
    with Tracer() as tracer:
        wl.run(inputs, tmp_path)
    stance = [s for s in tracer.spans
              if s.name == "simulate.integrate_stance"]
    assert len({s.group for s in stance}) == 3
    by_id = {s.id: s for s in tracer.spans}
    assert all(by_id[s.parent].group == s.group for s in stance)
