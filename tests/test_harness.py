import ast
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sliphop import (ApexState, ControlInputs, InvalidState, SlipError,
                     SweepConfig, analytic, closed_form_fixed_point,
                     fixedpoint, harness, numeric_fixed_point,
                     return_map_analytic, run_single, run_sweep, simulate,
                     simulator_return_map, solve_point)
from sliphop.cli import main, parse_config_file
from sliphop.fixedpoint import (ANALYTIC_NUMERIC, CLOSED_FORM,
                                SIMULATOR_NUMERIC)
from sliphop import trajectory
from sliphop.trajectory import HybridTrajectory, phase_runs

from _oracles import (TrajectoryRow, hex_cells, reference_hop_rows,
                      trajectory_rows)
from _oracles import _write_csv as reference_write_csv


GOLDEN_ANALYTIC_SWEEP = Path(__file__).parent / "data" / "analytic_sweep_5x5"
GOLDEN_SIM_SWEEP = Path(__file__).parent / "data" / "sim_sweep_2x2"
GOLDEN_SINGLE = Path(__file__).parent / "data" / "single_2hops"
# simulator maps of the closed-form + simulator sweep over the four
# corners of criterion 1's ranges, as README "Numerical contracts" says
CORNER_SWEEP_MAPS = 40
# analytic maps of the default 20x20 closed-form + analytic-numeric
# sweep, seed chaining on, the closed form's 400 residuals included
ANALYTIC_SWEEP_MAPS = 2546


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSweepConfig:
    def test_defaults_valid(self):
        cfg = SweepConfig()
        assert len(cfg.p_bar_values()) == 20
        assert cfg.p_bar_values()[0] == -1.55
        assert cfg.k_theta_values()[-1] == 0.75

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SweepConfig(p_bar_range=(-0.5, -1.55, 20))  # unordered
        with pytest.raises(ValueError, match="^at least one pipeline"):
            SweepConfig(pipelines=())
        with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
            SweepConfig(workers=0)
        with pytest.raises(ValueError):
            SweepConfig(k_theta_range=(0.3, 0.75, 0))  # empty
        with pytest.raises(ValueError):
            SweepConfig(pipelines=("nonsense",))
        with pytest.raises(ValueError, match="equal ends"):
            SweepConfig(p_bar_range=(-1.0, -1.0, 3))  # one cell, 3 times
        with pytest.raises(ValueError,
                           match="^pipeline 'closed-form' repeated$"):
            SweepConfig(pipelines=(CLOSED_FORM, CLOSED_FORM,
                                   ANALYTIC_NUMERIC))

    @pytest.mark.parametrize("field,value,message", [
        ("k_theta_range", (0.9, 1.1, 2), "k_theta must be in"),
        ("k_theta_range", (-0.1, 0.5, 2), "k_theta must be in"),
        ("k_theta_range", (0.3, math.inf, 2), "k_theta must be finite"),
        ("p_bar_range", (math.nan, -0.5, 2), "p_bar must be finite"),
        ("p_bar_range", (-1.0, math.nan, 2), "p_bar must be finite"),
        ("p_bar_range", (-math.inf, -0.5, 2), "p_bar must be finite"),
        ("tau_max", 0.0, "tau_max must be > 0"),
        ("dt", 0.0, "^dt must be finite and > 0"),
        ("dt", math.nan, "^dt must be finite and > 0"),
        ("control_dt", -1e-4, "^control_dt must be finite and > 0"),
        ("control_dt", math.inf, "^control_dt must be finite and > 0"),
        ("dt", 3e-4, "^control_dt must be a whole multiple of dt"),
        ("control_dt", 5e-5, "^control_dt must be a whole multiple of dt"),
        ("k_theta_range", (0.4, 0.6, 2.0),
         "^k_theta_range count must be an integer, got 2.0$"),
        ("p_bar_range", (-1.0, -0.5, 2.5),
         "^p_bar_range count must be an integer, got 2.5$"),
        ("tau_max", math.inf, "^tau_max must be > 0 and finite"),
        # an int too large for a float (10**400) or for a list's length
        pytest.param("kp", 10 ** 400,
                     "^kp must be finite, got an int too large",
                     id="kp-int_too_large"),
        pytest.param("tau_max", 10 ** 400,
                     "^tau_max must be finite, got an int too large",
                     id="tau_max-int_too_large"),
        pytest.param("p_bar_range", (-10 ** 400, -0.5, 2),
                     "^p_bar must be finite, got an int too large",
                     id="p_bar_range-int_too_large_end"),
        pytest.param("p_bar_range", (-1.0, -0.5, 10 ** 400),
                     f"^p_bar_range count must be <= {sys.maxsize}, got 1000",
                     id="p_bar_range-int_too_large_count"),
        pytest.param("workers", sys.maxsize + 1,
                     f"^workers must be <= {sys.maxsize}, got",
                     id="workers-above_maxsize"),
        # a truthy string chained, and report.json echoed it
        pytest.param("seed_chaining", "false",
                     "^seed_chaining must be a bool, got 'false'$",
                     id="seed_chaining-string"),
    ])
    def test_rejects_bad_grid_up_front(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{field: value})

    def test_lists_are_kept_as_tuples(self, tmp_path, monkeypatch):
        # a config given lists equals, hashes and runs as its tuple form;
        # the closed form alone solves no Newton fixed point
        solves = []
        real = fixedpoint.numeric_fixed_point

        def counted(*args, **kwargs):
            solves.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, "numeric_fixed_point", counted)
        grid = {"p_bar_range": (-1.2, -0.8, 3), "k_theta_range": (0.4, 0.6, 3)}
        for pipelines, n_solves in [((CLOSED_FORM,), 0),
                                    ((CLOSED_FORM, ANALYTIC_NUMERIC), 9)]:
            listed = SweepConfig(**{k: list(v) for k, v in grid.items()},
                                 pipelines=list(pipelines))
            tupled = SweepConfig(**grid, pipelines=pipelines)
            assert listed == tupled and hash(listed) == hash(tupled)
            assert {type(getattr(listed, k)) for k in (*grid, "pipelines")
                    } == {tuple}
            texts = []
            for name, cfg in [("list", listed), ("tuple", tupled)]:
                out = tmp_path / f"{len(pipelines)}-{name}"
                solves.clear()
                report = run_sweep(dataclasses.replace(cfg, out_dir=str(out)))
                assert len(solves) == n_solves
                texts.append([repr(report.outcomes)] + [
                    (out / f).read_bytes()
                    for f in ("sweep.csv", "errors.csv", "report.json")])
            assert texts[0] == texts[1]

    @pytest.mark.parametrize("workers", [2.0, 2.5])
    def test_rejects_a_fractional_worker_count_up_front(self, tmp_path,
                                                        workers):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="^workers must be an integer, "
                                             f"got {workers}$"):
            run_sweep(SweepConfig(p_bar_range=(-1.0, -0.8, 2),
                                  k_theta_range=(0.5, 0.6, 2),
                                  pipelines=(CLOSED_FORM,), workers=workers,
                                  out_dir=str(out)))
        assert not out.exists()

    # gap: a span, or a count of ulps above lo
    @given(lo=st.floats(-1e6, 1e6),
           gap=st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e-300),
                         st.integers(0, 8)),
           n=st.integers(1, 40))
    @example(lo=0.0, gap=1e-323, n=7)  # a step below the smallest float
    @example(lo=-0.0, gap=0, n=1)
    def test_grid_is_linspace_bit_for_bit(self, lo, gap, n):
        hi = lo
        if isinstance(gap, int):
            for _ in range(gap):
                hi = math.nextafter(hi, math.inf)
        else:
            hi = lo + gap
        got = harness._grid(lo, hi, n)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [
            v.hex() for v in np.linspace(lo, hi, n).tolist()]


class TestRunSweep:
    def test_single_point_grid(self, params):
        cfg = SweepConfig(params=params, p_bar_range=(-1.0, -1.0, 1),
                          k_theta_range=(0.5, 0.5, 1))
        report = run_sweep(cfg)
        assert len(report.outcomes) == 3  # one per pipeline
        assert all(o.result is not None for o in report.outcomes)
        pipes = {o.pipeline for o in report.outcomes}
        assert pipes == {CLOSED_FORM, ANALYTIC_NUMERIC, SIMULATOR_NUMERIC}

    def test_every_cell_reported_once(self, params):
        cfg = SweepConfig(params=params, p_bar_range=(-1.1, -0.9, 2),
                          k_theta_range=(0.45, 0.55, 2),
                          pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC))
        report = run_sweep(cfg)
        cells = [(o.p_bar, o.k_theta, o.pipeline) for o in report.outcomes]
        assert len(cells) == len(set(cells)) == 8

    def test_failures_recorded_not_raised(self, params):
        # a region where the closed form exists but the gaits are absurd
        cfg = SweepConfig(params=params, p_bar_range=(-0.02, -0.01, 2),
                          k_theta_range=(0.0, 0.0, 1),
                          pipelines=(SIMULATOR_NUMERIC,))
        report = run_sweep(cfg)
        assert len(report.outcomes) == 2
        # either converged or carries a phase-tagged reason; never raises
        for o in report.outcomes:
            if o.result is None:
                assert o.status != "converged"

    def test_failed_state_check_is_a_tagged_failure(self, params):
        # at this gait the analytic map of the closed-form apex lifts off
        # with the mass below the toe; that used to be a plain ValueError
        # that aborted the sweep
        p_bar, k_theta = -5.571428571428571, 0.06
        closed = closed_form_fixed_point(p_bar, k_theta, params)
        assert math.isnan(closed.spectral_radius) and not closed.stable
        with pytest.raises(InvalidState, match=r"^y must be > 0, got -") \
                as exc:
            return_map_analytic(closed.apex, ControlInputs(p_bar, k_theta),
                                params)
        assert exc.value.phase == "ascent"

        cfg = SweepConfig(params=params, p_bar_range=(-6.0, -3.0, 8),
                          k_theta_range=(0.0, 0.3, 6),
                          pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC))
        report = run_sweep(cfg)
        assert len(report.outcomes) == 96
        newton = report.status_counts()[ANALYTIC_NUMERIC]
        assert newton["GaitFailure@ascent"] > 0
        assert all(status in ("converged", "NoSeed") or "@" in status
                   for status in newton)

    def test_analytic_pipelines_write_the_golden_bytes(self, params,
                                                       tmp_path):
        # sweep.csv and errors.csv of this 5x5 sweep over criterion 1's
        # ranges, as the dataclass hop chain wrote them
        run_sweep(SweepConfig(params=params, p_bar_range=(-1.55, -0.5, 5),
                              k_theta_range=(0.3, 0.75, 5),
                              pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC),
                              out_dir=str(tmp_path)))
        for name in ("sweep.csv", "errors.csv"):
            assert (tmp_path / name).read_bytes() == (
                GOLDEN_ANALYTIC_SWEEP / name).read_bytes(), name

    def test_simulator_pipeline_writes_the_golden_bytes(self, params,
                                                        tmp_path):
        # sweep.csv and errors.csv of the closed form and Newton on the
        # full simulator at the four corners of criterion 1's ranges.
        # Unchained, each simulator solve starts at its own cell's
        # analytic-numeric fixed point (solved from the closed form, not
        # written), with that point's exact Jacobian as Broyden's start
        # matrix until two steps refit it. The stance kernel's bytes are
        # pinned by TestStanceKernel
        run_sweep(SweepConfig(params=params, p_bar_range=(-1.55, -0.5, 2),
                              k_theta_range=(0.3, 0.75, 2),
                              pipelines=(CLOSED_FORM, SIMULATOR_NUMERIC),
                              seed_chaining=False, out_dir=str(tmp_path)))
        for name in ("sweep.csv", "errors.csv"):
            assert (tmp_path / name).read_bytes() == (
                GOLDEN_SIM_SWEEP / name).read_bytes(), name

    def test_closed_form_jacobian_start_writes_the_exact_start_bytes(
            self, params, tmp_path, monkeypatch):
        # unchained, every Newton cell starts at the closed-form apex,
        # whose Jacobian is the exact one the solve would take there: the
        # same bytes and the same map evaluations without it
        cfg = SweepConfig(params=params, p_bar_range=(-1.55, -0.5, 5),
                          k_theta_range=(0.3, 0.75, 5),
                          pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC),
                          seed_chaining=False)
        maps = []
        real_map = fixedpoint.return_map_analytic

        def counted(*args):
            maps.append(args[0])
            return real_map(*args)

        monkeypatch.setattr(fixedpoint, "return_map_analytic", counted)
        run_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "j")))
        warm_maps = len(maps)
        real_solve = fixedpoint.numeric_fixed_point

        def exact_start(*args, jacobian=None, **kwargs):
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, "numeric_fixed_point", exact_start)
        run_sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "x")))
        for name in ("sweep.csv", "errors.csv", "report.json"):
            assert (tmp_path / "j" / name).read_bytes() == \
                (tmp_path / "x" / name).read_bytes(), name
        assert len(maps) == 2 * warm_maps

    def test_nan_jacobian_is_an_unknown_verdict(self, params, tmp_path,
                                                monkeypatch):
        # a Jacobian that is not finite (an arccos argument of +-1 in the
        # liftoff time) writes an unknown verdict and a failed Newton
        # cell; the sweep does not raise
        def nan_jacobian(apex, inputs, params):
            return ((math.nan, math.nan), (math.nan, math.nan))

        monkeypatch.setattr(fixedpoint, "return_map_analytic_jacobian",
                            nan_jacobian)
        report = run_sweep(SweepConfig(
            params=params, p_bar_range=(-1.1, -0.9, 2),
            k_theta_range=(0.45, 0.55, 2),
            pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC), out_dir=str(tmp_path)))
        counts = report.status_counts()
        assert counts[CLOSED_FORM] == {"converged": 4}
        assert counts[ANALYTIC_NUMERIC] == {"IllConditioned": 4}
        header, *rows = _read_csv(tmp_path / "sweep.csv")
        cells = [dict(zip(header, row)) for row in rows]
        assert [(c["spectral_radius"], c["stable"]) for c in cells
                if c["pipeline"] == CLOSED_FORM] == [("", "")] * 4

    def test_deterministic_outputs(self, params, tmp_path):
        cfg1 = SweepConfig(params=params, p_bar_range=(-1.1, -0.9, 2),
                           k_theta_range=(0.45, 0.55, 2),
                           pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC),
                           out_dir=str(tmp_path / "a"))
        cfg2 = SweepConfig(params=params, p_bar_range=(-1.1, -0.9, 2),
                           k_theta_range=(0.45, 0.55, 2),
                           pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC),
                           out_dir=str(tmp_path / "b"))
        run_sweep(cfg1)
        run_sweep(cfg2)
        for name in ("sweep.csv", "errors.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["converged_per_pipeline"][CLOSED_FORM] == 4

    def test_outputs_independent_of_worker_count(self, params, tmp_path):
        for workers in (1, 2):
            run_sweep(SweepConfig(params=params, p_bar_range=(-1.1, -0.9, 2),
                                  k_theta_range=(0.45, 0.55, 2),
                                  pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC),
                                  workers=workers,
                                  out_dir=str(tmp_path / f"w{workers}")))
        for name in ("sweep.csv", "errors.csv", "report.json"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / "w2" / name).read_bytes()

    def test_sweep_csv_schema(self, params, tmp_path):
        cfg = SweepConfig(params=params, p_bar_range=(-1.0, -1.0, 1),
                          k_theta_range=(0.5, 0.5, 1), out_dir=str(tmp_path))
        run_sweep(cfg)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("p_bar,k_theta,pipeline,x_dot_star,y_star,"
                            "spectral_radius,stable,residual,status")
        assert len(lines) == 4
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["status"] == "converged"
        assert row["stable"] in ("true", "false")

    def test_unknown_stability_is_written_empty(self, params, tmp_path):
        # the default grid's cell (-1.3842..., 0.3): the analytic map
        # cannot hop from the closed-form apex, so rho is NaN
        p_bar = harness._grid(-1.55, -0.5, 20)[3]
        report = run_sweep(SweepConfig(
            params=params, p_bar_range=(p_bar, p_bar, 1),
            k_theta_range=(0.3, 0.75, 2), pipelines=(CLOSED_FORM,),
            out_dir=str(tmp_path)))
        unknown, known = (o.result for o in report.outcomes)
        assert math.isnan(unknown.spectral_radius) and not unknown.stable
        assert known.spectral_radius < 1.0 and known.stable
        header, *rows = _read_csv(tmp_path / "sweep.csv")
        cells = [dict(zip(header, row)) for row in rows]
        assert [c["status"] for c in cells] == ["converged"] * 2
        assert [(c["spectral_radius"] == "", c["stable"]) for c in cells] \
            == [(True, ""), (False, "true")]

    def test_chained_seed_failure_retries_from_closed_form(self, params,
                                                           monkeypatch):
        cfg = SweepConfig(params=params, p_bar_range=(-1.0, -1.0, 1),
                          k_theta_range=(0.45, 0.55, 2),
                          pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC))
        want = run_sweep(dataclasses.replace(cfg, seed_chaining=False))
        closed = {k: closed_form_fixed_point(-1.0, k, params).apex
                  for k in (0.45, 0.55)}
        seeds = []
        real = harness.solve_point

        def chained_seed_fails(pipeline, inputs, params, seed=None, **kw):
            if pipeline == ANALYTIC_NUMERIC:
                seeds.append((inputs.k_theta, seed))
                if seed != closed[inputs.k_theta]:
                    raise SlipError("injected")
            return real(pipeline, inputs, params, seed, **kw)

        monkeypatch.setattr(harness, "solve_point", chained_seed_fails)
        got = run_sweep(cfg)
        first = got.outcomes[1].result.apex  # analytic fixed point at 0.45
        assert seeds == [(0.45, closed[0.45]), (0.55, first),
                         (0.55, closed[0.55])]

        def cells(report):
            return [(o.pipeline, o.status, o.result.apex, o.result.residual,
                     o.result.newton_steps) for o in report.outcomes]

        assert cells(got) == cells(want)

    def test_failed_analytic_seed_retries_from_closed_form(self, params,
                                                           monkeypatch):
        # unchained, each simulator solve starts at its cell's analytic
        # fixed point; one that fails there is retried from the closed form
        cfg = SweepConfig(params=params, p_bar_range=(-1.0, -1.0, 1),
                          k_theta_range=(0.45, 0.55, 2),
                          pipelines=(CLOSED_FORM, SIMULATOR_NUMERIC),
                          seed_chaining=False)
        closed = {k: closed_form_fixed_point(-1.0, k, params)
                  for k in (0.45, 0.55)}
        anchor = {k: solve_point(ANALYTIC_NUMERIC, ControlInputs(-1.0, k),
                                 params).apex for k in (0.45, 0.55)}
        want = [solve_point(SIMULATOR_NUMERIC, ControlInputs(-1.0, k),
                            params, seed=c.apex, jacobian=c.jacobian)
                for k, c in closed.items()]
        seeds = []
        real = harness.solve_point

        def analytic_seed_fails(pipeline, inputs, params, seed=None, **kw):
            if pipeline == SIMULATOR_NUMERIC:
                seeds.append((inputs.k_theta, seed))
                if seed != closed[inputs.k_theta].apex:
                    raise SlipError("injected")
            return real(pipeline, inputs, params, seed, **kw)

        monkeypatch.setattr(harness, "solve_point", analytic_seed_fails)
        got = run_sweep(cfg)
        assert seeds == [(k, s) for k in (0.45, 0.55)
                         for s in (anchor[k], closed[k].apex)]
        assert [o.result for o in got.outcomes[1::2]] == want

    @pytest.mark.parametrize("failing", [ANALYTIC_NUMERIC, SIMULATOR_NUMERIC])
    def test_failed_seed_where_the_closed_form_failed_is_no_seed(
            self, params, monkeypatch, failing):
        # at k_theta 0.55 the closed form fails, and so does the first
        # seed of one Newton cell: the chained analytic fixed point, or
        # the simulator's anchor. No seed is left to retry from, so that
        # cell, and a simulator cell without an anchor, reads NoSeed
        calls = []
        real = harness.solve_point

        def injected(pipeline, inputs, params, seed=None, **kw):
            calls.append((inputs.k_theta, pipeline))
            if inputs.k_theta == 0.55 and pipeline in (CLOSED_FORM, failing):
                raise SlipError("injected")
            return real(pipeline, inputs, params, seed, **kw)

        monkeypatch.setattr(harness, "solve_point", injected)
        report = run_sweep(SweepConfig(
            params=params, p_bar_range=(-1.0, -1.0, 1),
            k_theta_range=(0.45, 0.55, 2), pipelines=harness.ALL_PIPELINES))
        assert report.config.seed_chaining
        analytic = "NoSeed" if failing == ANALYTIC_NUMERIC else "converged"
        assert [o.status for o in report.outcomes] == [
            "converged"] * 3 + ["SlipError", analytic, "NoSeed"]
        assert calls[3:] == [(0.55, CLOSED_FORM), (0.55, ANALYTIC_NUMERIC)] \
            + [(0.55, SIMULATOR_NUMERIC)] * (failing == SIMULATOR_NUMERIC)

    def test_failed_analytic_solve_seeds_simulator_from_closed_form(
            self, params, monkeypatch):
        closed = {k: closed_form_fixed_point(-1.0, k, params)
                  for k in (0.45, 0.55)}
        seeds = []
        real = harness.solve_point

        def analytic_fails(pipeline, inputs, params, seed=None,
                           jacobian=None, **kw):
            if pipeline == ANALYTIC_NUMERIC:
                raise SlipError("injected")
            if pipeline == SIMULATOR_NUMERIC and seed is not None:
                seeds.append((inputs.k_theta, seed, jacobian))
            return real(pipeline, inputs, params, seed, jacobian, **kw)

        monkeypatch.setattr(harness, "solve_point", analytic_fails)
        report = run_sweep(SweepConfig(
            params=params, p_bar_range=(-1.0, -1.0, 1),
            k_theta_range=(0.45, 0.55, 2),
            pipelines=(CLOSED_FORM, SIMULATOR_NUMERIC)))
        want = [(k, c.apex, c.jacobian) for k, c in closed.items()]
        assert seeds == want
        assert [o.status for o in report.outcomes] == ["converged"] * 4
        # so does solve_point without a seed, as the CLI calls it
        assert harness.solve_point(SIMULATOR_NUMERIC,
                                   ControlInputs(-1.0, 0.45),
                                   params) == report.outcomes[1].result

    def test_chained_simulator_seed_is_its_own_cells_analytic_root(
            self, params, monkeypatch):
        # with chaining on, each simulator solve of a row starts at its
        # own cell's analytic fixed point and that point's Jacobian
        seeds = []
        real = harness.solve_point

        def recorded(pipeline, inputs, params, seed=None, jacobian=None,
                     **kw):
            if pipeline == SIMULATOR_NUMERIC:
                seeds.append((seed, jacobian))
            return real(pipeline, inputs, params, seed, jacobian, **kw)

        monkeypatch.setattr(harness, "solve_point", recorded)
        report = run_sweep(SweepConfig(
            params=params, p_bar_range=(-1.0, -1.0, 1),
            k_theta_range=(0.45, 0.65, 3), pipelines=harness.ALL_PIPELINES))
        assert report.config.seed_chaining
        assert [o.status for o in report.outcomes] == ["converged"] * 9
        anchors = [o.result for o in report.outcomes
                   if o.pipeline == ANALYTIC_NUMERIC]
        assert seeds == [(a.apex, a.jacobian) for a in anchors]

    def test_simulator_sweep_writes_no_analytic_cell(self, params, tmp_path):
        # the default grid's cell (-1.3842..., 0.3), where analytic-numeric
        # fails (GaitFailure@aoa), is solved but neither written nor counted
        p_bar = harness._grid(-1.55, -0.5, 20)[3]
        run_sweep(SweepConfig(params=params, p_bar_range=(p_bar, p_bar, 1),
                              k_theta_range=(0.3, 0.75, 2),
                              pipelines=(CLOSED_FORM, SIMULATOR_NUMERIC),
                              out_dir=str(tmp_path)))
        rows = _read_csv(tmp_path / "sweep.csv")[1:]
        assert [(row[2], row[-1]) for row in rows] == [
            (CLOSED_FORM, "converged"), (SIMULATOR_NUMERIC, "converged")] * 2
        assert {tuple(row[:2]) for row in _read_csv(
            tmp_path / "errors.csv")[1:]} == {(CLOSED_FORM,
                                               SIMULATOR_NUMERIC)}
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("points_per_pipeline", "converged_per_pipeline"):
            assert report[key] == {CLOSED_FORM: 2, SIMULATOR_NUMERIC: 2}
        assert report["failures"] == {}

    @pytest.mark.parametrize("seed_chaining", [True, False])
    def test_simulator_sweep_takes_40_maps(self, params, monkeypatch,
                                           seed_chaining):
        # the four corners of criterion 1's ranges, each simulator solve
        # started at its own cell's analytic fixed point, chained or not,
        # and Broyden's matrix refitted to two steps: 40 simulator maps
        # either way
        maps = _count_map_calls(monkeypatch)
        run_sweep(SweepConfig(params=params, p_bar_range=(-1.55, -0.5, 2),
                              k_theta_range=(0.3, 0.75, 2),
                              pipelines=(CLOSED_FORM, SIMULATOR_NUMERIC),
                              seed_chaining=seed_chaining))
        assert len(maps) == CORNER_SWEEP_MAPS

    def test_analytic_sweep_takes_2546_maps(self, params, monkeypatch):
        # each analytic-numeric solve chained from the row's last
        # analytic fixed point, retried from the closed form where that
        # fails; counted through a wrapped fixedpoint.return_map_analytic
        maps = []
        real_map = fixedpoint.return_map_analytic

        def counted(*args):
            maps.append(args[0])
            return real_map(*args)

        monkeypatch.setattr(fixedpoint, "return_map_analytic", counted)
        report = run_sweep(SweepConfig(params=params, pipelines=(
            CLOSED_FORM, ANALYTIC_NUMERIC)))
        assert report.status_counts()[ANALYTIC_NUMERIC]["converged"] == 398
        assert len(maps) == ANALYTIC_SWEEP_MAPS

    @pytest.mark.parametrize("pipelines", [
        order for n in (2, 3)
        for subset in itertools.combinations(harness.ALL_PIPELINES, n)
        for order in (subset, subset[::-1])], ids=",".join)
    def test_error_stats_pairs(self, params, tmp_path, pipelines):
        cfg = SweepConfig(params=params, p_bar_range=(-1.0, -0.9, 2),
                          k_theta_range=(0.5, 0.5, 1), pipelines=pipelines,
                          out_dir=str(tmp_path))
        report = run_sweep(cfg)
        # each cell's sweep.csv rows in ALL_PIPELINES order, cheapest first
        ranked = [p for p in harness.ALL_PIPELINES if p in pipelines]
        rows = _read_csv(tmp_path / "sweep.csv")[1:]
        assert [row[2] for row in rows] == ranked * 2
        # errors.csv: each pipeline against each costlier one, the
        # costliest reference first, whatever order pipelines lists them
        pairs = [(pred, ref) for pred, ref in (
            (CLOSED_FORM, SIMULATOR_NUMERIC),
            (ANALYTIC_NUMERIC, SIMULATOR_NUMERIC),
            (CLOSED_FORM, ANALYTIC_NUMERIC)) if {pred, ref} <= {*pipelines}]
        want = [(pred, ref, qty) for pred, ref in pairs
                for qty in ("x_dot", "y")]
        assert [tuple(row[:3]) for row in
                _read_csv(tmp_path / "errors.csv")[1:]] == want
        for s in report.error_stats:
            assert s.rms >= 0.0
            assert s.n == 2


def _count_map_calls(monkeypatch) -> list:
    """Record every simulator map evaluation the harness makes."""
    calls = []
    original = harness.return_map_numeric

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "return_map_numeric", counted)
    return calls


class TestRunSingle:
    def test_hop_chain_converges(self, params):
        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        seed = closed_form_fixed_point(-1.0, 0.5, params).apex
        report = run_single(seed, inputs, params, n_hops=12)
        assert report.failure is None
        assert len(report.hops) == 12
        report.trajectory.validate()
        # apex sequence settles onto the simulator fixed point
        fp = numeric_fixed_point(simulator_return_map, seed, inputs, params,
                                 tol=1e-6)
        last = report.hops[-1]
        assert last.x_dot == pytest.approx(fp.apex.x_dot, abs=1e-4)
        assert last.y == pytest.approx(fp.apex.y, abs=1e-4)
        # steady state: momentum reaches the target within 2 percent
        assert abs(last.p_liftoff - inputs.p_bar) <= 0.02 * abs(inputs.p_bar)
        # and the leg-angle trajectory is asymmetric: near-vertical liftoff
        assert abs(last.theta_lo) < last.theta_td

    def test_single_hop_from_fixed_point(self, params):
        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        seed = closed_form_fixed_point(-1.0, 0.5, params).apex
        fp = numeric_fixed_point(simulator_return_map, seed, inputs, params,
                                 tol=1e-9)
        report = run_single(fp.apex, inputs, params, n_hops=1)
        assert report.hops[0].x_dot == pytest.approx(fp.apex.x_dot, abs=1e-6)
        assert report.hops[0].y == pytest.approx(fp.apex.y, abs=1e-6)

    def test_gain_step_raises_radial_energy(self, params):
        # stepping the touchdown gain up mid-run pumps the radial channel
        inputs = ControlInputs(p_bar=-1.1, k_theta=0.5)
        seed = closed_form_fixed_point(-1.1, 0.5, params).apex
        report = run_single(seed, inputs, params, n_hops=24,
                            k_theta_step=(12, 0.7))
        assert report.failure is None
        apex_events = [e for e in report.trajectory.events
                       if e.name == "apex"]
        t_split = apex_events[11].t  # last pre-step apex

        def peak_radial_energy(samples):
            return max(0.5 * params.m * s.r_dot ** 2
                       + 0.5 * params.k * (s.r - params.r0) ** 2
                       for s in samples)

        stance = [s for s in trajectory_rows(report.trajectory.runs)
                  if s.phase == "stance"]
        pre = peak_radial_energy([s for s in stance if s.t < t_split])
        post = peak_radial_energy([s for s in stance if s.t > t_split])
        assert post > pre
        before = [h for h in report.hops if h.hop == 11][0]
        after = [h for h in report.hops if h.hop == 23][0]
        assert after.y > before.y

    def test_failure_stops_and_records(self, params):
        inputs = ControlInputs(p_bar=2.0, k_theta=0.9)  # backward torque
        report = run_single(ApexState(1.0, 0.25), inputs, params, n_hops=5)
        assert report.failure is not None
        assert "DescendingAtLiftoff" in report.failure
        assert len(report.hops) < 5

    def test_rejects_no_hops(self, params, monkeypatch):
        maps = _count_map_calls(monkeypatch)
        with pytest.raises(ValueError, match="^n_hops must be >= 1, got 0$"):
            run_single(ApexState(1.0, 0.25),
                       ControlInputs(p_bar=-0.79, k_theta=0.64), params,
                       n_hops=0)
        assert maps == []

    def test_rejects_a_fractional_hop_count(self, params, monkeypatch,
                                            tmp_path):
        maps = _count_map_calls(monkeypatch)
        with pytest.raises(ValueError,
                           match="^n_hops must be an integer, got 2.5$"):
            run_single(ApexState(1.0, 0.25),
                       ControlInputs(p_bar=-0.79, k_theta=0.64), params,
                       n_hops=2.5, out_dir=tmp_path / "out")
        assert maps == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["dt", "control_dt"])
    def test_rejects_bad_step_before_any_hop(self, params, field):
        # this apex fails in its first angle solve, before any stance
        inputs = ControlInputs(p_bar=-0.5, k_theta=0.05)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            run_single(ApexState(1.0, 0.15), inputs, params, n_hops=2,
                       **{field: 0.0})

    @pytest.mark.parametrize("step,message", [
        ((5, 1.5), "^k_theta must be in"),
        ((-3, 0.5), "^k_theta_step hop must be >= 0"),
        ((2.5, 0.7), "^k_theta_step hop must be an integer, got 2.5$"),
        # a step at or past the last hop would never apply
        pytest.param((20, 0.7), "^k_theta_step hop must be < n_hops = 20, "
                     "got 20$", id="hop-at-n_hops"),
        pytest.param((35, 0.7), "^k_theta_step hop must be < n_hops = 20, "
                     "got 35$", id="hop-past-n_hops"),
    ])
    def test_rejects_bad_gain_step_before_any_hop(self, params, monkeypatch,
                                                  step, message):
        maps = _count_map_calls(monkeypatch)
        inputs = ControlInputs(p_bar=-0.79, k_theta=0.64)
        with pytest.raises(ValueError, match=message):
            run_single(ApexState(1.0, 0.25), inputs, params, n_hops=20,
                       k_theta_step=step)
        assert maps == []

    def test_output_files(self, params, tmp_path):
        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5, kp=90.0, ki=0.1,
                               kd=0.04, tau_max=40.0)
        report = run_single(ApexState(1.5, 0.24), inputs, params, n_hops=2,
                            out_dir=tmp_path)

        def cell(v):
            if v is None or isinstance(v, str):
                return v or ""
            return format(v, ".9g")

        hops = _read_csv(tmp_path / "hops.csv")
        assert hops[0] == ["hop", "x_dot", "y", "p_liftoff", "theta_td",
                           "theta_lo", "r_lo"]
        assert hops[1:] == [[cell(getattr(h, col)) for col in hops[0]]
                            for h in report.hops]
        assert len(hops) == 3

        rows = _read_csv(tmp_path / "trajectory.csv")
        header, rows = rows[0], rows[1:]
        assert header[-1] == "tau"
        samples = trajectory_rows(report.trajectory.runs)
        assert len(rows) == len(samples)
        for row, s in zip(rows, samples):
            assert row[:-1] == [cell(getattr(s, col)) for col in header[:-1]]
            if s.phase == "stance":
                assert row[-1] == format(float(row[-1]), ".9g")
            else:
                assert row[2:6] == ["", "", "", ""] and row[-1] == ""

        doc = json.loads((tmp_path / "single.json").read_text())
        assert doc == {"params": dataclasses.asdict(params),
                       "inputs": dataclasses.asdict(inputs),
                       "hops_completed": 2,
                       "final_apex": dataclasses.asdict(report.final_apex),
                       "failure": None}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# The cells of the program's rows. Every row has at least 7 cells, and
# csv.writer quotes the lone empty cell of a one-cell row, so the
# generated rows have at least 2.
_CSV_STRINGS = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                       "0123456789_@.-")
_CSV_SPECIAL_FLOATS = [math.inf, -math.inf, -0.0, 5e-324,
                       -2.2250738585072014e-308, 1e300, -1e300]
# one strategy per cell type, since a row's format is picked by its types
_CSV_CELL_KINDS = (
    st.one_of(st.floats(),
              st.sampled_from([math.nan, -math.nan, *_CSV_SPECIAL_FLOATS])),
    st.integers(), st.none(), _CSV_STRINGS)
_CSV_ROWS = st.lists(st.one_of(*_CSV_CELL_KINDS), min_size=2,
                     max_size=12).map(tuple)
_CSV_FLOATS = _CSV_CELL_KINDS[0]
_CSV_NUMBERS = st.one_of(st.floats(allow_nan=False),
                         st.sampled_from(_CSV_SPECIAL_FLOATS))


@st.composite
def _phase_run(draw, phase):
    """A phase run (phase, launch_speed, floats) of 1-8 rows. Three runs
    in four hold no NaN, and three in four keep their phase's layout:
    its float columns of one length, and in flight a float launch
    speed; the fourth may hold a None in a float cell or for the flight
    speed, a float speed in stance, one column too many or too few, or
    a last column of another length."""
    floats = draw(st.sampled_from((_CSV_NUMBERS,) * 3 + (_CSV_FLOATS,)))
    width, speed = (10, st.none()) if phase == "stance" else (4, floats)
    n = last = draw(st.integers(1, 8))
    if draw(st.sampled_from((False,) * 3 + (True,))):
        floats = st.one_of(floats, st.none())
        speed = st.one_of(speed, floats)
        width += draw(st.integers(-1, 1))
        last = draw(st.integers(0, 8))
    columns = tuple(tuple(draw(st.lists(floats, min_size=k, max_size=k)))
                    for k in [n] * (width - 1) + [last])
    return phase, draw(speed), columns


_CYCLE = ("descent", "stance", "ascent")


@st.composite
def _trajectory_runs(draw):
    """Up to 5 phase runs, as in trajectory.csv. In three lists in four
    the phases follow the cycle from any phase; in the fourth they come
    in any order."""
    if draw(st.sampled_from((True,) * 3 + (False,))):
        start = draw(st.integers(0, 2))
        phases = [_CYCLE[(start + i) % 3] for i in range(5)]
    else:
        phases = draw(st.lists(st.sampled_from(_CYCLE), min_size=5,
                               max_size=5))
    n_runs = draw(st.integers(0, 5))
    return [draw(_phase_run(phase)) for phase in phases[:n_runs]]


_TRAJECTORY_RUNS = _trajectory_runs()


def _traj_bytes(out, runs):
    """The bytes that write_trajectory_csv writes for runs into the
    directory out, checked against HybridTrajectory.validate: where
    validate accepts the runs, they are the reference writer's bytes for
    the runs' rows; where validate raises a ValueError, the writer
    raises the same one and writes no file, and that error is returned
    instead."""
    traj, path = HybridTrajectory(runs), out / "new.csv"
    try:
        traj.validate()
    except ValueError as err:
        with pytest.raises(ValueError) as written:
            harness.write_trajectory_csv(traj, path)
        assert (type(written.value), str(written.value)) == (
            ValueError, str(err))
        assert not path.exists()
        return err
    harness.write_trajectory_csv(traj, path)
    reference_write_csv(out / "ref.csv", TrajectoryRow._fields,
                        trajectory_rows(runs))
    assert path.read_bytes() == (out / "ref.csv").read_bytes()
    return path.read_bytes()


def _flight(phase, ts, v, speed):
    """A flight run at the times ts whose other float cells are v."""
    n = len(ts)
    return phase, speed, (tuple(ts), (v,) * n, (v,) * n, (v,) * n)


def _stance(ts, v):
    """A stance run at the times ts whose other float cells are v."""
    return "stance", None, (tuple(ts),) + ((v,) * len(ts),) * 9


class TestCsvWriter:
    """harness._write_csv and trajectory.write_trajectory_csv (which
    harness names as its own) against the reference writer, one _fmt
    call per cell through csv.writer."""

    @given(header=st.lists(_CSV_STRINGS, min_size=2, max_size=12).map(tuple),
           rows=st.lists(_CSV_ROWS, max_size=20))
    def test_matches_the_reference_writer(self, tmp_path_factory, header,
                                          rows):
        out = tmp_path_factory.mktemp("csv")
        reference_write_csv(out / "ref.csv", header, rows)
        harness._write_csv(out / "new.csv", header, rows)
        assert (out / "new.csv").read_bytes() == (
            out / "ref.csv").read_bytes()

    @given(runs=_TRAJECTORY_RUNS)
    @example(runs=[  # a NaN run between two clean ones
        ("descent", 3.0, ((0.0,), (1.0,), (2.0,), (4.0,))),
        ("stance", None, ((1.0, 2.0), (0.2, 0.2), (-1.0, -1.0), (0.3, 0.3),
                          (math.nan, -3.0), (5.0, 5.0), (0.1, 0.1),
                          (2.0, 2.0), (-1.0, -1.0), (3.0, 3.0))),
        ("ascent", 2.0, ((3.0,), (6.0,), (0.2,), (1.0,)))])
    def test_trajectory_runs_match_the_reference_writer(
            self, tmp_path_factory, runs):
        # the writer writes exactly the runs that validate accepts
        _traj_bytes(tmp_path_factory.mktemp("traj"), runs)

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, -0.0,
                                   5e-324, 1e300, -1e300])
    def test_trajectory_special_floats_in_one_row_runs(self, tmp_path, v):
        # one-row runs of a hop and the next hop's descent (an ascent to
        # descent boundary), every float cell v: a NaN is written empty,
        # but a NaN launch speed breaks the flight layout
        def runs(speed):
            return [_flight("descent", (0.0,), v, speed), _stance((1.0,), v),
                    _flight("ascent", (2.0,), v, speed),
                    _flight("descent", (3.0,), v, speed)]

        written = _traj_bytes(tmp_path, runs(v))
        assert isinstance(written, bytes) == (v == v)
        (tmp_path / "speed").mkdir()
        assert isinstance(_traj_bytes(tmp_path / "speed", runs(1.5)), bytes)

    def test_empty_trajectory_writes_the_header(self, tmp_path):
        assert _traj_bytes(tmp_path, []) == (
            b"t,phase,r,r_dot,theta,theta_dot,x,y,x_dot,y_dot,tau\r\n")

    @pytest.mark.parametrize("field", ["r", "r_dot", "theta", "theta_dot",
                                       "tau"])
    def test_flight_sample_with_a_leg_value_is_rejected(self, tmp_path,
                                                         field):
        # a flight run carrying the leg columns up to field, in header
        # order, has 5 to 9 float columns instead of t, x, y and y_dot
        leg = ("r", "r_dot", "theta", "theta_dot", "tau")
        kept = {"t", "x", "y", "y_dot", *leg[:leg.index(field) + 1]}
        columns = tuple((0.25,) * 3 for name in TrajectoryRow._fields
                        if name in kept)
        assert len(columns) == 5 + leg.index(field)
        err = _traj_bytes(tmp_path, [_stance((0.0,), 2.0),
                                     ("ascent", 1.5, columns)])
        assert str(err) == "ascent run 1 breaks its phase's layout"

    def test_stance_sample_without_tau_is_rejected(self, tmp_path):
        _, _, columns = _stance((0.001, 0.002), 2.0)
        err = _traj_bytes(tmp_path, [_flight("descent", (0.0,), 1.5, 1.5),
                                     ("stance", None, columns[:-1])])
        assert str(err) == "stance run 1 breaks its phase's layout"

    @pytest.mark.parametrize("run", [
        pytest.param(("stance", None, ((0.0, 0.001),) + ((2.0, 2.0),) * 8
                      + ((2.0,),)), id="stance-column-a-row-short"),
        pytest.param(("stance", None, ((0.0,),) + ((2.0,),) * 8),
                     id="stance-9-columns"),
        pytest.param(("stance", None, ((0.0,),) + ((2.0,),) * 10),
                     id="stance-11-columns"),
        pytest.param(("descent", 1.5, ((0.0,), (2.0,), (2.0,))),
                     id="flight-3-columns"),
        pytest.param(("descent", 1.5, ((0.0, 0.001), (2.0,), (2.0, 2.0),
                                       (2.0, 2.0))),
                     id="flight-column-a-row-short"),
        pytest.param(("stance", None, ((),) * 10), id="stance-no-rows"),
        pytest.param(("descent", 1.5, ((),) * 4), id="flight-no-rows"),
        pytest.param(("descent", 1.5, ()), id="no-columns"),
        pytest.param(("descent", 1.5, (0.0, 2.0, 2.0, 2.0)),
                     id="cells-for-columns"),
        pytest.param(("descent", 1.5, None), id="none-for-columns"),
        pytest.param(("stance", 1.5, ((0.0,),) + ((2.0,),) * 9),
                     id="stance-with-a-launch-speed"),
    ])
    def test_run_of_the_wrong_shape_is_rejected(self, tmp_path, run):
        # a stance run has 10 float columns and a flight run 4, all of
        # one length of at least one row: validate() and the writer
        # both raise ValueError, and the writer writes no file
        err = _traj_bytes(tmp_path, [run])
        assert str(err) == f"{run[0]} run 0 breaks its phase's layout"

    @pytest.mark.parametrize("cell", [
        "2.0", 2j, pytest.param(10 ** 400, id="int-too-large-for-a-float")])
    def test_float_cell_that_percent_g_cannot_write_is_rejected(
            self, tmp_path, cell):
        ascent = ("ascent", 1.5, ((0.001, 0.002), (1.5, 1.5), (1.5, cell),
                                  (1.5, 1.5)))
        err = _traj_bytes(tmp_path, [_stance((0.0,), 2.0), ascent])
        assert str(err) == "ascent run 1 breaks its phase's layout"

    def test_stance_run_then_descent_is_rejected(self, tmp_path):
        err = _traj_bytes(tmp_path, [_stance((0.0,), 2.0),
                                     _flight("descent", (0.001,), 1.5, 1.5)])
        assert str(err) == ("phase 'stance' -> 'descent' breaks the "
                            "descent->stance->ascent cycle")

    @pytest.mark.parametrize("speeds, accepted", [
        ((0.0, -0.0, 0.0), True),  # each run writes its own zero's sign
        ((-0.0,) * 3, True),
        ((math.nan,) * 3, False),
        ((1.5, 1.5, 2.5), True),  # each flight run its own speed
        ((2, 2, 2), False),  # an int speed
    ])
    def test_flight_run_launch_speed(self, tmp_path, speeds, accepted):
        # each flight run holds one float launch speed, not NaN, which
        # every row of the run prints the same
        d1, a, d2 = speeds
        runs = [_flight("descent", (0.0, 0.001), 1.25, d1),
                _stance((0.002,), 1.25),
                _flight("ascent", (0.003, 0.004), 1.25, a),
                _flight("descent", (0.005, 0.006), 1.25, d2)]
        written = _traj_bytes(tmp_path, runs)
        if accepted:
            assert [row.split(b",")[8] for row in written.splitlines()[1:]
                    ] == [b"%.9g" % v for v in (d1, d1, 1.25, a, a, d2, d2)]
        else:
            assert str(written) == "descent run 0 breaks its phase's layout"

    def test_recorded_runs_take_one_format_each(self, params, tmp_path):
        # every phase run the recorder writes keeps its phase's layout,
        # each flight run holds one launch speed, and no run's float sum
        # is NaN, so no run's text is searched for "nan"
        report = run_single(ApexState(1.5, 0.24),
                            ControlInputs(p_bar=-1.0, k_theta=0.5), params,
                            n_hops=2)
        assert report.failure is None
        runs = report.trajectory.runs
        assert [phase for phase, _, _ in runs] == [
            "descent", "stance", "ascent"] * 2
        assert min(len(floats[0]) for _, _, floats in runs) > 1
        assert [(phase, speed is None, math.isfinite(total))
                for phase, speed, _, total in phase_runs(runs)] == [
            ("descent", False, True), ("stance", True, True),
            ("ascent", False, True)] * 2
        assert isinstance(_traj_bytes(tmp_path, runs), bytes)

    @pytest.mark.parametrize("inputs, n_hops, k_theta_step, hops", [
        (ControlInputs(p_bar=-1.0, k_theta=0.5), 3, None, 3),
        (ControlInputs(p_bar=-1.55, k_theta=0.75), 3, None, 3),
        (ControlInputs(p_bar=-0.5, k_theta=0.3), 3, None, 3),
        (ControlInputs(p_bar=-1.0, k_theta=0.5), 4, (2, 0.7), 4),
        # fails in stance at hop 4: the runs of the hops before it
        (ControlInputs(p_bar=0.0, k_theta=0.64), 6, None, 4),
    ])
    def test_row_path_gives_the_recorded_runs(self, params, monkeypatch,
                                              inputs, n_hops, k_theta_step,
                                              hops):
        # the reference row builder, given each recorded hop's own
        # arguments, gives the rows of the runs run_single joins, bit for
        # bit; phase_runs yields those runs as they are, with their sums
        calls = []
        real = trajectory.record_hop

        def kept(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(trajectory, "record_hop", kept)
        report = run_single(ApexState(1.5, 0.24), inputs, params,
                            n_hops=n_hops, k_theta_step=k_theta_step)
        assert len(report.hops) == len(calls) == hops
        assert (report.failure is None) == (hops == n_hops)
        assert report.failure is None or "@stance" in report.failure
        runs = report.trajectory.runs
        rows = [row for args in calls for row in reference_hop_rows(*args)]
        assert list(map(hex_cells, trajectory_rows(runs))) == list(
            map(hex_cells, rows))
        checked = list(phase_runs(runs))
        assert len(checked) == 3 * hops
        assert all(run == got[:3] and run[2] is got[2]
                   and math.isfinite(got[3])
                   for run, got in zip(runs, checked))
        assert {(type(floats), *map(type, floats))
                for _, _, floats in runs} == {(tuple,) * 5, (tuple,) * 11}

    def test_recorded_runs_stay_checked(self, params, tmp_path):
        # the recorder's runs pass the checks any runs pass: the event
        # order, the phase cycle and a number in every float cell; a NaN
        # float cell is written empty, as the reference writes it
        traj = run_single(ApexState(1.5, 0.24),
                          ControlInputs(p_bar=-1.0, k_theta=0.5), params,
                          n_hops=2).trajectory
        traj.validate()
        late = traj._replace(events=traj.events[::-1])
        for check in (late.validate, functools.partial(
                harness.write_trajectory_csv, late, tmp_path / "late.csv")):
            with pytest.raises(ValueError,
                               match="^event times not increasing"):
                check()
        assert not (tmp_path / "late.csv").exists()
        descent, stance, ascent, *rest = traj.runs

        def replaced(run, col, value):
            phase, speed, floats = run
            cells = list(floats[col])
            cells[2] = value
            return phase, speed, (*floats[:col], tuple(cells),
                                  *floats[col + 1:])

        for name, runs, message in [
            ("cycle", (stance, descent, ascent, *rest),
             "phase 'stance' -> 'descent' breaks the descent->stance->ascent "
             "cycle"),
            ("phase", (descent, ("hover", *stance[1:]), ascent, *rest),
             "unknown phase 'hover' in run 1"),
            ("cell", (descent, stance, replaced(ascent, 2, None), *rest),
             "ascent run 2 breaks its phase's layout"),
            ("speed", (descent, stance, ("ascent", math.nan, ascent[2]),
                       *rest),
             "ascent run 2 breaks its phase's layout"),
        ]:
            (tmp_path / name).mkdir()
            err = _traj_bytes(tmp_path / name, runs)
            assert str(err) == message
        (tmp_path / "nan").mkdir()
        runs = (descent, replaced(stance, 6, math.nan), ascent, *rest)
        written = _traj_bytes(tmp_path / "nan", runs)
        row = written.splitlines()[1 + len(descent[2][0]) + 2].split(b",")
        assert (row[1], row[7]) == (b"stance", b"")

    def test_infinities_of_both_signs_blank_nothing(self, tmp_path):
        # the run's float sum is NaN, but it holds no NaN cell to blank
        _, _, (t, r, *cells, tau) = _stance((0.0, 0.001), 2.0)
        run = ("stance", None, (t, (math.inf, 2.0), *cells, (-math.inf, 2.0)))
        [(phase, speed, floats, total)] = phase_runs([run])
        assert (phase, speed, len(floats), total != total) == (
            "stance", None, 10, True)
        assert _traj_bytes(tmp_path, [run]).splitlines()[1:] == [
            b"0,stance,inf,2,2,2,2,2,2,2,-inf",
            b"0.001,stance,2,2,2,2,2,2,2,2,2"]

    @pytest.mark.parametrize("sample, row", [
        (("stance", None, ((0.0,), (math.nan,), (math.inf,))
          + ((2.0,),) * 7),
         b"0,stance,,inf,2,2,2,2,2,2,2"),
        (("ascent", 1.5, ((0.0,), (-math.inf,), (math.nan,), (2.0,))),
         b"0,ascent,,,,,-inf,,1.5,2,"),
    ])
    def test_nan_next_to_an_infinity_is_blanked(self, tmp_path, sample,
                                                row):
        # sample: a one-row run
        assert _traj_bytes(tmp_path, [sample]).splitlines()[1:] == [row]

    @pytest.mark.parametrize("cell", [True, False])
    def test_bool_cell_raises(self, tmp_path, cell):
        # no writer passes a bool; one must not be written as True
        with pytest.raises(KeyError):
            harness._write_csv(tmp_path / "out.csv", ("a", "b"),
                               [(1.0, cell)])

    def test_trajectory_matches_the_reference_writer(self, params, tmp_path):
        # (inputs, n_hops, k_theta_step, hops completed)
        cases = [
            (ControlInputs(p_bar=-1.0, k_theta=0.5), 3, None, 3),
            (ControlInputs(p_bar=-1.0, k_theta=0.5), 4, (2, 0.7), 4),
            # fails in stance at hop 4: a partial trajectory
            (ControlInputs(p_bar=0.0, k_theta=0.64), 6, None, 4),
            # an int tau_max saturates some ticks; their tau is a float
            (ControlInputs(p_bar=-1.0, k_theta=0.5, tau_max=10), 3, None, 3),
        ]
        for inputs, n_hops, k_theta_step, hops in cases:
            report = run_single(ApexState(1.5, 0.24), inputs, params,
                                n_hops=n_hops, k_theta_step=k_theta_step)
            assert len(report.hops) == hops
            assert (report.failure is None) == (hops == n_hops)
            samples = trajectory_rows(report.trajectory.runs)
            assert {s.phase for s in samples} == {
                "descent", "stance", "ascent"}
            if inputs.tau_max is not None:
                stance_taus = [s.tau for s in samples if s.phase == "stance"]
                assert max(map(abs, stance_taus)) == 10.0
                assert {type(tau) for tau in stance_taus} == {float}
            harness.write_trajectory_csv(report.trajectory,
                                         tmp_path / "new.csv")
            reference_write_csv(tmp_path / "ref.csv",
                                TrajectoryRow._fields, samples)
            assert (tmp_path / "new.csv").read_bytes() == (
                tmp_path / "ref.csv").read_bytes(), (inputs, k_theta_step)

    def test_converged_rows_are_formatted_once(self, params, tmp_path):
        # each cell of a converged row by its type's % conversion: the
        # stable flag a string, the residual a float
        report = run_sweep(SweepConfig(
            params=params, p_bar_range=(-1.2, -0.8, 2),
            k_theta_range=(0.4, 0.6, 2),
            pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC)))
        assert all(o.status == "converged" for o in report.outcomes)
        harness.write_sweep_outputs(report, tmp_path)
        reference_write_csv(
            tmp_path / "ref.csv", _read_csv(tmp_path / "sweep.csv")[0],
            ((o.p_bar, o.k_theta, o.pipeline, o.result.apex.x_dot,
              o.result.apex.y, o.result.spectral_radius, o.result.stable,
              o.result.residual, o.status) for o in report.outcomes))
        assert (tmp_path / "sweep.csv").read_bytes() == (
            tmp_path / "ref.csv").read_bytes()

    def test_written_strings_need_no_quoting(self, params):
        # the writer does not quote cells, so no string the program writes
        # into a CSV may hold a comma, a quote or a line break
        report = run_single(ApexState(1.5, 0.24),
                            ControlInputs(p_bar=-1.0, k_theta=0.5), params,
                            n_hops=1)
        hop_phases = {phase for phase, _, _ in report.trajectory.runs}
        fail_phases = ("aoa", "descent", "touchdown", "stance", "ascent",
                       None)
        statuses = {harness._fail_status(cls("failed", phase=phase))
                    for cls in _subclasses(SlipError)
                    for phase in fail_phases}
        assert "GaitFailure@aoa" in statuses and "NonPhysical" in statuses
        words = {*harness.ALL_PIPELINES, *hop_phases, "converged", "NoSeed",
                 *statuses}
        assert [w for w in words
                if any(ch in w for ch in ',"\r\n')] == []


# (module, attribute) of the float law each phase of each map runs
_PHASE_CALLEES = {
    SIMULATOR_NUMERIC: {"aoa": (simulate, "solve_aoa_implicit"),
                        "stance": (simulate, "integrate_stance")},
    ANALYTIC_NUMERIC: {"aoa": (analytic, "solve_aoa_approx"),
                       "stance": (analytic, "flow_liftoff")},
}
_SHARED_CALLEES = {"descent": (simulate, "descend"),
                   "touchdown": (simulate, "touchdown_reset"),
                   "ascent": (simulate, "ascend")}
_MAPS = {SIMULATOR_NUMERIC: simulator_return_map,
         ANALYTIC_NUMERIC: return_map_analytic}


class TestSolvePoint:
    @pytest.mark.parametrize("pipeline", [SIMULATOR_NUMERIC,
                                          ANALYTIC_NUMERIC])
    @pytest.mark.parametrize("phase", ["aoa", "descent", "touchdown",
                                       "stance", "ascent"])
    def test_failures_carry_their_phase(self, params, monkeypatch, pipeline,
                                        phase):
        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        apex = closed_form_fixed_point(-1.0, 0.5, params).apex
        module, attr = {**_SHARED_CALLEES, **_PHASE_CALLEES[pipeline]}[phase]

        def fail(*args, **kwargs):
            raise SlipError(f"injected into {attr}")

        monkeypatch.setattr(module, attr, fail)
        with pytest.raises(SlipError, match=attr) as info:
            _MAPS[pipeline](apex, inputs, params)
        assert info.value.phase == phase
        report = run_sweep(SweepConfig(params=params,
                                       p_bar_range=(-1.0, -1.0, 1),
                                       k_theta_range=(0.5, 0.5, 1),
                                       pipelines=(pipeline,)))
        assert [o.status for o in report.outcomes] == [f"GaitFailure@{phase}"]

    def test_sweep_and_cli_share_the_simulator_map(self, monkeypatch):
        calls = _count_map_calls(monkeypatch)
        run_sweep(SweepConfig(p_bar_range=(-1.0, -1.0, 1),
                              k_theta_range=(0.5, 0.5, 1),
                              pipelines=(SIMULATOR_NUMERIC,)))
        sweep_calls = list(calls)
        assert main(["fixed-point", "--p-bar", "-1.0", "--k-theta", "0.5",
                     "--pipeline", SIMULATOR_NUMERIC]) == 0
        assert len(sweep_calls) > 0
        assert calls[len(sweep_calls):] == sweep_calls

    def test_stance_blow_up_is_a_stance_failure(self, params):
        # this apex touches down at theta = 1.529 rad with r_dot = -28.7
        # m/s; the stance state leaves the floats, and math.cos raised a
        # bare "math domain error" that aborted a sweep
        apex = ApexState(28.713207534728586, 0.08227044092320054)
        inputs = ControlInputs(-4.0, 1.0)
        with pytest.raises(InvalidState, match="math domain error") as info:
            simulator_return_map(apex, inputs, params)
        assert info.value.phase == "stance"
        with pytest.raises(SlipError, match="math domain error") as info:
            solve_point(SIMULATOR_NUMERIC, inputs, params, seed=apex)
        assert info.value.phase == "stance"

    @pytest.mark.parametrize("p_bar,k_theta", [
        (-1.55, 0.3), (-1.55, 0.75), (-0.5, 0.3), (-0.5, 0.75), (-1.0, 0.5)])
    def test_simulator_solve_takes_at_most_13_maps(self, params, monkeypatch,
                                                   p_bar, k_theta):
        # from the closed form: 1 + one per Broyden step + 4 for
        # stability, with no start differences (Broyden starts from the
        # closed form's Jacobian, refitted to two steps); 10-12 here, and
        # 10-13 with the rank-1 update alone. Differences at the seed
        # took up to 16, Newton with a fresh Jacobian each step up to 23.
        # From the analytic fixed point and its exact Jacobian, as
        # solve_point starts without a seed: 9-11
        maps = _count_map_calls(monkeypatch)
        inputs = ControlInputs(p_bar, k_theta)
        closed = closed_form_fixed_point(p_bar, k_theta, params)
        res = solve_point(SIMULATOR_NUMERIC, inputs, params, seed=closed.apex,
                          jacobian=closed.jacobian)
        assert res.residual <= harness.SIM_TOL
        assert len(maps) <= 12
        maps.clear()
        res = solve_point(SIMULATOR_NUMERIC, inputs, params)
        assert res.residual <= harness.SIM_TOL
        assert len(maps) <= 11

    @pytest.mark.parametrize("p_bar,k_theta", [
        (-1.0, 0.5), (-1.55, 0.75),
        (-0.9421052631578948, 0.6078947368421053)],
        ids=["-1.0-0.5", "-1.55-0.75", "-0.942-0.608"])
    def test_simulator_fixed_point_does_not_depend_on_its_seed(
            self, params, p_bar, k_theta):
        # a root within SIM_TOL of its image lies, to first order, within
        # SIM_TOL*||(I - J)^-1||_inf of the true fixed point, so two roots
        # agree within twice that. 1/(1 - rho) is that norm only for a
        # normal J: at (-0.942, 0.608) the roots from the neighbouring
        # cell's fixed point, started from its Jacobian and from
        # differences, lay 4.8e-10 apart with the rank-1 update alone,
        # above 2*SIM_TOL/(1 - rho) = 4.1e-10 and inside
        # 2*SIM_TOL*||(I - J)^-1||_inf = 1.25e-9 (8.8e-12 with the
        # start Jacobian refitted to two steps)
        inputs = ControlInputs(p_bar, k_theta)
        start = closed_form_fixed_point(p_bar, k_theta, params)
        closed = solve_point(SIMULATOR_NUMERIC, inputs, params,
                             seed=start.apex, jacobian=start.jacobian)
        seed = solve_point(ANALYTIC_NUMERIC, inputs, params).apex
        other = solve_point(SIMULATOR_NUMERIC, inputs, params, seed=seed)
        bound = 2.0 * harness.SIM_TOL / (1.0 - closed.spectral_radius)
        assert abs(other.apex.x_dot - closed.apex.x_dot) <= bound
        assert abs(other.apex.y - closed.apex.y) <= bound

        near = solve_point(SIMULATOR_NUMERIC,
                           ControlInputs(p_bar, k_theta - 0.45 / 19), params)
        roots = [other, solve_point(SIMULATOR_NUMERIC, inputs, params,
                                    seed=start.apex)]
        roots += [solve_point(SIMULATOR_NUMERIC, inputs, params,
                              seed=near.apex, jacobian=jacobian)
                  for jacobian in (near.jacobian, None)]
        (a, b), (c, d) = closed.jacobian
        det = (1.0 - a) * (1.0 - d) - b * c
        bound = 2.0 * harness.SIM_TOL * max(
            abs(1.0 - d) + abs(b), abs(c) + abs(1.0 - a)) / abs(det)
        for root in roots:
            assert abs(root.apex.x_dot - closed.apex.x_dot) <= bound
            assert abs(root.apex.y - closed.apex.y) <= bound

    def test_analytic_solve_takes_no_difference_stencil(self, params,
                                                        monkeypatch):
        # through a wrapped fixedpoint.return_map_analytic: the closed
        # form's residual, P(seed) and one map per Broyden step; the
        # Jacobians are exact
        maps = []
        real_map = fixedpoint.return_map_analytic

        def counted(*args):
            maps.append(args[0])
            return real_map(*args)

        monkeypatch.setattr(fixedpoint, "return_map_analytic", counted)
        for p_bar, k_theta in ((-1.55, 0.3), (-0.5, 0.75), (-1.0, 0.5)):
            maps.clear()
            res = solve_point(ANALYTIC_NUMERIC, ControlInputs(p_bar, k_theta),
                              params)
            assert len(maps) == 2 + res.newton_steps

    def test_rejects_unknown_pipeline(self, params):
        with pytest.raises(ValueError, match="unknown pipeline"):
            solve_point("nonsense", ControlInputs(p_bar=-1.0, k_theta=0.5),
                        params)


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("""
# hopper parameters
m = 3.3
k = 4000    # spring
p_bar = -0.9
pipelines = closed-form,analytic-numeric
""")
        values = parse_config_file(cfg)
        assert values["m"] == "3.3"
        assert values["k"] == "4000"
        assert values["pipelines"] == "closed-form,analytic-numeric"

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a key value line\n")
        from sliphop.cli import ConfigError
        with pytest.raises(ConfigError):
            parse_config_file(cfg)


class TestCli:
    def test_sweep_command(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("p_bar_min=-1.0\np_bar_max=-0.9\np_bar_count=2\n"
                       "k_theta_min=0.5\nk_theta_max=0.5\nk_theta_count=1\n"
                       "pipelines=closed-form,analytic-numeric\n")
        rc = main(["sweep", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert "converged" in capsys.readouterr().out

    def test_fixed_point_command(self, capsys):
        rc = main(["fixed-point", "--p-bar", "-1.0", "--k-theta", "0.5",
                   "--pipeline", "closed-form"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "converged"
        assert doc["apex"]["x_dot"] == pytest.approx(1.7773111866,
                                                     rel=1e-6)
        assert doc["touchdown"]["theta_td"] == pytest.approx(0.5030236983,
                                                             rel=1e-6)
        assert doc["stable"] is True

    def test_fixed_point_unknown_stability_is_null(self, capsys):
        p_bar = harness._grid(-1.55, -0.5, 20)[3]
        rc = main(["fixed-point", "--p-bar", repr(p_bar), "--k-theta", "0.3",
                   "--pipeline", "closed-form"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "converged"
        assert doc["spectral_radius"] is None and doc["stable"] is None

    def test_fixed_point_simulator_uses_dt(self, params, capsys):
        argv = ["fixed-point", "--p-bar", "-1.0", "--k-theta", "0.5",
                "--pipeline", "simulator-numeric"]
        assert main(argv) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(argv + ["--dt", "5e-4"]) == 0
        halved = json.loads(capsys.readouterr().out)
        sim_map = functools.partial(simulator_return_map, dt=5e-4)
        inputs = ControlInputs(p_bar=-1.0, k_theta=0.5)
        anchor = solve_point(ANALYTIC_NUMERIC, inputs, params)
        want = numeric_fixed_point(sim_map, anchor.apex, inputs, params,
                                   tol=harness.SIM_TOL,
                                   jacobian=anchor.jacobian)
        assert halved["apex"] == {"x_dot": want.apex.x_dot,
                                  "y": want.apex.y}
        assert halved["apex"] != default["apex"]

    def test_single_command(self, tmp_path):
        rc = main(["single", "--p-bar", "-1.0", "--k-theta", "0.5",
                   "--n-hops", "2", "--apex-x-dot", "1.5", "--apex-y",
                   "0.24", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "trajectory.csv").exists()

    def test_single_command_writes_the_golden_bytes(self, tmp_path):
        # trajectory.csv, hops.csv and single.json of two recorded hops
        # with a k_theta step at hop 1, as the writer wrote them when it
        # compared the cell types of each phase run
        rc = main(["single", "--p-bar", "-1.0", "--k-theta", "0.5",
                   "--n-hops", "2", "--apex-x-dot", "1.5", "--apex-y",
                   "0.24", "--k-theta-step-hop", "1",
                   "--k-theta-step-value", "0.7", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("trajectory.csv", "hops.csv", "single.json"):
            assert (tmp_path / name).read_bytes() == (
                GOLDEN_SINGLE / name).read_bytes(), name

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("k_theta_count = banana\n")
        rc = main(["sweep", str(bad)])
        assert rc == 2

    def test_bad_grid_exits_before_any_cell(self, tmp_path, monkeypatch,
                                            capsys):
        solved = []
        monkeypatch.setattr(harness, "_solve_cell",
                            lambda *args: solved.append(args))
        out = tmp_path / "out"
        rc = main(["sweep", "--k-theta-min", "0.9", "--k-theta-max", "1.1",
                   "--k-theta-count", "2", "--p-bar-count", "1",
                   "--out", str(out)])
        assert rc == 2
        assert "k_theta must be in [0, 1]" in capsys.readouterr().err
        assert solved == []
        assert not out.exists()

    def test_missing_config_file(self):
        rc = main(["sweep", "/nonexistent/path.cfg"])
        assert rc == 2

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        rc = main(["sweep", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_sweep_out_not_a_directory_runs_nothing(self, tmp_path,
                                                    monkeypatch, capsys):
        solved = []
        monkeypatch.setattr(harness, "_solve_cell",
                            lambda *args: solved.append(args))
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        rc = main(["sweep", "--p-bar-count", "2", "--k-theta-count", "2",
                   "--pipelines", "closed-form", "--out", str(taken)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert solved == []
        assert taken.read_text() == "a file, not a directory\n"

    def test_single_out_not_a_directory_runs_nothing(self, tmp_path,
                                                     monkeypatch, capsys):
        maps = _count_map_calls(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        rc = main(["single", "--n-hops", "2", "--out", str(taken)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert maps == []

    def test_non_boolean_seed_chaining_is_a_config_error(self, tmp_path,
                                                         monkeypatch, capsys):
        solved = []
        monkeypatch.setattr(harness, "_solve_cell",
                            lambda *args: solved.append(args))
        rc = main(["sweep", "--seed-chaining", "maybe",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: config key seed_chaining='maybe': not a boolean: "
            "'maybe'\n")
        assert solved == []
        assert not (tmp_path / "out").exists()

    def test_all_failed_exit_code(self, tmp_path):
        # unreachable apex forces a first-hop failure
        rc = main(["single", "--p-bar", "-0.5", "--k-theta", "0.05",
                   "--apex-x-dot", "1.0", "--apex-y", "0.15",
                   "--n-hops", "2", "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("argv", [
        ["sweep", "--dt", "0"],
        ["sweep", "--dt=-1e-4"],
        ["sweep", "--control-dt", "nan"],
        ["single", "--dt", "0"],
        ["fixed-point", "--p-bar", "-1.0", "--k-theta", "0.5",
         "--pipeline", "simulator-numeric", "--control-dt", "-1"],
        ["fixed-point", "--p-bar", "-1.0", "--k-theta", "0.5",
         "--pipeline", "closed-form", "--dt", "0"],
    ])
    def test_bad_step_is_a_config_error(self, argv, tmp_path, monkeypatch,
                                        capsys):
        solved = []
        monkeypatch.setattr(harness, "_solve_cell",
                            lambda *args: solved.append(args))
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert solved == []
        assert not out.exists()

    @pytest.mark.parametrize("half", [["--k-theta-step-hop", "3"],
                                      ["--k-theta-step-value", "0.7"]])
    def test_half_gain_step_is_a_config_error(self, half, tmp_path, capsys):
        rc = main(["single", "--n-hops", "2", "--out", str(tmp_path / "out")]
                  + half)
        assert rc == 2
        assert "must be given together" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("hop,value", [
        ("5", "1.5"), ("-3", "0.5"),
        pytest.param("20", "0.7", id="hop-at-n_hops"),
    ])
    def test_bad_gain_step_exits_before_any_hop(self, hop, value, tmp_path,
                                                monkeypatch, capsys):
        maps = _count_map_calls(monkeypatch)
        rc = main(["single", "--k-theta-step-hop", hop,
                   "--k-theta-step-value", value,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: k_theta")
        assert maps == []
        assert not (tmp_path / "out").exists()


def test_package_runs_on_the_standard_library():
    code = textwrap.dedent("""
        import sys
        from sliphop import (DEFAULT_PARAMS, ApexState, ControlInputs,
                             SweepConfig, return_map_analytic,
                             return_map_numeric, run_single, run_sweep)
        apex, gait = ApexState(1.0, 0.25), ControlInputs(-0.79, 0.64)
        return_map_numeric(apex, gait, DEFAULT_PARAMS, record=False)
        return_map_analytic(apex, gait, DEFAULT_PARAMS)
        run_sweep(SweepConfig(p_bar_range=(-1.0, -0.8, 2),
                              k_theta_range=(0.5, 0.6, 2)))
        run_single(apex, gait, DEFAULT_PARAMS, 2)
        assert "numpy" not in sys.modules, "numpy was imported"
    """)
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_pool_and_no_statistics():
    # every fresh process pays for what `import sliphop` loads; the pool
    # is imported by a sweep with workers > 1 only
    code = textwrap.dedent("""
        import sys
        import sliphop
        print(sorted(m for m in ("concurrent.futures", "multiprocessing",
                                 "statistics") if m in sys.modules))
    """)
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1,
                max_size=50))
@example([-0.0])
@example([0.1] * 10)
def test_mean_is_fmean_bit_for_bit(xs):
    assert harness._mean(xs).hex() == statistics.fmean(xs).hex()


def _non_stdlib_imports(path):
    """(line, module) of every absolute import in the file whose top-level
    module is not in the standard library, nested ones included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_package_imports_only_the_standard_library():
    # static, so an optional dependency guarded by try/except ImportError
    # is caught whether or not it is installed
    package = Path(harness.__file__).resolve().parent
    offenders = {path.name: found
                 for path in sorted(package.glob("*.py"))
                 if (found := _non_stdlib_imports(path))}
    assert offenders == {}
