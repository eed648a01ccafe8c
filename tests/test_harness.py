import csv
import dataclasses
import functools
import json
import math
import sys
import types

import pytest

from sliphop import (ApexState, ControlInputs, SlipError, StanceState,
                     SweepConfig, analytic, cli, closed_form_fixed_point,
                     harness, numeric_fixed_point, return_map_analytic,
                     run_single, run_sweep, simulate, simulator_return_map,
                     solve_point)
from sliphop.cli import main, parse_config_file
from sliphop.fixedpoint import (ANALYTIC_NUMERIC, CLOSED_FORM,
                                SIMULATOR_NUMERIC)


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
        with pytest.raises(ValueError):
            SweepConfig(k_theta_range=(0.3, 0.75, 0))  # empty
        with pytest.raises(ValueError):
            SweepConfig(pipelines=("nonsense",))

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
    ])
    def test_rejects_bad_grid_up_front(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{field: value})


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

    def test_error_stats_pairs(self, params):
        cfg = SweepConfig(params=params, p_bar_range=(-1.0, -0.9, 2),
                          k_theta_range=(0.5, 0.5, 1))
        report = run_sweep(cfg)
        pairs = {(s.predicted, s.reference) for s in report.error_stats}
        assert (CLOSED_FORM, SIMULATOR_NUMERIC) in pairs
        assert (ANALYTIC_NUMERIC, SIMULATOR_NUMERIC) in pairs
        assert (CLOSED_FORM, ANALYTIC_NUMERIC) in pairs
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
                                 tol=1e-6, prewarm=3)
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
                                 tol=1e-9, prewarm=3)
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

        stance = [s for s in report.trajectory.samples
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
        samples = report.trajectory.samples
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


# (module, attribute) of the callee each phase of each map runs
_PHASE_CALLEES = {
    SIMULATOR_NUMERIC: {"aoa": (simulate, "solve_aoa_implicit"),
                        "stance": (simulate, "integrate_stance")},
    ANALYTIC_NUMERIC: {"aoa": (analytic, "solve_aoa_approx"),
                       "stance": (analytic, "stance_map_analytic")},
}
_SHARED_CALLEES = {"descent": (simulate, "integrate_descent"),
                   "touchdown": (simulate, "flight_to_stance"),
                   "ascent": (simulate, "integrate_ascent")}
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

    def test_fixed_point_simulator_uses_dt(self, params, capsys):
        argv = ["fixed-point", "--p-bar", "-1.0", "--k-theta", "0.5",
                "--pipeline", "simulator-numeric"]
        assert main(argv) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(argv + ["--dt", "1e-3"]) == 0
        coarse = json.loads(capsys.readouterr().out)
        sim_map = functools.partial(simulator_return_map, dt=1e-3)
        seed = closed_form_fixed_point(-1.0, 0.5, params).apex
        want = numeric_fixed_point(sim_map, seed,
                                   ControlInputs(p_bar=-1.0, k_theta=0.5),
                                   params, tol=1e-6, prewarm=3)
        assert coarse["apex"] == {"x_dot": want.apex.x_dot,
                                  "y": want.apex.y}
        assert coarse["apex"] != default["apex"]

    def test_single_command(self, tmp_path):
        rc = main(["single", "--p-bar", "-1.0", "--k-theta", "0.5",
                   "--n-hops", "2", "--apex-x-dot", "1.5", "--apex-y",
                   "0.24", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "trajectory.csv").exists()

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

    @pytest.mark.parametrize("hop,value", [("5", "1.5"), ("-3", "0.5")])
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

    def test_validate_command(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"stance kernel: {cli._kernel_path()}"
        assert [ln.split(":")[0] for ln in out[1:3]] == [
            "PASS  undamped vertical bounce is symmetric",
            "PASS  leg force vanishes at the localized liftoff"]
        assert out[3] == "2/2 invariants hold"

    def test_validate_fails_on_a_bad_liftoff(self, monkeypatch, capsys):
        # the leg still compressed and short of the touchdown speed
        bad = StanceState(r=0.19, r_dot=1.0, theta=0.0, theta_dot=0.0)
        monkeypatch.setattr(cli, "integrate_stance",
                            lambda td, inputs, params: (bad, None))
        assert main(["validate"]) == 3
        out = capsys.readouterr().out
        assert out.count("FAIL  ") == 2
        assert out.endswith("0/2 invariants hold\n")

    @pytest.mark.parametrize("have,disable,want", [
        (False, False, "pure Python (numba not installed)"),
        (True, False, "numba JIT (numba 0.60.0)"),
        (True, True, "pure Python (numba 0.60.0, NUMBA_DISABLE_JIT set)"),
    ])
    def test_kernel_path_names_the_active_kernel(self, monkeypatch, have,
                                                 disable, want):
        fake = types.SimpleNamespace(
            __version__="0.60.0",
            config=types.SimpleNamespace(DISABLE_JIT=disable))
        monkeypatch.setitem(sys.modules, "numba", fake)
        monkeypatch.setattr(cli, "HAVE_NUMBA", have)
        assert cli._kernel_path() == want
