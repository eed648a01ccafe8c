"""What `sliphop` hands the library.

The library calls are replaced by recorders, so these tests pin the
objects each subcommand builds from its config (file, flags, defaults)
without running a sweep, a hop or a solve.
"""

import dataclasses
import inspect
import json
import re

import pytest

from sliphop import (ApexState, ControlInputs, DEFAULT_PARAMS, SlipParams,
                     SweepConfig, cli, closed_form_fixed_point, harness,
                     simulate)
from sliphop.fixedpoint import (ANALYTIC_NUMERIC, CLOSED_FORM,
                                SIMULATOR_NUMERIC)
from sliphop.harness import (ErrorStats, HopSummary, PointOutcome,
                             SingleRunReport, SweepReport)
from sliphop.trajectory import HybridTrajectory

_FIXED_POINT = closed_form_fixed_point(-1.0, 0.5, DEFAULT_PARAMS)
_STATS = ErrorStats(CLOSED_FORM, ANALYTIC_NUMERIC, "x_dot", 1, 1.5e-3,
                    0.0875, 0.0875)


def _sweep_report(cfg):
    return SweepReport(
        config=cfg,
        outcomes=[PointOutcome(-1.0, 0.5, CLOSED_FORM, result=_FIXED_POINT),
                  PointOutcome(-1.0, 0.5, ANALYTIC_NUMERIC,
                               status="GaitFailure@stance")],
        error_stats=[_STATS], runtime_s=1.25)


def _single_report(apex, *_args):
    return SingleRunReport(
        hops=[HopSummary(0, 1.1, 0.26, -0.8, 0.4, -0.1, 0.19)],
        trajectory=HybridTrajectory(), final_apex=apex,
        failure="hop 1: GaitFailure@aoa: injected")


_FAKES = {"run_sweep": (harness.run_sweep, _sweep_report),
          "run_single": (harness.run_single, _single_report),
          "solve_point": (harness.solve_point,
                          lambda *_args: _FIXED_POINT)}


@pytest.fixture
def calls(monkeypatch):
    """(name, arguments) of every library call main makes; the arguments
    are bound to the real signature with its defaults applied."""
    made = []
    for name, (real, result) in _FAKES.items():
        def fake(*args, _name=name, _real=real, _result=result, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            bound.apply_defaults()
            made.append((_name, dict(bound.arguments)))
            return _result(*args)
        monkeypatch.setattr(cli, name, fake)
    return made


_COMMON_FILE = ("m = 3.0\nk = 3800\nb = 18\nr0 = 0.21\ng = 9.7\n"
                "kp = 90\nki = 0.1\nkd = 0.04\ntau_max = 40\n"
                "dt = 2e-4\ncontrol_dt = 2e-3\nout_dir = from_file\n")
_FILE_PARAMS = SlipParams(m=3.0, k=3800.0, b=18.0, r0=0.21, g=9.7)
_FILE_GAINS = dict(kp=90.0, ki=0.1, kd=0.04, tau_max=40.0)

_SWEEP_FILE = _COMMON_FILE + (
    "p_bar_min = -1.2\np_bar_max = -0.6\np_bar_count = 3\n"
    "k_theta_min = 0.4\nk_theta_max = 0.6\nk_theta_count = 4\n"
    "pipelines = closed-form, analytic-numeric\nworkers = 2\n"
    "seed_chaining = off\n")
_SWEEP_FROM_FILE = SweepConfig(
    params=_FILE_PARAMS, p_bar_range=(-1.2, -0.6, 3),
    k_theta_range=(0.4, 0.6, 4), pipelines=(CLOSED_FORM, ANALYTIC_NUMERIC),
    out_dir="from_file", seed_chaining=False, workers=2, dt=2e-4,
    control_dt=2e-3, **_FILE_GAINS)


def _sweep_out(out_dir):
    return (f"sweep: 1/2 cells converged in 1.2 s -> {out_dir}\n"
            "  closed-form vs analytic-numeric x_dot: rms=0.0015 (0.1%) "
            "over 1 points\n")


_SINGLE_FILE = _COMMON_FILE + (
    "p_bar = -1.1\nk_theta = 0.55\nn_hops = 7\napex_x_dot = 1.4\n"
    "apex_y = 0.26\nk_theta_step_hop = 3\nk_theta_step_value = 0.6\n")
_SINGLE_FROM_FILE = dict(
    apex=ApexState(1.4, 0.26),
    inputs=ControlInputs(p_bar=-1.1, k_theta=0.55, **_FILE_GAINS),
    params=_FILE_PARAMS, n_hops=7, k_theta_step=(3, 0.6), dt=2e-4,
    control_dt=2e-3, out_dir="from_file")


def _single_out(out_dir):
    return (f"single: 1 hops -> {out_dir}\n"
            "  stopped: hop 1: GaitFailure@aoa: injected\n")


_FIXED_POINT_FILE = _COMMON_FILE + (
    "p_bar = -1.1\nk_theta = 0.55\npipeline = analytic-numeric\n")
_FIXED_POINT_FROM_FILE = dict(
    pipeline=ANALYTIC_NUMERIC,
    inputs=ControlInputs(p_bar=-1.1, k_theta=0.55, **_FILE_GAINS),
    params=_FILE_PARAMS, seed=None, jacobian=None, dt=2e-4, control_dt=2e-3)
_FIXED_POINT_OUT = json.dumps({
    "status": "converged",
    "pipeline": _FIXED_POINT.provenance,
    "apex": {"x_dot": _FIXED_POINT.apex.x_dot, "y": _FIXED_POINT.apex.y},
    "spectral_radius": _FIXED_POINT.spectral_radius,
    "stable": _FIXED_POINT.stable,
    "residual": _FIXED_POINT.residual,
    "newton_steps": _FIXED_POINT.newton_steps,
    "touchdown": {"r_dot_td": _FIXED_POINT.touchdown.r_dot_td,
                  "theta_td": _FIXED_POINT.touchdown.theta_td,
                  "theta_dot_td": _FIXED_POINT.touchdown.theta_dot_td,
                  "theta_offset": _FIXED_POINT.touchdown.theta_offset},
}, indent=2, sort_keys=True) + "\n"

# (config file text or None, flags, expected calls, exit code, stdout,
#  stderr)
_CASES = {
    "sweep/no-config": (
        None, [],
        [("run_sweep", {"cfg": SweepConfig(out_dir="sweep_out")})],
        0, _sweep_out("sweep_out"), ""),
    "sweep/file": (
        _SWEEP_FILE, [],
        [("run_sweep", {"cfg": _SWEEP_FROM_FILE})],
        0, _sweep_out("from_file"), ""),
    "sweep/flags-override-file": (
        _SWEEP_FILE,
        ["--m", "3.1", "--kp", "80", "--tau-max", "none", "--dt", "1e-4",
         "--p-bar-count", "5", "--k-theta-max", "0.7", "--pipelines",
         SIMULATOR_NUMERIC, "--workers", "1", "--seed-chaining", "yes",
         "--out", "from_flag"],
        [("run_sweep", {"cfg": dataclasses.replace(
            _SWEEP_FROM_FILE,
            params=dataclasses.replace(_FILE_PARAMS, m=3.1), kp=80.0,
            tau_max=None, dt=1e-4, p_bar_range=(-1.2, -0.6, 5),
            k_theta_range=(0.4, 0.7, 4), pipelines=(SIMULATOR_NUMERIC,),
            workers=1, seed_chaining=True, out_dir="from_flag")})],
        0, _sweep_out("from_flag"), ""),
    "single/no-config": (
        None, [],
        [("run_single", dict(
            apex=ApexState(1.0, 0.25),
            inputs=ControlInputs(p_bar=-0.79, k_theta=0.64),
            params=DEFAULT_PARAMS, n_hops=20, k_theta_step=None,
            dt=simulate.DEFAULT_DT, control_dt=simulate.DEFAULT_CONTROL_DT,
            out_dir="single_out"))],
        0, _single_out("single_out"), ""),
    "single/file": (
        _SINGLE_FILE, [], [("run_single", _SINGLE_FROM_FILE)],
        0, _single_out("from_file"), ""),
    "single/flags-override-file": (
        _SINGLE_FILE,
        ["--k-theta", "0.6", "--n-hops", "2", "--apex-y", "0.3",
         "--k-theta-step-value", "0.65", "--control-dt", "1e-3", "--b", "15",
         "--ki", "0.3", "--out", "from_flag"],
        [("run_single", {
            **_SINGLE_FROM_FILE, "apex": ApexState(1.4, 0.3),
            "inputs": ControlInputs(p_bar=-1.1, k_theta=0.6,
                                    **{**_FILE_GAINS, "ki": 0.3}),
            "params": dataclasses.replace(_FILE_PARAMS, b=15.0),
            "n_hops": 2, "k_theta_step": (3, 0.65), "control_dt": 1e-3,
            "out_dir": "from_flag"})],
        0, _single_out("from_flag"), ""),
    "sweep/unknown-key": (
        _SWEEP_FILE + "kpp = 90\np_bar_cout = 5\n", [], [], 2, "",
        "config error: unknown config key 'kpp'\n"),
    "sweep/control-dt-not-a-multiple": (
        _SWEEP_FILE, ["--dt", "3e-4"], [], 2, "",
        "config error: control_dt must be a whole multiple of dt, got "
        "control_dt / dt = 6.66666667\n"),
    "single/other-commands-keys": (
        _SINGLE_FILE + "p_bar_min = -1.2\npipeline = simulator-numeric\n",
        [], [("run_single", _SINGLE_FROM_FILE)],
        0, _single_out("from_file"), ""),
    "fixed-point/no-config": (
        None, [], [], 2, "",
        "config error: fixed-point requires --p-bar and --k-theta\n"),
    "fixed-point/file": (
        _FIXED_POINT_FILE, [], [("solve_point", _FIXED_POINT_FROM_FILE)],
        0, _FIXED_POINT_OUT, ""),
    "fixed-point/flags-override-file": (
        _FIXED_POINT_FILE,
        ["--p-bar", "-0.9", "--pipeline", SIMULATOR_NUMERIC, "--dt", "1e-4",
         "--kd", "0.06", "--r0", "0.22", "--out", "ignored"],
        [("solve_point", {
            **_FIXED_POINT_FROM_FILE, "pipeline": SIMULATOR_NUMERIC,
            "inputs": ControlInputs(p_bar=-0.9, k_theta=0.55,
                                    **{**_FILE_GAINS, "kd": 0.06}),
            "params": dataclasses.replace(_FILE_PARAMS, r0=0.22),
            "dt": 1e-4})],
        0, _FIXED_POINT_OUT, ""),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_cli_hands_the_library(case, calls, tmp_path, capsys):
    text, flags, want_calls, want_rc, want_out, want_err = _CASES[case]
    argv = [case.split("/")[0]]
    if text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(text)
        argv.append(str(path))
    rc = cli.main(argv + flags)
    out, err = capsys.readouterr()
    assert calls == want_calls
    assert (rc, out, err) == (want_rc, want_out, want_err)


def test_key_set_twice_is_a_config_error(calls, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("p_bar_count = 2\n# grid\nk_theta_count = 1\n"
                    "p_bar_count = 3\n")
    rc = cli.main(["sweep", str(path)])
    assert calls == []
    assert (rc, *capsys.readouterr()) == (
        2, "", f"config error: {path}:4: key 'p_bar_count' already set on "
        "line 1\n")


@pytest.mark.parametrize("command", ["sweep", "single", "fixed-point"])
def test_help_describes_the_config_file(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, err) == (0, "")
    assert re.search(r"^  config +key=value config file$", out, re.MULTILINE)


@pytest.mark.parametrize("argv,ratio", [
    (["single", "--dt", "3e-4", "--n-hops", "1"], "3.33333333"),
    (["fixed-point", "--p-bar", "-1.0", "--k-theta", "0.5", "--pipeline",
      SIMULATOR_NUMERIC, "--dt", "1e-4", "--control-dt", "5e-5"], "0.5"),
])
def test_control_dt_not_a_multiple_of_dt_runs_nothing(argv, ratio, tmp_path,
                                                      capsys):
    out_dir = tmp_path / "out"
    rc = cli.main(argv + ["--out", str(out_dir)])
    assert (rc, *capsys.readouterr()) == (
        2, "", "config error: control_dt must be a whole multiple of dt, "
        f"got control_dt / dt = {ratio}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["sweep", "single"])
def test_infinite_tau_max_runs_nothing(command, calls, tmp_path, capsys):
    # "none" and "inf" mean unlimited; a value that overflows to inf
    # would reach report.json or single.json as Infinity, which is not JSON
    out_dir = tmp_path / "out"
    rc = cli.main([command, "--tau-max", "1e400", "--out", str(out_dir)])
    assert calls == []
    assert (rc, *capsys.readouterr()) == (
        2, "", "config error: tau_max must be > 0 and finite when set "
        "(None for unlimited), got inf\n")
    assert not out_dir.exists()


def test_touchdown_past_horizontal_is_a_failed_cell(tmp_path, capsys):
    # the closed form's Q+ touchdown angle is 22.6 rad at this point
    rc = cli.main(["sweep", "--p-bar-min", "-2.0", "--p-bar-max", "-2.0",
                   "--p-bar-count", "1", "--k-theta-min", "0.4068",
                   "--k-theta-max", "0.4068", "--k-theta-count", "1",
                   "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 3
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == [
        f"-2,0.4068,{CLOSED_FORM},,,,,,NonPhysical",
        f"-2,0.4068,{ANALYTIC_NUMERIC},,,,,,NoSeed",
        f"-2,0.4068,{SIMULATOR_NUMERIC},,,,,,NoSeed"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["failures"] == {CLOSED_FORM: {"NonPhysical": 1},
                                  ANALYTIC_NUMERIC: {"NoSeed": 1},
                                  SIMULATOR_NUMERIC: {"NoSeed": 1}}

    rc = cli.main(["fixed-point", "--p-bar", "-2.0", "--k-theta", "0.4068"])
    out, err = capsys.readouterr()
    assert (rc, err) == (3, "")
    assert json.loads(out) == {
        "status": "NonPhysical", "phase": None,
        "message": "theta_td = 22.6470 rad on the Q+ branch puts the toe "
                   "at or above the hip"}
