"""The README's library quickstart runs as written, its config block
lists the CLI's keys with the library's defaults, its Layout block
names the package's modules, its trajectory.csv columns are the
writer's header, and its numerical contracts quote the map counts the
harness tests pin."""

import dataclasses
import inspect
import re
from pathlib import Path

import sliphop
from sliphop import (ControlInputs, DEFAULT_PARAMS, SlipParams, SweepConfig,
                     cli, harness, trajectory)
from sliphop.harness import ALL_PIPELINES

from test_harness import ANALYTIC_SWEEP_MAPS, CORNER_SWEEP_MAPS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    [block] = re.findall(r"^```python\n(.*?)^```$", section,
                         re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("ApexState(") and out.count("\n") == 1


def _readme_config(tmp_path) -> dict[str, str]:
    """The README's fenced key=value block, parsed as a config file."""
    blocks = re.findall(r"^```\w*\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    [block] = [b for b in blocks if "p_bar_min =" in b]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    return cli.parse_config_file(path)


def _library_defaults() -> dict:
    steps = inspect.signature(harness.run_single).parameters
    sweep = SweepConfig()
    defaults = {f.name: getattr(DEFAULT_PARAMS, f.name)
                for f in dataclasses.fields(SlipParams)}
    defaults.update({name: getattr(ControlInputs, name)
                     for name in ("kp", "ki", "kd", "tau_max")})
    defaults.update({name: steps[name].default
                     for name in ("dt", "control_dt")})
    for name in ("p_bar", "k_theta"):
        lo, hi, n = getattr(sweep, f"{name}_range")
        defaults.update({f"{name}_min": lo, f"{name}_max": hi,
                         f"{name}_count": n})
    defaults.update(pipelines=sweep.pipelines, workers=sweep.workers,
                    seed_chaining=sweep.seed_chaining)
    return defaults


def test_readme_config_block_matches_the_cli(tmp_path):
    shown = _readme_config(tmp_path)
    tables = cli.COMMAND_KEYS.values()
    # every key the CLI reads, and no other: a key dropped from the CLI
    # cannot stay behind in the README
    assert set(shown) == set().union(*tables)
    assert shown["pipelines"] == ",".join(ALL_PIPELINES)
    parse = {key: cast for table in tables for key, cast in table.items()}
    defaults = {**_library_defaults(), **cli.SINGLE_DEFAULTS}
    for key, want in defaults.items():
        assert parse[key](shown[key]) == want, key
    for key in ("k_theta_step_hop", "k_theta_step_value"):
        assert shown[key] == "", key


def test_readme_layout_names_every_module():
    section = README.read_text().split("## Layout\n", 1)[1]
    [block] = re.findall(r"^```\n(.*?)^```$", section,
                         re.MULTILINE | re.DOTALL)
    shown = re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)
    package = Path(sliphop.__file__).parent
    modules = [p.name for p in package.glob("*.py") if p.name != "__init__.py"]
    assert sorted(shown) == sorted(modules)


def test_readme_trajectory_columns_are_the_writers_header():
    # the column list of trajectory.csv, and a stance run's float
    # columns, which are those columns but the phase
    text = README.read_text()
    header = trajectory._HEADER.removesuffix("\r\n")
    assert re.findall(r"`(t,phase,[\w,]*)`", text) == [header]
    assert f"`{header.replace(',phase', '')}`" in text


def _contracts_text() -> str:
    section = README.read_text().split("## Numerical contracts\n", 1)[1]
    return " ".join(section.split("\n## ", 1)[0].split())


def test_readme_quotes_the_corner_sweep_map_count():
    [count] = re.findall(r"simulator sweep over those corners takes "
                         r"(\d+) simulator maps", _contracts_text())
    assert int(count) == CORNER_SWEEP_MAPS


def test_readme_quotes_the_analytic_sweep_map_count():
    [count] = re.findall(r"analytic-numeric sweep, seed chaining on, "
                         r"takes (\d+) analytic maps", _contracts_text())
    assert int(count) == ANALYTIC_SWEEP_MAPS
