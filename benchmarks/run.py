"""sliphop benchmark: one workload, timed end to end or traced per layer.

    python3 benchmarks/run.py --workload sweep-sim --seed 1 \
        --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. With ``--trace 0`` the workload repeats untraced for about
``--seconds`` (at least twice) and the end-to-end metrics are reported.
With ``--trace 1`` untraced and traced repeats alternate and the
per-layer metrics are reported. Either way a correctness pass runs
afterwards, outside the timed region.

Standard output: one human-readable line per metric, the environment
stamp, ``fail_frac``, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
stamp included, also goes to ``.bench_out/results/``; compare two such
files with ``compare.py``. Outputs and spans go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
MIN_REPEATS = 2  # two untraced repeats are compared byte for byte

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Fresh-interpreter probe for setup_s: import sliphop and finish the
# workload's first map evaluation (numba compilation or cache loading
# happens here when numba is present). The child times itself with
# speed.timed, so the speed probes run on the child's own CPU.
SETUP_CODE = r"""
import json, sys
sys.path[:0] = sys.argv[1:3]
import speed

def first_map():
    from sliphop import (ApexState, ControlInputs, DEFAULT_PARAMS,
                         closed_form_fixed_point, return_map_analytic,
                         return_map_numeric)
    probe = json.loads(sys.argv[3])
    inputs = ControlInputs(p_bar=probe["p_bar"], k_theta=probe["k_theta"])
    if probe["map"] == "simulator-recorded":
        return_map_numeric(ApexState(*probe["apex"]), inputs, DEFAULT_PARAMS,
                           record=True)
        return
    apex = closed_form_fixed_point(probe["p_bar"], probe["k_theta"],
                                   DEFAULT_PARAMS).apex
    if probe["map"] == "simulator":
        return_map_numeric(apex, inputs, DEFAULT_PARAMS, record=False)
    else:
        return_map_analytic(apex, inputs, DEFAULT_PARAMS)

_, t = speed.timed(first_map)
print(json.dumps([t.raw_s, t.scaled_s]))
"""


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    import tracing
    units: dict[str, str] = {}
    for name in ("simulate.integrate_stance", "simulate.return_map_numeric",
                 "control.solve_aoa_implicit", "control.solve_aoa_approx",
                 "analytic.return_map_analytic",
                 "analytic.simplified_map_constants",
                 "fixedpoint.closed_form_fixed_point"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "simulate.write_trajectory_csv.self_s": "s",
        "simulate.stance_steps": "count",
        "simulate.ns_per_stance_step": "ns",
        "simulate.stance_numpy_scalar_frac": "ratio",
        "fixedpoint.numeric_fixed_point.self_s": "s",
    })
    for key in ("sim", "analytic"):
        units[f"fixedpoint.numeric_fixed_point.{key}.ms_p50"] = "ms"
        units[f"fixedpoint.numeric_fixed_point.{key}.ms_tail"] = "ms"
        units[f"fixedpoint.numeric_fixed_point.{key}.solves"] = "count"
        units[f"fixedpoint.map_evals_per_solve.{key}"] = "count"
        units[f"fixedpoint.newton_steps_per_solve.{key}"] = "count"
    units["fixedpoint.fine_dt_residual_max"] = "SI"
    units.update({"harness.run_sweep.self_s": "s",
                  "harness.write_sweep_outputs.self_s": "s",
                  "harness.run_single.self_s": "s",
                  "harness.solves_per_cell": "ratio"})
    for key in tracing.failure_counts([]):
        units[f"harness.failures.{key}"] = "count"
    units["trace_overhead_frac"] = "ratio"
    return units


def environment_stamp() -> dict:
    """What a result depends on besides the code; compare.py flags
    comparisons between results whose stamps differ."""
    import numpy
    from sliphop import simulate
    return {
        "have_numba": simulate.HAVE_NUMBA,
        "numba_disable_jit": os.environ.get("NUMBA_DISABLE_JIT"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "dt": simulate.DEFAULT_DT,
        "control_dt": simulate.DEFAULT_CONTROL_DT,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sliphop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _setup_child(probe: dict) -> tuple[float, float]:
    """(raw, reference-speed) seconds of one fresh-interpreter set-up."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR),
         json.dumps(probe)],
        capture_output=True, text=True, timeout=120, check=True)
    raw, scaled = json.loads(done.stdout.splitlines()[-1])
    return raw, scaled


@dataclass
class Repeat:
    raw_s: float
    wall_s: float            # at reference speed (speed.py)
    span_factor: float       # raw span seconds -> reference-speed seconds
    report: object
    outputs: dict[str, bytes]
    spans: list | None


def run_once(wl, inputs, out_dir: Path, traced: bool) -> Repeat:
    from tracing import Tracer
    tracer = Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        report, t = speed.timed(lambda: wl.run(inputs, out_dir))
    outputs = {n: (out_dir / n).read_bytes() for n in wl.outputs}
    return Repeat(t.raw_s, t.scaled_s, t.scaled_s * t.share / t.raw_s,
                  report, outputs, tracer.spans if tracer else None)


@dataclass
class Tally:
    """Operations attempted and missed across every repeat and check."""

    attempted: int = 0
    failed: int = 0
    misses: list[str] = field(default_factory=list)
    statuses: list[str] = field(default_factory=list)
    first: dict[str, bytes] | None = None

    def add(self, wl, inputs, rep: Repeat, traced: bool) -> None:
        self.statuses = wl.statuses(rep.report, inputs)
        self.attempted += len(self.statuses)
        self.failed += sum(s != "converged" for s in self.statuses)
        if self.first is None:
            self.first = rep.outputs
        for name, data in rep.outputs.items():
            if data != self.first[name]:
                self.failed += 1
                self.misses.append(
                    f"{name} differs from the first repeat "
                    f"({'traced' if traced else 'untraced'})")


def scale_times(metrics: dict[str, float], factor: float) -> dict:
    return {k: v * factor if k.endswith(".self_s")
            or k == "simulate.ns_per_stance_step" else v
            for k, v in metrics.items()}


@dataclass
class Measurement:
    tally: Tally
    plain: list[Repeat]
    traced: list[Repeat]
    layer_runs: list[dict]            # per traced repeat, reference speed
    solve_ms: dict[str, list[float]]  # Newton solve durations, pooled


def measure(wl, inputs, out_dir: Path, seconds: float,
            trace: bool) -> Measurement:
    """Repeat the workload for about ``seconds``; with ``trace``,
    untraced and traced repeats alternate. Only the last untraced report
    and the last traced spans are kept."""
    import tracing
    m = Measurement(Tally(), [], [], [],
                    {tracing.SIM: [], tracing.ANALYTIC: []})
    start = time.perf_counter()
    while True:
        traced = trace and len(m.plain) > len(m.traced)
        rep = run_once(wl, inputs, out_dir, traced)
        m.tally.add(wl, inputs, rep, traced)
        rep.outputs = None
        if traced:
            numeric = sum(o.pipeline in tracing.PIPELINE_KEY
                          for o in getattr(rep.report, "outcomes", ()))
            m.layer_runs.append(scale_times(
                tracing.layer_metrics(rep.spans, numeric), rep.span_factor))
            for key, ms in tracing.solve_ms(rep.spans).items():
                m.solve_ms[key] += [x * rep.span_factor for x in ms]
            if m.traced:
                m.traced[-1].spans = None
            m.traced.append(rep)
        else:
            if m.plain:
                m.plain[-1].report = None
            m.plain.append(rep)
        # stop where the next repeat would end nearer the budget than now
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.raw_s for r in m.plain + m.traced)
        if (elapsed + 0.5 * typical >= seconds
                and len(m.plain) >= MIN_REPEATS
                and (not trace or len(m.traced) >= MIN_REPEATS)):
            return m


def per_layer_metrics(m: Measurement, chk, wall_s: float) -> dict:
    import tracing
    metrics = {name: statistics.median(run[name] for run in m.layer_runs)
               for name in m.layer_runs[0]}
    for key, ms in m.solve_ms.items():
        prefix = f"fixedpoint.numeric_fixed_point.{key}"
        metrics[f"{prefix}.ms_p50"] = statistics.median(ms) if ms else 0.0
        metrics[f"{prefix}.ms_tail"] = tracing.tail_percentile(ms)[0]
        metrics[f"{prefix}.solves"] = len(ms)
    metrics["fixedpoint.fine_dt_residual_max"] = chk.fine_dt_residual_max
    for key, n in tracing.failure_counts(m.tally.statuses).items():
        metrics[f"harness.failures.{key}"] = n
    metrics["trace_overhead_frac"] = statistics.median(
        r.wall_s for r in m.traced) / wall_s - 1.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-sim", "sweep-analytic", "single-hop"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sliphop" / "__init__.py").is_file():
        print(f"error: no sliphop package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import tracing
    from workloads import WORKLOADS, setup_probe

    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    stamp = environment_stamp()

    setup = [] if trace else [_setup_child(setup_probe(wl.name, inputs))
                              for _ in range(SETUP_REPEATS)]
    m = measure(wl, inputs, out_dir, args.seconds, trace)
    tally = m.tally
    chk = wl.check(inputs, m.plain[-1].report)
    tally.failed += len(chk.misses)
    tally.misses += chk.misses
    wall_s = statistics.median(r.wall_s for r in m.plain)

    if trace:
        metrics = per_layer_metrics(m, chk, wall_s)
        units = per_layer_units()
        with open(out_dir / "spans.jsonl", "w") as fh:
            for rec in tracing.span_records(m.traced[-1].spans):
                fh.write(json.dumps(rec) + "\n")
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(t for _, t in setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    fail_frac = tally.failed / tally.attempted
    raw_wall = statistics.median(r.raw_s for r in m.plain)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(m.plain)} untraced, {len(m.traced)} traced repeats, "
          f"{chk.checked} answers re-checked")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"raw_wall_s {raw_wall:.6g} s (not scaled to reference speed)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"fail_frac {fail_frac:.6g} ({tally.failed}/{tally.attempted})")
    for miss in tally.misses[:20]:
        print(f"miss {miss}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {**result, "workload": wl.name, "seed": args.seed,
              "trace": args.trace, "env": stamp, "fail_frac": fail_frac,
              "misses": tally.misses,
              "untraced": [[r.raw_s, r.wall_s] for r in m.plain],
              "traced": [[r.raw_s, r.wall_s] for r in m.traced],
              "setup": setup}
    (results_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
