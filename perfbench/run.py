"""ds-consensus benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload er100-scan --seed 1 --seconds 30 --trace 0

Set-up (loading and materializing every scenario) is timed several times
and its median reported.  Then the workload's unit, its fixed set of runs,
is repeated until the next unit would end after ``--seconds``; every run is
timed on its own and checked against the reference and the invariants.
Every time is scaled to the host speed recorded with the host reference
(see hostref.py and README.md).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` half the time goes to untraced units
and half to traced ones, and the JSON holds the per-layer metrics; the spans
are written to ``.bench_out/trace-<workload>-seed<seed>.npz``.  ``--tiny``
shrinks every workload to a few cheap runs, for the smoke test.

Exit status is 0 when a result is printed, 2 when the package or its
reference data cannot be found.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import api as bench_api  # noqa: E402
import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 5, 1.0, 500
SIZES = {"er100-scan": "N=100, M=3, pmf", "fig-sweep": "N=7, M=3, pmf+dirichlet",
         "general-sweep": "N=7, M=3, general", "verify-record": "N=7, M=3, pmf"}


class Measurement:
    """Everything the measured units of one phase produced.

    Each run's latency is the median of its repeats, which land a unit
    apart, and the unit's wall time is the sum of those plus the median
    remainder (result assembly and file writing).  ``scale`` converts them to
    seconds at the host's recorded speed, from the host-reference slice timed
    after every run (see hostref.py).
    """

    def __init__(self):
        self.latencies: list[list[float]] = []   # one row per unit, same run order
        self.slices: list[float] = []
        self.rests: list[float] = []
        self.steps: list[int] = []
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, wall: float, unit) -> None:
        lat = [run.seconds for run in unit.runs]
        slices = [run.host_s for run in unit.runs]
        self.latencies.append(lat)
        self.slices += slices
        self.rests.append(wall - sum(lat) - sum(slices))
        self.steps.append(sum(run.steps for run in unit.runs))
        for run in unit.runs:
            self.attempted += 1
            if run.errors:
                self.errors.append(f"{run.key}: {'; '.join(run.errors)}")
        for key, errors in unit.checks.items():
            self.attempted += 1
            if errors:
                self.errors.append(f"{key}: {'; '.join(errors)}")

    @property
    def units(self) -> int:
        return len(self.latencies)

    def run_latencies(self) -> np.ndarray:
        return np.median(np.array(self.latencies), axis=0)

    def wall(self) -> float:
        return float(self.run_latencies().sum() + statistics.median(self.rests))

    def scale(self, nominal_s: float) -> float:
        return nominal_s / statistics.median(self.slices)


def measure_setup(workload, bench, plan, repeats: int,
                  min_seconds: float = 0.0) -> tuple[float, dict]:
    """Materialize ``repeats`` times, and more until ``min_seconds`` have passed.

    Returns the median set-up time at the host's recorded speed.
    """
    times, slices, scenarios = [], [], None
    while len(times) < repeats or (sum(times) < min_seconds and len(times) < SETUP_MAX):
        t0 = time.perf_counter()
        scenarios = workload.materialize(bench, plan)
        times.append(time.perf_counter() - t0)
        slices.append(workload.host.time_slice())
    scale = workload.host.nominal_s / statistics.median(slices)
    return statistics.median(times) * scale, scenarios


def measure_units(workload, bench, plan, scenarios, refs, outdir: Path,
                  seconds: float, into: Measurement, once_checks: bool = True) -> None:
    """Repeat the unit until the next one would end after ``seconds``.

    ``once_checks`` lets the first unit run the workload's one-off checks.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        unit = workload.execute(bench, plan, scenarios, outdir)
        wall = time.perf_counter() - t0
        workload.check(bench, plan, unit, refs, once_checks and not into.units, outdir)
        into.add(wall, unit)
        if (time.perf_counter() - start) * (into.units + 1) / into.units > seconds:
            return


def tail_percentile(runs: int) -> float:
    """The highest percentile of the ladder with at least 10 runs beyond it."""
    return next(p for p in (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0, 0.0)
                if runs * (100.0 - p) / 100.0 >= 10.0 or p == 0.0)


def end_to_end(m: Measurement, scale: float, setup_s: float) -> dict:
    run_ms = m.run_latencies() * 1000.0 * scale
    wall = m.wall() * scale
    return {
        "wall_s": (wall, "s"),
        "sim_steps_per_s": (statistics.median(m.steps) / wall, "1/s"),
        "run_ms_p50": (float(np.median(run_ms)), "ms"),
        "run_ms_tail": (float(np.percentile(run_ms, tail_percentile(len(run_ms)))), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: tr.Tracer, setup_span_end: int, units: int, scale: float,
              overhead: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one set-up plus one unit (unit totals / units).

    Self times are scaled by the traced phase's host scale.  The tracer's
    counters must cover the traced units only.
    """
    setup = tracer.aggregate(0, setup_span_end)
    body = tracer.aggregate(setup_span_end)
    c = tracer.counters

    def calls(name):
        return setup[name]["calls"] + body[name]["calls"] / units

    def self_s(name):
        return (setup[name]["self_s"] + body[name]["self_s"] / units) * scale

    steps = sum(c.steps)
    out = {}
    for name in ("dst.pairwise_jousselme", "dst.class_checks", "dynamics.confidence_matrix",
                 "dynamics.pmf_step", "dynamics.dirichlet_step", "dynamics.general_step",
                 "graph.prune", "runner.run_simulation", "analysis.detect_clusters",
                 "analysis.classify_chain", "analysis.verify_one_group_chain",
                 "analysis.verify_two_group_chain", "cli.cli"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("scenario.load_scenario", "graph.erdos_renyi_connected",
                 "output.write_sweep_csv", "output.write_sweep_svg", "output.write_sweep_json"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name, n in c.bytes.items():
        out[f"{name}.bytes"] = (n / units, "B")
    out["dst.pairwise_jousselme.flops_computed"] = (c.flops / units, "flop")
    out["dst.class_checks.per_step"] = (body["dst.class_checks"]["calls"] / max(steps, 1),
                                        "1/step")
    out["graph.prune.kept_edges_mean"] = (c.kept_edges / max(c.prune_calls, 1), "edges")
    out["graph.prune.unchanged_share"] = (c.prune_unchanged / max(c.prune_calls, 1), "share")
    out["runner.run_simulation.steps_p50"] = (
        float(statistics.median(c.steps)) if c.steps else 0.0, "steps")
    out["runner.run_simulation.converged_share"] = (
        c.converged / max(len(c.steps), 1), "share")
    out["trace.hooks.self_s"] = (self_s(tr.HOOK_SPAN), "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ds-consensus benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few cheap runs per workload")
    args = parser.parse_args(argv)

    try:
        bench = bench_api.load()
        refs = ref.load(args.workload)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    plan = workload.plan(bench, refs, args.seed, args.tiny)
    out_root = bench_api.ROOT / ".bench_out"
    outdir = out_root / f"{args.workload}-seed{args.seed}-files"
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        if args.trace:
            metrics, m = traced(workload, bench, plan, refs, outdir, args, out_root)
        else:
            tr.assert_clean()
            setup_s, scenarios = measure_setup(workload, bench, plan, SETUP_REPEATS,
                                               SETUP_SECONDS)
            m = Measurement()
            measure_units(workload, bench, plan, scenarios, refs, outdir, args.seconds, m)
            scale = m.scale(workload.host.nominal_s)
            metrics = end_to_end(m, scale, setup_s)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    failed = len(m.errors)
    for line in m.errors[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    runs = len(m.latencies[0])
    print(f"workload {args.workload} ({SIZES[args.workload]}), seed {args.seed}: "
          f"{m.units} units of {runs} runs and {m.steps[0]} steps")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  run_ms_tail is the p{tail_percentile(runs):g} of {runs} runs, "
              f"each the median of {m.units} repeats")
        print(f"  times are scaled by {scale:.4f} to the recorded host speed; "
              f"measured wall_s {m.wall():.6g} s")
    print(f"  failed_share {failed}/{m.attempted} = {failed / max(m.attempted, 1):g}")
    print(json.dumps({"correct": failed == 0, "attempted": m.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def traced(workload, bench, plan, refs, outdir: Path, args, out_root: Path):
    tr.assert_clean()
    _, scenarios = measure_setup(workload, bench, plan, 1)
    m = Measurement()
    measure_units(workload, bench, plan, scenarios, refs, outdir, args.seconds / 2, m)

    tracer = tr.Tracer()
    tracer.install()
    try:
        _, scenarios = measure_setup(workload, bench, plan, 1)
        setup_span_end = len(tracer.start)
        tracer.counters = tr.Counters()
        traced_m = Measurement()
        measure_units(workload, bench, plan, scenarios, refs, outdir, args.seconds / 2,
                      traced_m, once_checks=False)
    finally:
        tracer.uninstall()
    nominal = workload.host.nominal_s
    untraced = m.wall() * m.scale(nominal)
    traced_scale = traced_m.scale(nominal)
    metrics = per_layer(tracer, setup_span_end, traced_m.units, traced_scale,
                        traced_m.wall() * traced_scale - untraced, untraced)
    out_root.mkdir(exist_ok=True)
    tracer.save(out_root / f"trace-{args.workload}-seed{args.seed}.npz")
    # every run is checked, traced or not
    m.attempted += traced_m.attempted
    m.errors += traced_m.errors
    return metrics, m


if __name__ == "__main__":
    sys.exit(main())
