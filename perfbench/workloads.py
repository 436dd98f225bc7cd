"""The benchmark's workloads.

Each workload has three phases.  ``plan`` turns the seed into inputs (run
keys); it is not timed.  ``materialize`` loads and builds every scenario the
plan needs; it is the timed set-up.  ``execute`` performs one unit, the
workload's fixed set of runs, timing each run on its own, and ``check``
compares the unit's outcomes with the reference and the invariants.

Everything calls the package through module attributes (``api.runner.
run_simulation``), never through names bound at import, so that the tracer's
wrappers see the benchmark's calls as well as the package's internal ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from hostref import HostReference

FIG_SCENARIOS = tuple(f"fig{k}a-{kind}" for kind in ("pmf", "dirichlet")
                      for k in (3, 4, 5, 6))
VERIFY_SCENARIOS = ("fig4a-pmf", "fig5a-pmf", "fig6a-pmf")
FIG_AGENTS = 7
DS7_BOUNDS = (0.2, 0.5, 1.0)
# bound grids: coarse enough that a unit lasts a few seconds, so a measurement
# repeats every run often (see run.py); the tiny grids are subsets of these
FIG_STEP, VERIFY_STEP, TABLE1_STEP = 0.05, 0.05, 0.02
# median host-reference slice time of each workload on the development host
NOMINAL = {"er100-scan": 0.01122, "fig-sweep": 0.001577, "general-sweep": 0.003138,
           "verify-record": 0.001937}


@dataclass
class Run:
    """One timed operation: a simulation run or one ``cli verify`` call."""

    key: str
    seconds: float
    host_s: float = 0.0   # host-reference slice timed right after the run
    steps: int = 0
    result: object = None
    errors: list[str] = field(default_factory=list)


@dataclass
class Unit:
    runs: list[Run]
    sweeps: dict[str, tuple] = field(default_factory=dict)      # name -> (result, dir)
    checks: dict[str, list[str]] = field(default_factory=dict)  # checks beyond runs


def timed(fn, *args, **kwargs) -> Run:
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the benchmark counts a raising run as failed
        return Run("", time.perf_counter() - t0, errors=[f"{type(exc).__name__}: {exc}"])
    return Run("", time.perf_counter() - t0, result=out)


def parse_key(key: str) -> tuple[str, int | None, float]:
    head, eps = key.split("@")
    name, _, seed = head.partition("#")
    return name, (int(seed) if seed else None), float(eps)


def check_run(run: Run, refs: dict) -> None:
    """Invariants always; outcome against the reference when one exists."""
    if run.result is None:
        return
    run.errors += ref.run_invariant_errors(run.result)
    expected = refs["runs"].get(run.key)
    if expected is not None:
        run.errors += ref.compare(expected["outcome"], ref.run_outcome(run.result))


def simulate(api, scenarios: dict, keys: list[str], host: HostReference) -> list[Run]:
    run_simulation = api.runner.run_simulation
    runs = []
    for key in keys:
        name, seed, eps = parse_key(key)
        run = timed(run_simulation, scenarios[(name, seed)], eps)
        run.key = key
        run.host_s = host.time_slice()
        if run.result is not None:
            run.steps = int(run.result.iterations)
        runs.append(run)
    return runs


class Simulations:
    """A unit of ``runner.run_simulation`` calls, one per planned key."""

    def materialize(self, api, plan) -> dict:
        """Load every (scenario, seed) the keys name, in first-use order."""
        load = api.scenario.load_scenario
        pairs = dict.fromkeys(parse_key(k)[:2] for k in plan["keys"])
        return {(name, seed): load(name, seed=seed) for name, seed in pairs}

    def execute(self, api, plan, scenarios, outdir: Path) -> Unit:
        return Unit(simulate(api, scenarios, plan["keys"], self.host))

    def check(self, api, plan, unit: Unit, refs, first: bool, outdir: Path) -> None:
        for run in unit.runs:
            check_run(run, refs)


class FigSweep(Simulations):
    """Bound-of-confidence sweeps of the seven-agent figure scenarios.

    The unit replays what ``cli sweep`` does in-process (run every grid
    point, assemble the bifurcation result, write CSV, SVG and JSON) so each
    grid point can be timed; once per measurement the real ``cli sweep`` is
    run on one scenario and its files must equal the benchmark's byte for byte.
    """

    name = "fig-sweep"
    host = HostReference(agents=7, steps=30, nominal_s=NOMINAL["fig-sweep"])

    def plan(self, api, refs, seed: int, tiny: bool) -> dict:
        names = FIG_SCENARIOS[::4] if tiny else FIG_SCENARIOS
        step = 0.25 if tiny else FIG_STEP
        grid = api.runner.sweep_grid(0.0, 1.0, step)
        return {"names": names, "step": step, "grid": grid, "full": not tiny,
                "keys": [ref.run_key(n, e) for n in names for e in grid],
                "cli_check": names[seed % len(names)]}

    def execute(self, api, plan, scenarios, outdir: Path) -> Unit:
        runner, output = api.runner, api.output
        grid = plan["grid"]
        unit = Unit([])
        for name in plan["names"]:
            sc = scenarios[(name, None)]
            runs = simulate(api, scenarios, [ref.run_key(name, eps) for eps in grid],
                            self.host)
            unit.runs += runs
            if any(r.result is None for r in runs):
                continue
            mask = api.dst.prop_from_str("1", sc.frame)
            results = [r.result for r in runs]
            n = sc.graph.n
            sweep = runner.BifurcationResult(
                scenario=sc.name, proposition="1", grid=grid,
                limit_masses=np.vstack([r.final_masses[:, mask] for r in results]),
                cluster_ids=np.vstack([np.array([r.report.cluster_of(a) for a in range(1, n + 1)])
                                       for r in results]),
                cluster_counts=tuple(r.report.cluster_count for r in results),
                consensus=tuple(r.report.consensus for r in results),
                iterations=tuple(r.iterations for r in results))
            out = outdir / name
            out.mkdir(parents=True, exist_ok=True)
            output.write_sweep_csv(sweep, out / "sweep.csv")
            output.write_sweep_svg(sweep, out / "sweep.svg")
            output.write_sweep_json(sweep, out / "sweep.json")
            unit.sweeps[name] = (sweep, out)
        return unit

    def check(self, api, plan, unit: Unit, refs, first: bool, outdir: Path) -> None:
        super().check(api, plan, unit, refs, first, outdir)
        for name, (sweep, out) in unit.sweeps.items():
            errors = _sweep_file_errors(sweep, out)
            if plan["full"]:
                want = refs["smallest_consensus_epsilon"][name]
                got = sweep.smallest_consensus_epsilon()
                if got != want:
                    errors.append(f"smallest consensus epsilon {got} != {want}")
            unit.checks[f"{name}/sweep"] = errors
        if first:
            name = plan["cli_check"]
            unit.checks[f"{name}/cli"] = _cli_sweep_errors(api, name, plan["step"],
                                                           outdir / name, outdir / "cli")


def _sweep_file_errors(sweep, out: Path) -> list[str]:
    errors = []
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    n_grid, n = sweep.limit_masses.shape
    if len(lines) != 1 + n_grid * n:
        return [f"sweep.csv has {len(lines)} lines, want {1 + n_grid * n}"]
    for k, line in enumerate(lines[1:]):
        gi, agent = divmod(k, n)
        fields = line.split(",")
        if (float(fields[0]) != sweep.grid[gi] or int(fields[1]) != agent + 1
                or float(fields[3]) != sweep.limit_masses[gi, agent]
                or int(fields[4]) != sweep.cluster_ids[gi, agent]
                or (fields[6] == "true") != sweep.consensus[gi]):
            errors.append(f"sweep.csv line {k + 2} disagrees with the runs")
            break
    data = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    if (data["consensus"] != list(sweep.consensus)
            or data["smallest_consensus_epsilon"] != sweep.smallest_consensus_epsilon()):
        errors.append("sweep.json disagrees with the runs")
    svg = (out / "sweep.svg").read_text(encoding="utf-8")
    if not svg.startswith("<svg") or svg.count("<circle") != n_grid * n:
        errors.append("sweep.svg does not hold one mark per agent and grid point")
    return errors


def _cli_sweep_errors(api, name: str, step: float, mine: Path, theirs: Path) -> list[str]:
    argv = ["sweep", "--scenario", name, "--eps-min", "0", "--eps-max", "1",
            "--eps-step", repr(step), "--out", str(theirs)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = api.cli.cli(argv)
    if code != 0:
        return [f"cli sweep exited {code}"]
    return [f"cli sweep {f} differs from the benchmark's" for f in
            ("sweep.csv", "sweep.svg", "sweep.json")
            if (mine / f).read_bytes() != (theirs / f).read_bytes()]


class Er100Scan(Simulations):
    """Criterion-7 runs on 100-agent Erdos-Renyi networks, one per cost stratum."""

    name = "er100-scan"
    host = HostReference(agents=100, steps=100, nominal_s=NOMINAL["er100-scan"])

    def plan(self, api, refs, seed: int, tiny: bool) -> dict:
        strata = refs["strata"][:2] if tiny else refs["strata"]
        return {"keys": ref.draw(strata, np.random.default_rng(seed))}


class GeneralSweep(Simulations):
    """Table-1 general-evidence sweep plus seeded ``ds7-*`` runs."""

    name = "general-sweep"
    host = HostReference(agents=7, steps=60, nominal_s=NOMINAL["general-sweep"])

    def plan(self, api, refs, seed: int, tiny: bool) -> dict:
        grid = api.runner.sweep_grid(0.0, 1.0, 0.5 if tiny else TABLE1_STEP)
        sweep = [ref.run_key("table1-general", e) for e in grid]
        strata = refs["strata"][:1] if tiny else refs["strata"]
        return {"keys": sweep + ref.draw(strata, np.random.default_rng(seed)),
                "full": not tiny}

    def check(self, api, plan, unit: Unit, refs, first: bool, outdir: Path) -> None:
        super().check(api, plan, unit, refs, first, outdir)
        if plan["full"]:
            consensus = [r for r in unit.runs if r.key.startswith("table1-general@")
                         and r.result is not None and r.result.report.consensus]
            got = parse_key(consensus[0].key)[2] if consensus else None
            want = refs["smallest_consensus_epsilon"]["table1-general"]
            unit.checks["table1-general/sweep"] = (
                [] if got == want else [f"smallest consensus epsilon {got} != {want}"])


class VerifyRecord(Simulations):
    """In-process ``cli verify`` (matrix recording plus chain verifiers)."""

    name = "verify-record"
    host = HostReference(agents=7, steps=40, nominal_s=NOMINAL["verify-record"])

    def plan(self, api, refs, seed: int, tiny: bool) -> dict:
        grid = api.runner.sweep_grid(0.0, 1.0, 0.5 if tiny else VERIFY_STEP)
        return {"keys": [ref.run_key(n, e) for n in VERIFY_SCENARIOS for e in grid]}

    def execute(self, api, plan, scenarios, outdir: Path) -> Unit:
        cli = api.cli.cli
        runs = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for key in plan["keys"]:
                name, _, eps = parse_key(key)
                sink.seek(0)
                sink.truncate()
                run = timed(cli, ["verify", "--scenario", name, "--epsilon", repr(eps)])
                run.key = key
                run.host_s = self.host.time_slice()
                if run.result is not None:
                    run.result = (run.result, sink.getvalue())
                runs.append(run)
        return Unit(runs)

    def check(self, api, plan, unit: Unit, refs, first: bool, outdir: Path) -> None:
        for run in unit.runs:
            if run.result is None:
                continue
            code, text = run.result
            if code != 0:
                run.errors.append(f"cli verify exited {code}")
                continue
            try:
                payload = json.loads(text)
                got = ref.verify_outcome(payload)
                run.steps = int(payload["clusters"]["iterations"])
            except (ValueError, KeyError, TypeError) as exc:
                run.errors.append(f"unreadable cli verify output: {exc!r}")
                continue
            run.errors += ref.partition_errors(got["clusters"], FIG_AGENTS)
            for rep in got["reps"]:
                if min(rep.values()) < 0 or abs(sum(rep.values()) - 1.0) > ref.MASS_TOL:
                    run.errors.append("cluster masses are negative or do not sum to 1")
            expected = refs["runs"].get(run.key)
            if expected is not None:
                run.errors += ref.compare(expected["outcome"], got)


WORKLOADS = {w.name: w for w in (Er100Scan(), FigSweep(), GeneralSweep(), VerifyRecord())}
