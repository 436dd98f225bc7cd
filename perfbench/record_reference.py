"""Record the reference outcomes from the package in this checkout.

    python3 perfbench/record_reference.py [--only WORKLOAD ...]

Writes ``perfbench/reference/<workload>.json``.  Re-record only when a
change is meant to alter outcomes, and say so where the change is described.
The er100-scan reference runs the full criterion-7 procedure on instance
seeds 1-20 (about 20 minutes on one core of a 2-CPU machine); each finished
instance is cached in ``.bench_out/er100-procedure.jsonl`` so that an
interrupted recording resumes where it stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import api as bench_api  # noqa: E402
import reference as ref  # noqa: E402
from workloads import (DS7_BOUNDS, FIG_SCENARIOS, FIG_STEP, TABLE1_STEP,  # noqa: E402
                       VERIFY_SCENARIOS, VERIFY_STEP)

INSTANCE_SEEDS = range(1, 21)      # the criterion-7 instances of the acceptance suite
ER_STRATA, ER_PER_STRATUM = 21, 4
DS7_SEEDS = range(1, 21)
DS7_STRATA, DS7_PER_STRATUM = 6, 4
CACHE = bench_api.ROOT / ".bench_out" / "er100-procedure.jsonl"


def _record(result) -> dict:
    return {"steps": int(result.iterations), "outcome": ref.run_outcome(result)}


def _sweep(api, name: str, step: float, seed: int | None = None):
    """Runs of one sweep, keyed, plus the smallest consensus bound."""
    sc = api.scenario.load_scenario(name, seed=seed)
    runs, smallest = {}, None
    for eps in api.runner.sweep_grid(0.0, 1.0, step):
        result = api.runner.run_simulation(sc, eps)
        runs[ref.run_key(name, eps, seed)] = _record(result)
        if smallest is None and result.report.consensus:
            smallest = eps
    return runs, smallest


def fig_sweep(api) -> dict:
    runs, smallest = {}, {}
    for name in FIG_SCENARIOS:
        more, smallest[name] = _sweep(api, name, FIG_STEP)
        runs.update(more)
    return {"about": f"fig3a-6a pmf and dirichlet sweeps, bound 0 to 1 in {FIG_STEP} steps",
            "smallest_consensus_epsilon": smallest, "runs": runs}


def verify_record(api) -> dict:
    runs = {}
    for name in VERIFY_SCENARIOS:
        for eps in api.runner.sweep_grid(0.0, 1.0, VERIFY_STEP):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = api.cli.cli(["verify", "--scenario", name, "--epsilon", repr(eps)])
            if code != 0:
                raise SystemExit(f"cli verify {name} {eps} exited {code}")
            payload = json.loads(out.getvalue())
            runs[ref.run_key(name, eps)] = {"steps": payload["clusters"]["iterations"],
                                            "outcome": ref.verify_outcome(payload)}
    return {"about": f"cli verify on fig4a-6a pmf, bound 0 to 1 in {VERIFY_STEP} steps",
            "runs": runs}


def general_sweep(api) -> dict:
    runs, smallest = _sweep(api, "table1-general", TABLE1_STEP)
    pool = {}
    for name in ("ds7-noleader", "ds7-oneleader", "ds7-twoleader"):
        for seed in DS7_SEEDS:
            sc = api.scenario.load_scenario(name, seed=seed)
            for eps in DS7_BOUNDS:
                pool[ref.run_key(name, eps, seed)] = _record(api.runner.run_simulation(sc, eps))
    strata = ref.stratify({k: v["steps"] for k, v in pool.items()},
                          DS7_STRATA, DS7_PER_STRATUM)
    runs.update({k: pool[k] for stratum in strata for k in stratum})
    return {"about": f"table1-general sweep in {TABLE1_STEP} steps; ds7-* seeds "
                     f"{DS7_SEEDS.start}-{DS7_SEEDS.stop - 1} at bounds {list(DS7_BOUNDS)}, "
                     f"{DS7_PER_STRATUM} per step-count stratum",
            "strata": strata, "smallest_consensus_epsilon": {"table1-general": smallest},
            "runs": runs}


def _criterion7_instance(api, seed: int) -> dict:
    """The acceptance suite's criterion-7 procedure on one instance seed."""
    runs, smallest = {}, {}
    for setting in ("noleader", "oneleader", "twoleader"):
        name = f"er100-{setting}"
        sc = api.scenario.load_scenario(name, seed=seed)
        if setting == "twoleader":
            grid = [round(0.1 * k, 10) for k in range(11)]
        else:
            grid = [round(0.01 * k, 10) for k in range(101)]
        smallest[f"{name}#{seed}"] = None
        for eps in grid:
            result = api.runner.run_simulation(sc, eps)
            runs[ref.run_key(name, eps, seed)] = _record(result)
            if result.report.consensus:
                smallest[f"{name}#{seed}"] = eps
                if setting != "twoleader":
                    break
    return {"seed": seed, "smallest": smallest, "runs": runs}


def er100_scan(api) -> dict:
    done = {}
    if CACHE.is_file():
        for line in CACHE.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            done[entry["seed"]] = entry
    CACHE.parent.mkdir(exist_ok=True)
    with open(CACHE, "a", encoding="utf-8") as fh:
        for seed in INSTANCE_SEEDS:
            if seed not in done:
                done[seed] = _criterion7_instance(api, seed)
                fh.write(json.dumps(done[seed]) + "\n")
                fh.flush()
                print(f"er100 instance {seed} recorded", file=sys.stderr)
    pool = {k: v for seed in INSTANCE_SEEDS for k, v in done[seed]["runs"].items()}
    smallest = {k: v for seed in INSTANCE_SEEDS for k, v in done[seed]["smallest"].items()}
    strata = ref.stratify({k: v["steps"] for k, v in pool.items()}, ER_STRATA, ER_PER_STRATUM)
    return {"about": f"criterion-7 procedure on instance seeds {INSTANCE_SEEDS.start}-"
                     f"{INSTANCE_SEEDS.stop - 1} ({len(pool)} runs, "
                     f"{sum(v['steps'] for v in pool.values())} steps); "
                     f"{ER_PER_STRATUM} runs kept per step-count stratum; smallest "
                     f"consensus bound per scan (first consensus of the two-leader probe)",
            "strata": strata, "smallest_consensus_epsilon": smallest,
            "runs": {k: pool[k] for stratum in strata for k in stratum}}


RECORDERS = {"fig-sweep": fig_sweep, "verify-record": verify_record,
             "general-sweep": general_sweep, "er100-scan": er100_scan}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(RECORDERS), default=sorted(RECORDERS))
    args = parser.parse_args(argv)
    api = bench_api.load()
    for name in args.only:
        ref.dump(name, RECORDERS[name](api))
        print(f"recorded {ref.REFERENCE_DIR / (name + '.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
