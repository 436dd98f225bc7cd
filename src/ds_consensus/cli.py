"""Command-line interface.

Subcommands:

    run        single simulation, prints the cluster report as JSON
    sweep      bound-of-confidence sweep, writes CSV/SVG/JSON to a directory
    verify     structural consensus checks against the recorded run
    gen-graph  emit a connected Erdos-Renyi graph file
    assets     list built-in scenario assets

Exit codes: 0 success, 1 validation/usage failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import (DSConsensusError, EngineMismatch, InvalidScenario, NotDrivenChain,
                     ScenarioParseError)
from .graph import erdos_renyi_connected
from .output import _csv_field, write_sweep_csv, write_sweep_json, write_sweep_svg
from .runner import run_simulation, run_sweep, verify_run
from .scenario import list_assets, load_scenario


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ds-consensus",
                     description="Consensus simulation for agents with "
                                 "Dempster-Shafer opinions under bounded confidence")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario at a fixed bound")
    run.add_argument("--scenario", required=True, help="scenario file or asset name")
    run.add_argument("--epsilon", required=True, type=float)
    run.add_argument("--out", help="directory for report and traces")
    run.add_argument("--trace", action="store_true",
                     help="also write per-step opinions and pruned edges (needs --out)")

    sweep = sub.add_parser("sweep", help="sweep the bound of confidence")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--eps-min", required=True, type=float)
    sweep.add_argument("--eps-max", required=True, type=float)
    sweep.add_argument("--eps-step", required=True, type=float)
    sweep.add_argument("--prop", default="1",
                       help="proposition to plot, e.g. '1' or '2,3' or '*'")
    sweep.add_argument("--parallel", type=int, default=1, help="worker processes")
    sweep.add_argument("--out", required=True)

    verify = sub.add_parser("verify", help="check the consensus theorems on a run")
    verify.add_argument("--scenario", required=True)
    verify.add_argument("--epsilon", required=True, type=float)
    verify.add_argument("--out")

    gen = sub.add_parser("gen-graph", help="emit a connected random graph")
    gen.add_argument("--er", nargs=3, metavar=("N", "P", "SEED"), required=True)
    gen.add_argument("--out", required=True)

    assets = sub.add_parser("assets", help="built-in scenario assets")
    assets.add_argument("action", choices=["list"])
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.trace and not args.out:
        print("ds-consensus run: --trace requires --out", file=sys.stderr)
        return 1
    result = run_simulation(scenario, epsilon=args.epsilon, record_trace=args.trace)
    payload = {
        "scenario": scenario.name,
        "engine": result.engine,
        "epsilon": args.epsilon,
        **result.report.to_dict(),
    }
    _print_json(payload, args.out, "report.json")
    if args.trace:
        _write_trace(Path(args.out), scenario, result)
    return 0


def _print_json(payload: dict, out: str | None, filename: str) -> None:
    """Write the payload as JSON to the output directory, if given, then print
    it: a report that could not be written is never printed."""
    text = json.dumps(payload, indent=2)
    if out:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text + "\n", encoding="utf-8")
    print(text)


def _write_trace(out: Path, scenario, result) -> None:
    from .dst import prop_to_str
    lines = ["step,agent_id,proposition,mass"]
    for step, masses in enumerate(result.trajectory):
        for agent in range(masses.shape[0]):
            for mask in range(1, masses.shape[1]):
                if masses[agent, mask] != 0.0:
                    lines.append(f"{step},{agent + 1},"
                                 f"{_csv_field(prop_to_str(mask, scenario.frame))},"
                                 f"{float(masses[agent, mask])!r}")
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    edges = [sorted(list(e)) for e in result.pruned_edges]
    (out / "pruned_edges.json").write_text(
        json.dumps(edges) + "\n", encoding="utf-8")


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_sweep(scenario, args.eps_min, args.eps_max, args.eps_step,
                       proposition=args.prop, workers=args.parallel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(result, out / "sweep.csv")
    write_sweep_svg(result, out / "sweep.svg")
    write_sweep_json(result, out / "sweep.json")
    smallest = result.smallest_consensus_epsilon()
    print(f"sweep of {scenario.name}: {len(result.grid)} points, "
          f"smallest consensus epsilon: {smallest}")
    return 0


def _cmd_verify(args) -> int:
    _print_json(verify_run(load_scenario(args.scenario), args.epsilon), args.out, "verify.json")
    return 0


def _cmd_gen_graph(args) -> int:
    n, p, seed = int(args.er[0]), float(args.er[1]), int(args.er[2])
    g = erdos_renyi_connected(n, p, seed)
    Path(args.out).write_text(json.dumps(g.to_dict()) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: n={g.n}, mutual pairs={len(g.mutual_pairs())}")
    return 0


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use: parsing leaves no state in it, and
    building it costs about a millisecond, as much as a short run."""
    return _build_parser()


def cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gen-graph":
            return _cmd_gen_graph(args)
        if args.command == "assets":
            for name in list_assets():
                print(name)
            return 0
    except (ScenarioParseError, InvalidScenario, EngineMismatch, NotDrivenChain,
            ValueError) as exc:
        print(f"ds-consensus {args.command}: {exc}", file=sys.stderr)
        return 1
    except DSConsensusError as exc:
        print(f"ds-consensus {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ds-consensus {args.command}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
