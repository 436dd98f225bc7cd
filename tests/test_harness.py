import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ds_consensus.cli import cli
from ds_consensus.dst import Frame
from ds_consensus.dynamics import Strategy
from ds_consensus.errors import (DSConsensusError, EngineMismatch, InvalidScenario,
                                 NotDirichlet, ScenarioParseError)
from ds_consensus.output import CSV_HEADER, write_sweep_csv, write_sweep_json, write_sweep_svg
from ds_consensus import cli as cli_module, dynamics, runner, scenario as scenario_module
from ds_consensus.analysis import classify_chain, verify_one_group_chain, verify_two_group_chain
from ds_consensus.graph import MAX_NODES, DirectedGraph, erdos_renyi, erdos_renyi_connected
from ds_consensus.runner import run_simulation, run_sweep, sweep_grid, verify_run
from ds_consensus.scenario import (Scenario, assets_dir, list_assets, load_scenario,
                                   sample_opinions, scenario_from_dict)

from conftest import state_from_specs


def test_assets_present():
    names = list_assets()
    for expected in ("fig3a-pmf", "fig4a-pmf", "fig5a-pmf", "fig6a-pmf",
                     "fig3a-dirichlet", "dirichlet-7", "table1-general",
                     "er100-noleader", "ds7-noleader"):
        assert expected in names


def test_fig3a_asset_contents():
    s = load_scenario("fig3a-pmf")
    assert s.graph.n == 7 and s.engine == "pmf"
    pi1 = [a.boe.masses[1] for a in s.agents]
    assert pi1 == pytest.approx([0.80, 0.78, 0.76, 0.40, 0.80, 0.10, 0.20])
    for a in s.agents:
        assert a.boe.masses[2] == pytest.approx(a.boe.masses[4])
        assert a.alpha == 0.5 and a.strategy is Strategy.RECEPTIVE


def test_dirichlet_asset_contents():
    s = load_scenario("dirichlet-7")  # alias of fig3a-dirichlet
    theta = [a.boe.masses[7] for a in s.agents]
    assert theta == pytest.approx([0.1] * 7)
    pi1 = [a.boe.masses[1] for a in s.agents]
    assert pi1 == pytest.approx([0.70, 0.68, 0.66, 0.30, 0.70, 0.00, 0.10])
    pmf_twin = load_scenario("fig3a-pmf")
    for a, b in zip(s.agents, pmf_twin.agents):
        assert a.boe.masses[2] == pytest.approx(b.boe.masses[2])
        assert a.boe.masses[4] == pytest.approx(b.boe.masses[4])


def test_leader_assets():
    assert load_scenario("fig4a-pmf").leaders == (1,)
    assert load_scenario("fig5a-pmf").leaders == (1, 7)
    assert load_scenario("fig6a-pmf").leaders == (1, 7)
    assert load_scenario("fig3a-pmf").leaders == ()


def test_leaders_follow_the_agents():
    s = load_scenario("fig4a-pmf")
    receptive = np.ones(s.graph.n, dtype=bool)
    assert replace(s, state=replace(s.state, receptive=receptive)).leaders == ()
    receptive[[0, -1]] = False
    assert replace(s, state=replace(s.state, receptive=receptive)).leaders == (1, 7)
    # a scenario built by hand derives its leaders too, so verify_run can anchor on them
    hand = Scenario(s.name, state_from_specs(s.frame, s.graph, s.agents), "pmf")
    assert hand.leaders == (1,)
    assert json.dumps(verify_run(hand, 0.5)) == json.dumps(verify_run(s, 0.5))


def test_start_state_is_built_once_per_scenario():
    s = load_scenario("fig4a-pmf")  # the load builds the state every run starts from
    first = run_simulation(s, 0.3)
    assert first.initial_masses is s.state.masses
    assert replace(s, max_iterations=5).state is s.state


@pytest.mark.parametrize("eps", [1.5, -0.25, float("nan")])
def test_bound_outside_the_unit_interval_rejected(eps, capsys):
    message = f"epsilon must be in [0, 1], got {eps}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_simulation(load_scenario("fig4a-pmf"), eps)
    code = cli(["run", "--scenario", "fig4a-pmf", "--epsilon", str(eps)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"ds-consensus run: {message}\n"


def test_agent_count_mismatch_rejected(tmp_path):
    bad = {"frame_size": 3,
           "graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
           "engine": "pmf",
           "agents": [{"boe": {"masses": {"1": 1.0}}}] * 2}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidScenario):
        load_scenario(str(path))


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioParseError):
        load_scenario(str(path))
    with pytest.raises(ScenarioParseError):
        load_scenario("no-such-asset-name")


def test_engine_auto_selection(tmp_path):
    base = {"frame_size": 2, "graph": {"n": 2, "edges": [[1, 2]]}, "engine": "auto"}
    bayes = dict(base, agents=[{"boe": {"masses": {"1": 1.0}}},
                               {"boe": {"masses": {"2": 1.0}}}])
    s = scenario_from_dict(bayes, "t", tmp_path)
    assert s.engine == "pmf"
    dirichlet = dict(base, agents=[{"boe": {"masses": {"1": 0.5, "*": 0.5}}},
                                   {"boe": {"masses": {"2": 1.0}}}])
    assert scenario_from_dict(dirichlet, "t", tmp_path).engine == "dirichlet"
    general = {"frame_size": 3, "graph": {"n": 2, "edges": [[1, 2]]}, "engine": "auto",
               "agents": [{"boe": {"masses": {"1": 1.0}}},
                          {"boe": {"masses": {"2,3": 1.0}}}]}
    assert scenario_from_dict(general, "t", tmp_path).engine == "general"


def test_engine_mismatch_raises():
    s = load_scenario("table1-general")
    s = replace(s, engine="pmf")
    with pytest.raises(EngineMismatch):
        run_simulation(s, 0.3)


def test_sampling_deterministic():
    a = load_scenario("ds7-noleader")
    b = load_scenario("ds7-noleader")
    for x, y in zip(a.agents, b.agents):
        assert np.array_equal(x.boe.masses, y.boe.masses)
    c = load_scenario("ds7-noleader", seed=123)
    assert not np.array_equal(a.agents[0].boe.masses, c.agents[0].boe.masses)


def test_sample_opinions_dirichlet_mean(rng):
    frame = Frame(3)
    draws = sample_opinions([np.ones(3)] * 10_000, [np.array([1, 2, 4])] * 10_000, frame, rng)
    means = draws[:, [1, 2, 4]].mean(axis=0)
    assert means == pytest.approx([1 / 3] * 3, abs=0.01)


def test_sample_opinions_general_targets(rng):
    frame = Frame(3)
    (masses,) = sample_opinions([np.array([4.0, 4, 4, 2, 2, 2, 1])],
                                [np.array([1, 2, 4, 3, 5, 6, 7])], frame, rng)
    assert masses.sum() == pytest.approx(1.0)
    assert all(masses[m] > 0 for m in (1, 2, 4, 3, 5, 6, 7))


def test_sample_opinions_single_target(rng):
    frame = Frame(2)
    (masses,) = sample_opinions([np.array([2.0])], [np.array([frame.full_set])], frame, rng)
    assert masses[frame.full_set] == pytest.approx(1.0)


def test_er_asset_materialization():
    s = load_scenario("er100-oneleader", seed=3)
    assert s.graph.n == 100
    assert len(s.leaders) == 1
    assert s.agents[s.leaders[0] - 1].strategy is Strategy.CAUTIOUS
    t = load_scenario("er100-oneleader", seed=3)
    assert s.graph.edges == t.graph.edges and s.leaders == t.leaders


def test_sweep_grid():
    assert sweep_grid(0.0, 1.0, 0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert sweep_grid(0.4, 0.5, 0.3) == (0.4,)
    with pytest.raises(ValueError):
        sweep_grid(0.6, 0.5, 0.1)
    with pytest.raises(ValueError):
        sweep_grid(0.0, 1.0, 0.0)


@pytest.mark.parametrize("step", [float("nan"), float("inf"), 1e-12, 5e-324])
def test_sweep_grid_rejects_unbounded_steps(step, tmp_path, capsys):
    # rejected before the grid is formed: 1e-12 would ask for 10**12 points
    with pytest.raises(ValueError, match="eps_step"):
        sweep_grid(0.0, 1.0, step)
    code = cli(["sweep", "--scenario", "fig3a-pmf", "--eps-min", "0", "--eps-max", "1",
                "--eps-step", repr(step), "--out", str(tmp_path / "out")])
    assert code == 1 and "eps_step" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("call, message", [
    (lambda sc: run_simulation(sc, 1.5), r"epsilon must be in \[0, 1\], got 1.5"),
    (lambda sc: run_simulation(sc, float("nan")), r"epsilon must be in \[0, 1\], got nan"),
    (lambda sc: run_sweep(sc, 0.5, 1.5, 0.5),
     r"need 0 <= eps_min <= eps_max <= 1, got \[0.5, 1.5\]"),
    (lambda sc: run_simulation(sc, "0.5"), r"epsilon must be a number in \[0, 1\], got '0.5'"),
    (lambda sc: erdos_renyi(5, 1.5, 1), r"p must be in \[0, 1\], got 1.5"),
    (lambda sc: erdos_renyi(5, float("nan"), 1), r"p must be in \[0, 1\], got nan"),
], ids=["epsilon", "nan", "sweep", "epsilon-text", "er-p", "er-nan"])
def test_a_bound_outside_the_unit_interval_is_a_package_error(call, message):
    with pytest.raises(DSConsensusError, match=f"^{message}$") as caught:
        call(load_scenario("fig4a-pmf"))
    assert isinstance(caught.value, ValueError)  # still caught where a ValueError is


@pytest.mark.parametrize("kwargs, message", [
    ({"proposition": "  "}, "proposition '  ' is the empty set, whose mass is always 0"),
    ({"proposition": "4"}, "proposition '4' exceeds frame of size 3"),
    ({"proposition": "x"}, "proposition 'x' is not a subset: write 1-based singleton "
                           "indices such as '1' or '2,3', or '*' for the full frame"),
    ({"workers": 0}, "need at least one worker, got 0"),
], ids=["blank", "outside", "not-a-number", "no-worker"])
def test_a_bad_sweep_request_is_a_package_error(kwargs, message):
    with pytest.raises(DSConsensusError) as caught:
        run_sweep(load_scenario("fig4a-pmf"), 0.0, 1.0, 0.5, **kwargs)
    assert str(caught.value) == message and isinstance(caught.value, ValueError)


@pytest.mark.parametrize("prop", ["x", "1,", "1.5", "2;3"])
def test_sweep_of_a_proposition_that_is_no_subset_rejected(prop, tmp_path, capsys):
    code = cli(["sweep", "--scenario", "fig3a-pmf", "--eps-min", "0", "--eps-max", "1",
                "--eps-step", "0.5", "--prop", prop, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and f"proposition {prop!r} is not a subset" in err and "'2,3'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("prop", ["", "  "])
def test_sweep_of_the_empty_set_rejected(prop, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(runner, "run_simulation", no_run)
    with pytest.raises(ValueError, match="empty set"):
        run_sweep(load_scenario("fig3a-pmf"), 0.0, 1.0, 0.5, proposition=prop)
    code = cli(["sweep", "--scenario", "fig3a-pmf", "--eps-min", "0", "--eps-max", "1",
                "--eps-step", "0.5", "--prop", prop, "--out", str(tmp_path / "out")])
    assert code == 1 and "empty set" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_grid_cap(monkeypatch):
    monkeypatch.setattr(runner, "MAX_SWEEP_POINTS", 5)
    assert sweep_grid(0.0, 1.0, 0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ValueError, match="more than 5 grid points"):
        sweep_grid(0.0, 1.0, 0.2)


def test_run_simulation_fig3a_consensus_at_half():
    r = run_simulation(load_scenario("fig3a-pmf"), 0.5)
    assert r.report.consensus and r.converged


def test_run_simulation_fig4a_leader_value():
    r = run_simulation(load_scenario("fig4a-pmf"), 0.5)
    assert r.report.consensus
    assert np.max(np.abs(r.final_masses[:, 1] - 0.80)) < 1e-6


def test_run_simulation_fig5a_two_components():
    r = run_simulation(load_scenario("fig5a-pmf"), 0.35)
    assert r.report.clusters == ((1, 2, 3, 4, 5), (6, 7))


def test_sweep_outputs(tmp_path):
    s = load_scenario("fig3a-pmf")
    result = run_sweep(s, 0.4, 0.6, 0.05)
    csv = tmp_path / "sweep.csv"
    write_sweep_csv(result, csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == ("epsilon,agent_id,proposition,limit_mass,"
                        "cluster_id,cluster_count,consensus,iterations")
    assert len(lines) == 1 + len(result.grid) * 7
    for line in lines[1:]:
        eps_text, _, _, mass_text = line.split(",")[:4]
        assert 0.0 <= float(mass_text) <= 1.0  # plain parseable floats
        assert "(" not in line
    consensus_rows = [l for l in lines[1:] if l.split(",")[6] == "true"]
    for row in consensus_rows:
        assert row.split(",")[5] == "1"
    svg = tmp_path / "sweep.svg"
    write_sweep_svg(result, svg)
    assert svg.read_text().startswith("<svg")
    write_sweep_json(result, tmp_path / "sweep.json")
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["smallest_consensus_epsilon"] == 0.5


def test_sweep_csv_quotes_a_compound_proposition(tmp_path, capsys):
    # RFC 4180: the proposition 1,2 is written in double quotes, so every row
    # keeps the header's 8 fields; a one-singleton proposition stays bare
    scenario = load_scenario("table1-general")
    for prop in ("1,2", "2"):
        out = tmp_path / prop
        assert cli(["sweep", "--scenario", "table1-general", "--eps-min", "0.4",
                    "--eps-max", "0.5", "--eps-step", "0.1", "--prop", prop,
                    "--out", str(out)]) == 0
        text = (out / "sweep.csv").read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == 1 + 2 * 7 and all(len(row) == 8 for row in rows)
        assert {row[2] for row in rows[1:]} == {prop}
        assert ('"' in text) == ("," in prop)
        result = run_sweep(scenario, 0.4, 0.5, 0.1, proposition=prop)
        assert [float(row[3]) for row in rows[1:]] == result.limit_masses.reshape(-1).tolist()


def test_sweep_svg_escapes_the_scenario_name(tmp_path, capsys):
    # the name and the proposition are text in the SVG: markup characters are escaped
    path = tmp_path / "marked.json"
    path.write_text(json.dumps(dict(TINY, name="a<b & c")))
    assert cli(["sweep", "--scenario", str(path), "--eps-min", "0", "--eps-max", "1",
                "--eps-step", "0.5", "--prop", "1", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    svg = minidom.parse(str(tmp_path / "out" / "sweep.svg"))
    title = svg.getElementsByTagName("text")[0].firstChild.data
    assert title == "a<b & c: limit mass of 1 vs bound of confidence"


def test_sweep_deterministic_and_parallel_equal(tmp_path):
    s = load_scenario("fig5a-pmf")
    serial = run_sweep(s, 0.30, 0.40, 0.05, workers=1)
    parallel = run_sweep(s, 0.30, 0.40, 0.05, workers=2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(serial, a)
    write_sweep_csv(parallel, b)
    assert a.read_bytes() == b.read_bytes()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count, the number
    of tasks and whether the scenario they are sent holds its start state;
    maps in-process."""

    workers: list[int] = []
    tasks: list[int] = []
    built: list[bool] = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        self.tasks.append(len(jobs))
        self.built.append("state" in vars(fn.args[0]))
        return map(fn, jobs)


def test_sweep_worker_count_bounds(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
    for name in ("workers", "tasks", "built"):
        monkeypatch.setattr(_RecordingPool, name, [])
    s = load_scenario("fig3a-pmf")
    run_sweep(s, 0.4, 0.5, 0.05, workers=10 ** 6)   # 3 grid points
    wide = run_sweep(s, 0.0, 1.0, 0.05, workers=10 ** 6)   # 21 grid points, 4 CPUs
    run_sweep(s, 0.0, 1.0, 0.05, workers=3)
    run_sweep(s, 0.5, 0.5, 0.05, workers=8)         # one point runs in-process
    assert _RecordingPool.workers == [3, 4, 3]
    assert _RecordingPool.tasks == [3, 4, 3]        # one task, one scenario copy, per worker
    assert _RecordingPool.built == [True] * 3
    one = run_sweep(s, 0.0, 1.0, 0.05)              # the interleaved points back in grid order
    assert wide.limit_masses.tobytes() == one.limit_masses.tobytes()
    assert wide.iterations == one.iterations
    for bad in ("0", "-2"):
        code = cli(["sweep", "--scenario", "fig3a-pmf", "--eps-min", "0.4", "--eps-max",
                    "0.5", "--eps-step", "0.05", "--parallel", bad, "--out", str(tmp_path)])
        assert code == 1 and "at least one worker" in capsys.readouterr().err
    assert _RecordingPool.workers == [3, 4, 3]


def test_empty_grid_csv(tmp_path):
    s = load_scenario("fig3a-pmf")
    result = run_sweep(s, 0.5, 0.5, 1.0)
    assert result.grid == (0.5,)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run(capsys):
    code = cli(["run", "--scenario", "fig3a-pmf", "--epsilon", "0.5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["consensus"] is True


def test_cli_run_trace(tmp_path, capsys):
    code = cli(["run", "--scenario", "fig3a-pmf", "--epsilon", "0.5",
                "--out", str(tmp_path), "--trace"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "trajectory.csv").exists()
    edges = json.loads((tmp_path / "pruned_edges.json").read_text())
    # first iteration: exactly the two distant pairs are pruned
    first = {tuple(e) for e in edges[0]}
    base = {tuple(e) for e in edges[1]}
    assert base - first == {(3, 6), (6, 3), (5, 7), (7, 5)}


def test_trajectory_csv_quotes_a_compound_proposition(tmp_path, capsys):
    # table-1 opinions hold mass on sets such as {1, 2}: the proposition is
    # quoted as in sweep.csv, so every row keeps the header's 4 fields
    assert cli(["run", "--scenario", "table1-general", "--epsilon", "0.3",
                "--out", str(tmp_path), "--trace"]) == 0
    capsys.readouterr()
    text = (tmp_path / "trajectory.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["step", "agent_id", "proposition", "mass"]
    assert all(len(row) == 4 for row in rows)
    compound = [row for row in rows[1:] if "," in row[2]]
    assert compound and len(compound) < len(rows) - 1
    assert text.count('"') == 2 * len(compound)


def _cli_outcomes(capsys, calls):
    outcomes = []
    for argv in calls:
        code = cli(argv)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_cli_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    calls = [["verify", "--scenario", "fig4a-pmf"],  # usage error
             ["--help"],
             ["verify", "--scenario", "fig4a-pmf", "--epsilon", "0.5"],
             ["run", "--scenario", "fig3a-pmf", "--epsilon", "0.5"],
             ["assets", "list"],
             ["verify", "--scenario", "fig4a-pmf"]]
    with monkeypatch.context() as m:  # the oracle: a fresh parser for every call
        m.setattr(cli_module, "_parser", cli_module._build_parser)
        fresh = _cli_outcomes(capsys, calls)
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 0, 1]
    assert fresh[0][2].startswith("usage: ds-consensus") and "--epsilon" in fresh[0][2]
    assert fresh[1][1].startswith("usage: ds-consensus")
    built = []
    build = cli_module._build_parser
    monkeypatch.setattr(cli_module, "_build_parser", lambda: built.append(1) or build())
    cli_module._parser.cache_clear()
    try:
        assert _cli_outcomes(capsys, calls) == fresh
        assert len(built) == 1
    finally:
        cli_module._parser.cache_clear()


def test_cli_module_entry_point_prints_what_cli_prints(capsys):
    argv = ["verify", "--scenario", "fig4a-pmf", "--epsilon", "0.5"]
    assert cli(argv) == 0
    in_process = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "ds_consensus.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0
    assert done.stdout == in_process.encode("utf-8")


def test_cli_sweep_and_exit_codes(tmp_path, capsys):
    code = cli(["sweep", "--scenario", "fig3a-pmf", "--eps-min", "0.45",
                "--eps-max", "0.55", "--eps-step", "0.05", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "sweep.svg").exists()
    code = cli(["sweep", "--scenario", "fig3a-pmf", "--eps-min", "0.9",
                "--eps-max", "0.1", "--eps-step", "0.05", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 1
    code = cli(["run", "--scenario", "definitely-missing", "--epsilon", "0.5"])
    capsys.readouterr()
    assert code == 1


def test_cli_run_trace_needs_an_output_directory(capsys, monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("loaded the scenario before checking the flags")
    monkeypatch.setattr(cli_module, "load_scenario", no_load)
    code = cli(["run", "--scenario", "fig3a-pmf", "--epsilon", "0.5", "--trace"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "ds-consensus run: --trace requires --out\n"


@pytest.mark.parametrize("prop,message", [("4", "proposition '4' exceeds frame of size 3"),
                                          ("0", "singleton indices are 1-based, got 0")])
def test_sweep_of_a_proposition_outside_the_frame_rejected(prop, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_sweep(load_scenario("fig3a-pmf"), 0.0, 1.0, 0.5, proposition=prop)
    code = cli(["sweep", "--scenario", "fig3a-pmf", "--eps-min", "0", "--eps-max", "1",
                "--eps-step", "0.5", "--prop", prop, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == f"ds-consensus sweep: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_out_naming_a_file_exits_two(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = cli(["run", "--scenario", "fig3a-pmf", "--epsilon", "0.5", "--out", str(taken)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ds-consensus run: [Errno 17] File exists")
    assert captured.out == ""  # no report printed that was never written


def test_runtime_error_during_a_run_exits_two(monkeypatch, capsys):
    def fail(wt, x, out, full, leftover):
        raise NotDirichlet("mass conservation violated by -0.5")
    monkeypatch.setattr(dynamics, "_update", fail)
    with pytest.raises(NotDirichlet, match="^mass conservation violated by -0.5$"):
        run_simulation(load_scenario("fig4a-pmf"), 0.5)
    code = cli(["run", "--scenario", "fig4a-pmf", "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "ds-consensus run: mass conservation violated by -0.5\n"


def test_failed_allocation_exits_two(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")
    monkeypatch.setattr(cli_module, "run_simulation", fail)
    code = cli(["run", "--scenario", "fig4a-pmf", "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "ds-consensus run: Unable to allocate 2.00 GiB for an array\n"


def test_cli_usage_error_exits_one(capsys):
    code = cli(["sweep", "--scenario", "fig3a-pmf"])  # missing required args
    capsys.readouterr()
    assert code == 1


def test_cli_verify_fig4a(capsys):
    code = cli(["verify", "--scenario", "fig4a-pmf", "--epsilon", "0.5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["theorem"]["hypotheses"]["satisfied"] is True
    assert out["theorem"]["match"] is True


def test_cli_verify_requires_leaders(capsys):
    code = cli(["verify", "--scenario", "fig3a-pmf", "--epsilon", "0.5"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("name,epsilon", [("fig4a-pmf", 0.5), ("fig5a-pmf", 0.35),
                                          ("fig6a-pmf", 0.5)])
def test_verify_run_is_the_recorded_run_workflow(name, epsilon):
    scenario = load_scenario(name)
    run = run_simulation(scenario, epsilon=epsilon, record_matrices=True)
    chain = classify_chain(run.matrices[0], [[leader] for leader in scenario.leaders])
    verify = verify_one_group_chain if len(scenario.leaders) == 1 else verify_two_group_chain
    theorem = verify(chain, run.matrices, run.singleton_profiles(run.initial_masses),
                     run.singleton_profiles())
    want = {"scenario": scenario.name, "engine": run.engine, "epsilon": epsilon,
            "leaders": list(scenario.leaders), "theorem": theorem,
            "clusters": run.report.to_dict(run.converged, run.iterations)}
    assert json.dumps(verify_run(scenario, epsilon)) == json.dumps(want)


def _asset_with(tmp_path, name, **fields):
    """The asset with ``fields`` replaced, in a file named after them."""
    data = json.loads((assets_dir() / f"{name}.json").read_text())
    path = tmp_path / f"{name}-{'-'.join(sorted(fields))}.json"
    path.write_text(json.dumps(dict(data, **fields)))
    return str(path)


def test_cli_verify_rejections_exit_one(tmp_path, capsys):
    fig4a = json.loads((assets_dir() / "fig4a-pmf.json").read_text())
    three = [dict(agent, strategy="cautious") if k in (0, 1, 6) else agent
             for k, agent in enumerate(fig4a["agents"])]
    cases = {
        "fig3a-pmf": "scenario has no cautious agents to anchor a driven chain",
        _asset_with(tmp_path, "fig4a-pmf", agents=three):
            "more than two cautious groups are not supported",
        "ds7-oneleader": "the general engine has no confidence matrix to verify",
        _asset_with(tmp_path, "fig4a-pmf", max_iterations=0): "no step to verify",
    }
    assert len(cases) == 4  # each derived scenario has a file of its own
    for source, message in cases.items():
        with pytest.raises(InvalidScenario, match=message):
            verify_run(load_scenario(source), 0.5)
        code = cli(["verify", "--scenario", source, "--epsilon", "0.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("ds-consensus verify: ") and message in captured.err


def test_cli_verify_general_engine_hint(capsys):
    code = cli(["verify", "--scenario", "ds7-oneleader", "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.endswith("use a pmf scenario, or a dirichlet one whose cautious "
                                 "agents hold no full-frame mass\n")


def test_cli_verify_undriven_chain_prints_a_plain_weight(capsys):
    # a cautious Dirichlet leader hears its neighbours through its own
    # full-frame mass, so its row leaves the chain's zero block
    code = cli(["verify", "--scenario", "fig4a-dirichlet", "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("ds-consensus verify: central group 1 hears outside agents "
                            "(weight 0.0125)\n")


def test_cli_verify_dirichlet_leader_without_full_frame_mass(tmp_path, capsys):
    data = json.loads((assets_dir() / "fig4a-dirichlet.json").read_text())
    data["agents"][0]["boe"]["masses"] = {"1": 0.8, "2": 0.1, "3": 0.1}
    path = tmp_path / "fig4a-dirichlet-bayesian-leader.json"
    path.write_text(json.dumps(data))
    code = cli(["verify", "--scenario", str(path), "--epsilon", "1.0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["engine"] == "dirichlet"
    assert out["theorem"]["match"] is True


@pytest.mark.parametrize("opinions,kind", [([{"1": 0.7, "2": 0.3}], "one-group"),
                                            ([{"1": 0.7, "2": 0.3}, {"1": 0.4, "2": 0.6}],
                                             "two-groups")])
def test_cli_verify_without_outer_agents(tmp_path, capsys, opinions, kind):
    # every agent is cautious, so the chain has no outer agent at all
    path = tmp_path / "all-cautious.json"
    n = len(opinions)
    path.write_text(json.dumps({
        "frame_size": 2, "graph": {"n": n, "edges": [[1, 2]] if n == 2 else []}, "engine": "pmf",
        "agents": [{"strategy": "cautious", "boe": {"masses": m}} for m in opinions]}))
    code = cli(["verify", "--scenario", str(path), "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    theorem = json.loads(captured.out)["theorem"]
    assert theorem["kind"] == kind and theorem["outer"] == []
    assert theorem["hypotheses"]["outer_contraction"]["product_vanishes"] is True
    assert theorem["match"] is True
    if kind == "one-group":
        assert theorem["hypotheses"]["satisfied"] is True
        assert theorem["prediction"]["consensus_profile"] == pytest.approx([0.7, 0.3])


def test_cli_gen_graph_rejects_no_agents(tmp_path, capsys):
    target = tmp_path / "g.json"
    code = cli(["gen-graph", "--er", "0", "0.5", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not target.exists()
    assert captured.err == ("ds-consensus gen-graph: a connected graph needs at least one "
                            "agent, got n=0\n")


def test_cli_gen_graph_rejects_p_outside_the_unit_interval(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got 1.5$"):
        erdos_renyi_connected(10, 1.5, 1)
    target = tmp_path / "g.json"
    code = cli(["gen-graph", "--er", "10", "1.5", "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not target.exists()
    assert captured.err == "ds-consensus gen-graph: p must be in [0, 1], got 1.5\n"


@pytest.mark.parametrize("p", ["1.5", "nan"])
def test_cli_gen_graph_exits_one_on_a_p_outside_the_unit_interval(p, tmp_path, capsys):
    target = tmp_path / "g.json"
    code = cli(["gen-graph", "--er", "5", p, "1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not target.exists()
    assert captured.err == f"ds-consensus gen-graph: p must be in [0, 1], got {p}\n"


def test_cli_gen_graph(tmp_path, capsys):
    target = tmp_path / "g.json"
    code = cli(["gen-graph", "--er", "30", "0.2", "7", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["n"] == 30 and len(data["edges"]) > 0


def test_cli_assets_list(capsys):
    assert cli(["assets", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "fig3a-pmf" in out


@pytest.mark.parametrize("make", [False, True], ids=["missing", "file"])
def test_assets_list_without_an_assets_directory(tmp_path, monkeypatch, capsys, make):
    # a location that is not a directory lists no asset; it is no error
    path = tmp_path / "assets"
    if make:
        path.write_text("")
    monkeypatch.setenv("DS_CONSENSUS_ASSETS", str(path))
    assert list_assets() == []
    assert cli(["assets", "list"]) == 0
    assert capsys.readouterr() == ("", "")


def test_sweep_endpoint_sanity():
    # at eps 0 every distinct opinion is its own cluster; at eps 1 a connected
    # all-receptive network reaches consensus
    s = load_scenario("fig3a-pmf")
    low = run_simulation(s, 0.0)
    distinct = len({tuple(np.round(a.boe.masses, 12)) for a in s.agents})
    assert low.report.cluster_count == distinct
    high = run_simulation(s, 1.0)
    assert high.report.consensus


def test_assets_dir_override(tmp_path, monkeypatch):
    (tmp_path / "tiny.json").write_text(json.dumps({
        "frame_size": 2, "graph": {"n": 2, "edges": [[1, 2]]}, "engine": "pmf",
        "agents": [{"boe": {"masses": {"1": 1.0}}},
                   {"boe": {"masses": {"2": 1.0}}}]}))
    monkeypatch.setenv("DS_CONSENSUS_ASSETS", str(tmp_path))
    assert list_assets() == ["tiny"]
    s = load_scenario("tiny")
    assert s.graph.n == 2


# ---------------------------------------------------------------------------
# Scenario boundary: rejected input exits 1, never with a traceback
# ---------------------------------------------------------------------------

TINY = {"frame_size": 2, "graph": {"n": 2, "edges": [[1, 2]]}, "engine": "pmf",
        "agents": [{"boe": {"masses": {"1": 1.0}}}, {"boe": {"masses": {"2": 1.0}}}]}


def _cli_run_file(tmp_path, data, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))  # json writes NaN as the bare literal it reads back
    code = cli(["run", "--scenario", str(path), "--epsilon", "0.5"])
    capsys.readouterr()
    return code


def test_non_finite_mass_rejected(tmp_path, capsys):
    data = dict(TINY, agents=[{"boe": {"masses": {"1": float("nan"), "2": 1.0}}},
                              {"boe": {"masses": {"2": 1.0}}}])
    with pytest.raises(InvalidScenario):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


def test_cli_engine_mismatch_exits_one(tmp_path, capsys):
    # a full-frame mass does not fit the declared pmf engine: the input is invalid
    data = dict(TINY, agents=[{"strategy": "cautious", "boe": {"masses": {"1": 0.5, "*": 0.5}}},
                              {"boe": {"masses": {"2": 1.0}}}])
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(data))
    for command in ("run", "verify"):  # verify passes its leader checks first
        code = cli([command, "--scenario", str(path), "--epsilon", "0.5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"ds-consensus {command}: pmf engine requires Bayesian opinions\n"


def test_graph_of_wrong_type_rejected(tmp_path, capsys):
    data = dict(TINY, graph=[1, 2])
    with pytest.raises(ScenarioParseError):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1
    assert _cli_run_file(tmp_path, dict(TINY, graph={"er": [100, 0.1]}), capsys) == 1
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ScenarioParseError, match="graph file must be an object, got list"):
        scenario_from_dict(dict(TINY, graph={"file": "list.json"}), "t", tmp_path)


def test_out_of_range_edge_is_a_validation_failure(tmp_path, capsys):
    data = dict(TINY, graph={"n": 2, "edges": [[1, 3]]})
    with pytest.raises(InvalidScenario):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


@pytest.mark.parametrize("field", [{"max_iterations": -1},
                                   {"tolerances": {"persistence": 0}},
                                   # a NaN or negative step tolerance ran to the cap
                                   {"tolerances": {"step": float("nan")}},
                                   {"tolerances": {"step": -1e-10}},
                                   {"tolerances": {"step": 0.0}},
                                   {"tolerances": {"step": float("inf")}},
                                   # one made every agent its own cluster
                                   {"tolerances": {"cluster": float("nan")}},
                                   {"tolerances": {"cluster": -1e-3}},
                                   {"tolerances": {"cluster": float("inf")}}])
def test_iteration_limits_validated(tmp_path, capsys, field):
    data = dict(TINY, **field)
    with pytest.raises(InvalidScenario):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


@pytest.mark.parametrize("field", [
    {"frame_size": 2.5},
    {"frame_size": True},
    {"seed": 2.5},
    {"max_iterations": 2.7},
    {"max_iterations": True},
    {"tolerances": {"persistence": 1.5}},
    {"graph": {"n": 2.5, "edges": [[1, 2]]}},
    {"graph": {"n": 2, "edges": [[1.5, 2]]}},
    {"graph": {"n": 2, "edges": [[1, True]]}},
    {"graph": {"er": {"n": 100.9, "p": 0.1}}},
    {"graph": {"er": {"n": 2, "p": 1.0, "seed": 0.5}}},
    {"random_leaders": {"count": 0.5}},
    {"random_leaders": {"count": False}},
    {"agents": None, "n_agents": 2.5, "defaults": {"boe": {"masses": {"1": 1.0}}}},
    # a JSON string is not a number, whatever it spells
    {"frame_size": "2"},
    {"seed": "0"},
    {"max_iterations": "100"},
    {"tolerances": {"persistence": "10"}},
    {"graph": {"n": "2", "edges": [[1, 2]]}},
    {"graph": {"n": 2, "edges": [["1", 2]]}},
    {"graph": {"er": {"n": "2", "p": 1.0}}},
    {"random_leaders": {"count": "1"}},
    {"agents": None, "n_agents": "2", "defaults": {"boe": {"masses": {"1": 1.0}}}},
], ids=["frame-size", "frame-size-bool", "seed", "max-iterations", "max-iterations-bool",
        "persistence", "graph-n", "graph-edge", "graph-edge-bool", "er-n", "er-seed",
        "leader-count", "leader-count-bool", "n-agents",
        "frame-size-str", "seed-str", "max-iterations-str", "persistence-str", "graph-n-str",
        "graph-edge-str", "er-n-str", "leader-count-str", "n-agents-str"])
def test_integer_fields_are_not_truncated(tmp_path, capsys, field):
    data = {key: value for key, value in dict(TINY, **field).items() if value is not None}
    with pytest.raises(ScenarioParseError, match="must be an integer"):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


@pytest.mark.parametrize("field", [
    {"defaults": {"alpha": True}},
    {"defaults": {"epsilon": False}},
    {"agents": [{"sample": {"dirichlet": [1.0, True], "targets": ["1", "2"]}},
                {"boe": {"masses": {"2": 1.0}}}]},
    {"tolerances": {"step": True}},
    {"tolerances": {"cluster": False}},
    {"graph": {"er": {"n": 2, "p": True}}},
    {"agents": [{"boe": {"masses": {"1": True}}}, {"boe": {"masses": {"2": 1.0}}}]},
], ids=["alpha", "epsilon", "sample-dirichlet", "step-tol", "cluster-tol", "er-p", "mass"])
def test_boolean_in_a_float_field_is_a_parse_error(tmp_path, capsys, field):
    data = dict(TINY, **field)
    with pytest.raises(ScenarioParseError, match="must be a number, got (True|False)"):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


@pytest.mark.parametrize("field", [
    {"defaults": {"alpha": "0.5"}},
    {"defaults": {"epsilon": "1.0"}},
    {"agents": [{"sample": {"dirichlet": [1.0, "1"], "targets": ["1", "2"]}},
                {"boe": {"masses": {"2": 1.0}}}]},
    {"tolerances": {"step": "1e-10"}},
    {"tolerances": {"cluster": "0.001"}},
    {"graph": {"er": {"n": 2, "p": "1.0"}}},
    {"agents": [{"boe": {"masses": {"1": "1.0"}}}, {"boe": {"masses": {"2": 1.0}}}]},
], ids=["alpha", "epsilon", "sample-dirichlet", "step-tol", "cluster-tol", "er-p", "mass"])
def test_string_in_a_float_field_is_a_parse_error(tmp_path, capsys, field):
    data = dict(TINY, **field)
    with pytest.raises(ScenarioParseError, match="must be a number, got '"):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


def test_boundary_values_accepted(tmp_path):
    # whole numbers written as floats, and a cluster tolerance of 0
    scenario = scenario_from_dict(dict(TINY, frame_size=2.0, seed=3.0, max_iterations=7.0,
                                       graph={"n": 2.0, "edges": [[1.0, 2.0]]},
                                       tolerances={"cluster": 0.0}), "t", tmp_path)
    assert (scenario.frame.size, scenario.seed, scenario.max_iterations) == (2, 3, 7)
    assert scenario.graph == DirectedGraph.from_mutual_pairs(2, [(1, 2)])
    assert scenario.cluster_tol == 0.0


@pytest.mark.parametrize("engine,extra", [("pmf", {}), ("dirichlet", {"*": 0.2})])
def test_twelve_singleton_frames_run(tmp_path, capsys, engine, extra):
    agents = []
    for k in range(5):
        masses = {str(p): (0.8 if p == k + 1 else 0.2 / 11) * (0.8 if extra else 1.0)
                  for p in range(1, 13)}
        agents.append({"boe": {"masses": {**masses, **extra}}})
    data = {"frame_size": 12, "engine": engine, "agents": agents,
            "graph": {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code = cli(["run", "--scenario", str(path), "--epsilon", "1.0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["engine"] == engine
    assert out["converged"] and out["consensus"] and out["cluster_count"] == 1


def test_one_singleton_frame_dirichlet_run(tmp_path, capsys):
    # on a one-element frame the full frame is the singleton: nothing can move
    data = {"frame_size": 1, "engine": "dirichlet", "agents": [{"boe": {"masses": {"1": 1.0}}}] * 3,
            "graph": {"n": 3, "edges": [[1, 2], [2, 3]]}}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(data))
    code = cli(["run", "--scenario", str(path), "--epsilon", "1.0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["consensus"] and out["iterations"] == 10


@pytest.mark.parametrize("field", [
    {"agents": 5},
    {"tolerances": [1]},
    {"defaults": [1]},
    {"agents": [{"boe": {"masses": [0.5, 0.5]}}, {"boe": {"masses": {"2": 1.0}}}]},
], ids=["agents-number", "tolerances-list", "defaults-list", "masses-list"])
def test_wrongly_typed_field_is_a_parse_error(tmp_path, capsys, field):
    data = dict(TINY, **field)
    with pytest.raises(ScenarioParseError):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


@pytest.mark.parametrize("name", [None, 5, ["x"]], ids=["null", "number", "array"])
def test_non_string_name_is_a_parse_error(tmp_path, capsys, name):
    data = dict(TINY, name=name)
    with pytest.raises(ScenarioParseError, match="name must be a string"):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


_OTHER = {"boe": {"masses": {"2": 1.0}}}
_SAMPLE = {"dirichlet": [1, 1], "targets": ["1", "2"]}


@pytest.mark.parametrize("field,error,message", [
    ({"agents": [{"sample": {"dirichlet": [1, 1], "targets": [1, 2]}}, _OTHER]},
     ScenarioParseError, "agents[0].sample.targets must be a string, got int"),
    ({"defaults": {"strategy": 5}}, ScenarioParseError,
     "agents[0].strategy must be a string, got int"),
    ({"engine": 5}, ScenarioParseError, "engine must be a string, got int"),
    ({"graph": {"er": 5}}, ScenarioParseError, "graph.er must be an object, got int"),
    ({"graph": {"file": 5}}, ScenarioParseError, "graph.file must be a string, got int"),
    ({"graph": {"n": 2, "edges": [5]}}, ScenarioParseError,
     "graph.edges must hold [i, j] pairs, got 5"),
    ({"graph": {"n": 2, "edges": [[1]]}}, ScenarioParseError,
     "graph.edges must hold [i, j] pairs, got [1]"),
    ({"graph": {"n": 2, "edges": [[1, 2, 1]]}}, ScenarioParseError,
     "graph.edges must hold [i, j] pairs, got [1, 2, 1]"),
    # well typed but unknown: a validation failure, not a parse error
    ({"defaults": {"strategy": "leader"}}, InvalidScenario,
     "agents[0]: unknown strategy 'leader'"),
    ({"engine": "PMF"}, InvalidScenario, "engine must be one of"),
    ({"agents": [{"sample": {"dirichlet": [1, 1], "targets": ["1", ""]}}, _OTHER]},
     InvalidScenario, "agents[0]: bad sample: cannot assign sampled mass to the empty set"),
    # well typed but out of range or inconsistent
    ({"agents": [{"boe": {"masses": {"1": 1.0}}, "sample": _SAMPLE}, _OTHER]}, InvalidScenario,
     "agents[0]: give either masses or a sampling spec, not both"),
    ({"agents": [{"sample": {"targets": ["1", "2"]}}, _OTHER]}, InvalidScenario,
     "agents[0]: sampling spec missing 'dirichlet'"),
    ({"agents": [{"sample": {"dirichlet": [1, 1]}}, _OTHER]}, InvalidScenario,
     "agents[0]: sampling spec missing 'targets'"),
    ({"agents": [{"sample": {"dirichlet": [1, 1, 1], "targets": ["1", "2"]}}, _OTHER]},
     InvalidScenario, "agents[0]: bad sample: sampling needs one concentration per target"),
    ({"agents": [{"sample": {"dirichlet": [0, 1], "targets": ["1", "2"]}}, _OTHER]},
     InvalidScenario,
     "agents[0]: bad sample: dirichlet concentrations must be positive and finite"),
    ({"defaults": {"alpha": 1.5}}, InvalidScenario, "agents[0]: alpha must be in [0, 1], got 1.5"),
    ({"defaults": {"epsilon": -0.1}}, InvalidScenario,
     "agents[0]: epsilon must be in [0, 1], got -0.1"),
    ({"frame_size": 0}, InvalidScenario, "frame size must be in [1, 16], got 0"),
    ({"frame_size": 17}, InvalidScenario, "frame size must be in [1, 16], got 17"),
    ({"seed": -1}, InvalidScenario, "seed must be >= 0, got -1"),
    ({"random_leaders": {"count": 3}}, InvalidScenario, "random leader count 3 outside [0, 2]"),
    ({"graph": {"n": 0, "edges": []}}, InvalidScenario, "graph needs at least one node, got 0"),
    ({"graph": {"file": "missing.json"}}, ScenarioParseError,
     "graph file: [Errno 2] No such file or directory"),
    ({"agents": [{"boe": {}}, _OTHER]}, InvalidScenario, "agents[0]: bad opinion: no masses"),
], ids=["sample-targets", "strategy", "engine", "graph-er", "graph-file", "edge-number",
        "edge-single", "edge-triple", "unknown-strategy", "unknown-engine", "empty-target",
        "masses-and-sample", "no-concentrations", "no-targets", "target-count",
        "zero-concentration", "alpha-range", "epsilon-range", "frame-size-0", "frame-size-17",
        "negative-seed", "leader-count", "no-nodes", "missing-graph-file", "no-masses"])
def test_wrongly_typed_value_names_its_field(tmp_path, capsys, field, error, message):
    data = dict(TINY, **field)
    with pytest.raises(error, match=re.escape(message)):
        scenario_from_dict(data, "t", tmp_path)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code = cli(["run", "--scenario", str(path), "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"ds-consensus run: {message}")


def test_negative_seed_argument_rejected():
    with pytest.raises(InvalidScenario, match="^seed must be >= 0, got -1$"):
        load_scenario("fig4a-pmf", seed=-1)


def test_er_graph_without_connected_sample_rejected(tmp_path, capsys):
    data = dict(TINY, graph={"er": {"n": 6, "p": 0, "seed": 1}},
                agents=[{"boe": {"masses": {"1": 1.0}}}] * 6)
    with pytest.raises(InvalidScenario):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


def test_er_graph_above_the_size_cap_rejected(tmp_path, capsys):
    data = dict(TINY, graph={"er": {"n": MAX_NODES + 1, "p": 0.1}},
                n_agents=MAX_NODES + 1, defaults={"boe": {"masses": {"1": 1.0}}})
    del data["agents"]
    with pytest.raises(InvalidScenario, match="n must be in"):
        scenario_from_dict(data, "t", tmp_path)
    assert _cli_run_file(tmp_path, data, capsys) == 1


@pytest.mark.parametrize("form", ["explicit", "file"])
def test_graph_above_the_node_limit_rejected_before_any_agent(tmp_path, capsys, monkeypatch,
                                                              form):
    def no_agent(*args, **kwargs):
        raise AssertionError("built an agent")
    monkeypatch.setattr(scenario_module, "_parse_agent", no_agent)
    graph = {"n": MAX_NODES + 1, "edges": [[1, 2]]}
    if form == "file":
        (tmp_path / "big.json").write_text(json.dumps(graph))
        graph = {"file": "big.json"}
    data = dict(TINY, graph=graph, n_agents=MAX_NODES + 1,
                defaults={"boe": {"masses": {"1": 1.0}}})
    del data["agents"]
    message = f"n must be in [0, {MAX_NODES}], got {MAX_NODES + 1}"
    with pytest.raises(InvalidScenario, match=re.escape(message)):
        scenario_from_dict(data, "t", tmp_path)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code = cli(["run", "--scenario", str(path), "--epsilon", "0.5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == f"ds-consensus run: {message}\n"


def test_alias_cycles_rejected(tmp_path, capsys):
    a, b, own = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "own.json"
    a.write_text(json.dumps({"alias": str(b)}))
    b.write_text(json.dumps({"alias": str(a)}))
    own.write_text(json.dumps({"alias": str(own)}))
    for path in (a, b, own):
        with pytest.raises(ScenarioParseError, match="alias cycle"):
            load_scenario(str(path))
        code = cli(["run", "--scenario", str(path), "--epsilon", "0.5"])
        assert code == 1 and "alias cycle" in capsys.readouterr().err
    # an alias chain that ends in a scenario still loads it
    (tmp_path / "c.json").write_text(json.dumps({"alias": str(tmp_path / "d.json")}))
    (tmp_path / "d.json").write_text(json.dumps({"alias": "fig3a-pmf"}))
    loaded, target = load_scenario(str(tmp_path / "c.json")), load_scenario("fig3a-pmf")
    assert loaded.name == target.name and loaded.graph == target.graph


# Any JSON value, with small numbers: sizes stay small enough to run quickly.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(["", "1", "*", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)

_FUZZ_BASE = {"frame_size": 2, "engine": "auto", "seed": 0, "max_iterations": 50,
              "graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
              "tolerances": {"step": 1e-10, "persistence": 2, "cluster": 1e-3},
              "defaults": {"strategy": "receptive", "alpha": 0.5, "epsilon": 1.0},
              "random_leaders": {"count": 1},
              "agents": [{"boe": {"masses": {"1": 0.6, "2": 0.4}}},
                         {"boe": {"masses": {"1,2": 0.5, "2": 0.5}}},
                         {"sample": {"dirichlet": [1, 1], "targets": ["1", "*"]}}]}


def _paths(value, prefix=()):
    """Every path into a JSON document, to containers and to leaves."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = range(len(value))
    else:
        return
    for key in keys:
        yield prefix + (key,)
        yield from _paths(value[key], prefix + (key,))


@st.composite
def _mutated_scenarios(draw):
    """The valid base scenario with a few values replaced or fields dropped."""
    data = json.loads(json.dumps(_FUZZ_BASE))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_json_values)
    return data


@settings(max_examples=300, deadline=None)
@given(data=_mutated_scenarios() | _json_values)
def test_scenario_boundary_fuzz(data):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            scenario_from_dict(data, "fuzz", Path(tmp))
        except DSConsensusError:
            pass
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli(["run", "--scenario", str(path), "--epsilon", "0.5"])
    assert code in (0, 1, 2)
