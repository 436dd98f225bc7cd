"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import api as bench_api  # noqa: E402
import reference as ref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit_and_nothing_fails(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.strip().startswith("failed_share 0/") for line in lines)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _inputs(workload: str, seed: int):
    bench = bench_api.load()
    w = WORKLOADS[workload]
    plan = w.plan(bench, ref.load(workload), seed, tiny=False)
    return plan["keys"], w.materialize(bench, plan)


def test_seed_changes_er_inputs():
    keys1, scen1 = _inputs("er100-scan", 1)
    keys2, scen2 = _inputs("er100-scan", 2)
    assert keys1 == _inputs("er100-scan", 1)[0]
    assert keys1 != keys2
    graphs1 = {frozenset(s.graph.edges) for s in scen1.values()}
    graphs2 = {frozenset(s.graph.edges) for s in scen2.values()}
    assert graphs1 != graphs2


def test_seed_changes_ds7_inputs():
    keys1, scen1 = _inputs("general-sweep", 1)
    keys2, scen2 = _inputs("general-sweep", 2)
    ds7_1 = [k for k in keys1 if k.startswith("ds7-")]
    ds7_2 = [k for k in keys2 if k.startswith("ds7-")]
    assert ds7_1 and ds7_1 != ds7_2
    opinions1 = {s.agents[0].boe.masses.tobytes() for k, s in scen1.items() if k[0].startswith("ds7-")}
    opinions2 = {s.agents[0].boe.masses.tobytes() for k, s in scen2.items() if k[0].startswith("ds7-")}
    assert opinions1 != opinions2


def test_fails_without_the_package():
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
