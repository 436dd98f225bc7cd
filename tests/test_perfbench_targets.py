"""The benchmark tracer's targets and hook contracts must hold in the package.

``perfbench/tracer.py`` binds every ``(module, function)`` of its ``TARGETS``
with ``getattr`` and no default, so a removed or renamed function breaks
``perfbench --trace 1``; its hooks read ``prune``'s result (``.kept``),
``pairwise_jousselme``'s ``mass_rows`` and ``run_simulation``'s result.
This loads the tracer without importing perfbench as a package and changes
nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

from conftest import at_bound

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve_in_the_package():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module, function, _span in tracer.TARGETS:
        mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function} is gone"


def test_tracer_hooks_count_a_traced_run():
    from ds_consensus import dst, graph, runner, scenario

    tracer = _load_tracer()
    traced = tracer.Tracer()
    traced.install()
    try:  # every call goes through a module attribute, where the tracer sits
        sc = scenario.load_scenario("fig4a-pmf")
        result = runner.run_simulation(sc, 0.3)
        state = at_bound(sc.state, 0.3)
        state.pruned()  # dynamics' own binding of prune
        graph.prune(state.graph, state.masses, state.bounds, state.frame.size)
        dst.pairwise_jousselme(state.masses, state.frame.size)
        dst.pairwise_jousselme(mass_rows=state.masses, size=state.frame.size)
    finally:
        traced.uninstall()
    tracer.assert_clean()

    counters = traced.counters
    assert counters.prune_calls == 2 and counters.kept_edges > 0
    assert counters.steps == [result.iterations] and result.iterations > 0
    assert counters.flops > 0
    spans = traced.aggregate()
    for name in ("scenario.load_scenario", "runner.run_simulation", "graph.prune",
                 "dst.pairwise_jousselme", "analysis.detect_clusters"):
        assert spans[name]["calls"] > 0, name
