"""Span tracer installed around the package's public functions from outside.

The tracer replaces each traced function with a wrapper in every
``ds_consensus`` module namespace (and module-level dict, such as the engine
table) that holds it, so internal calls between modules are seen as well.
Spans are kept in flat arrays as (name, start, end, parent); self time is a
span's duration minus the durations of its direct children.  ``uninstall``
puts every original object back and ``assert_clean`` proves it.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "ds_consensus"
WRAPPED = "__perfbench_wrapped__"

# (module, function, span name); several functions may share one span name
TARGETS = (
    ("scenario", "load_scenario", "scenario.load_scenario"),
    ("graph", "erdos_renyi_connected", "graph.erdos_renyi_connected"),
    ("graph", "prune", "graph.prune"),
    ("dst", "pairwise_jousselme", "dst.pairwise_jousselme"),
    ("dst", "is_bayesian_table", "dst.class_checks"),
    ("dst", "is_dirichlet_table", "dst.class_checks"),
    ("dynamics", "pmf_confidence_matrix", "dynamics.confidence_matrix"),
    ("dynamics", "dirichlet_confidence_matrix", "dynamics.confidence_matrix"),
    ("dynamics", "pmf_step", "dynamics.pmf_step"),
    ("dynamics", "dirichlet_step", "dynamics.dirichlet_step"),
    ("dynamics", "general_step", "dynamics.general_step"),
    ("runner", "run_simulation", "runner.run_simulation"),
    ("analysis", "detect_clusters", "analysis.detect_clusters"),
    ("analysis", "classify_chain", "analysis.classify_chain"),
    ("analysis", "verify_one_group_chain", "analysis.verify_one_group_chain"),
    ("analysis", "verify_two_group_chain", "analysis.verify_two_group_chain"),
    ("output", "write_sweep_csv", "output.write_sweep_csv"),
    ("output", "write_sweep_svg", "output.write_sweep_svg"),
    ("output", "write_sweep_json", "output.write_sweep_json"),
    ("cli", "cli", "cli.cli"),
)
HOOK_SPAN = "trace.hooks"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def assert_clean() -> None:
    """Raise if any tracer wrapper is still bound anywhere in the package."""
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            values = val.values() if isinstance(val, dict) else (val,)
            if any(getattr(v, WRAPPED, False) for v in values):
                raise RuntimeError(f"tracer wrapper left in {mod.__name__}.{attr}")


class Counters:
    """Counts measured at the traced boundaries, beyond calls and times."""

    def __init__(self):
        self.flops = 0                # computed 2*(N*K^2 + N^2*K) per distance call
        self.prune_calls = 0
        self.prune_unchanged = 0
        self.kept_edges = 0
        self.steps: list[int] = []    # reported iterations per run_simulation call
        self.converged = 0
        self.bytes = {"output.write_sweep_csv": 0, "output.write_sweep_svg": 0,
                      "output.write_sweep_json": 0}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []
        self.counters = Counters()
        self._last_kept: tuple[int, np.ndarray] | None = None  # (parent span, kept)
        self._hook_id = self._id(HOOK_SPAN)
        self._hooks = {"dst.pairwise_jousselme": self._count_flops,
                       "graph.prune": self._count_prune,
                       "runner.run_simulation": self._count_run}
        for span in self.counters.bytes:
            self._hooks[span] = self._byte_counter(span)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans --------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span: str):
        name_id = self._id(span)
        hook = self._hooks.get(span)

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                # hook work is its own span, so no layer's self time absorbs it
                h = self._open(self._hook_id)
                try:
                    hook(idx, args, kwargs, result)
                finally:
                    self._close(h)
            return result

        wrapper.__wrapped__ = fn
        setattr(wrapper, WRAPPED, True)
        return wrapper

    # -- counters measured at the boundaries ----------------------------------

    def _count_flops(self, idx, args, kwargs, result):
        rows = args[0] if args else kwargs["mass_rows"]
        n, k = rows.shape
        self.counters.flops += 2 * (n * k * k + n * n * k)

    def _count_prune(self, idx, args, kwargs, result):
        c = self.counters
        c.prune_calls += 1
        c.kept_edges += int(result.kept.sum())
        parent = self.parent[idx]
        last = self._last_kept
        if last is not None and parent >= 0 and last[0] == parent \
                and np.array_equal(last[1], result.kept):
            c.prune_unchanged += 1
        self._last_kept = (parent, result.kept)

    def _count_run(self, idx, args, kwargs, result):
        self.counters.steps.append(int(result.iterations))
        self.counters.converged += bool(result.converged)

    def _byte_counter(self, span: str):
        def count(idx, args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counters.bytes[span] += os.path.getsize(path)
        return count

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        assert_clean()
        modules = _package_modules()
        for mod_name, fn_name, span in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                    elif isinstance(val, dict):
                        for key, item in list(val.items()):
                            if item is original:
                                self._patches.append((val, key, original))
                                val[key] = wrapper

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()
        assert_clean()

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def aggregate(self, first: int = 0, last: int | None = None) -> dict[str, dict]:
        """Calls, total and self seconds per span name over spans [first, last)."""
        a = self.arrays()
        last = len(a["start"]) if last is None else last
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        out = {}
        sel = slice(first, last)
        names, ids = a["names"], a["name"][sel]
        calls = np.bincount(ids, minlength=len(names))
        total = np.bincount(ids, weights=dur[sel], minlength=len(names))
        own = np.bincount(ids, weights=self_s[sel], minlength=len(names))
        for k, name in enumerate(names):
            out[str(name)] = {"calls": int(calls[k]), "total_s": float(total[k]),
                              "self_s": float(own[k])}
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())
