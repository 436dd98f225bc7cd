"""Reference outcomes: what a run must produce, how it is compared, where it lives.

A reference file ``reference/<workload>.json`` maps run keys to the step
count recorded at the reference commit and the outcome to compare: the
consensus flag, the cluster partition, the limit masses and, for ``verify``,
the theorem's match flag and prediction.  Limit masses are compared within
``MASS_TOL``: the mean row of every cluster with two or more members, and the
column sums over all one-agent clusters (an isolated agent's row would make
the file grow with the agent count), each over the columns the engine can
fill.  Step counts are not compared; they only place runs into strata of
similar cost.  Seeded inputs are drawn from ``strata``, one key per stratum,
so every seed asks for about the same amount of work.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MASS_TOL = 1e-9
DIGITS = 10           # recorded masses are rounded here, well inside MASS_TOL


def run_key(scenario: str, epsilon: float, seed: int | None = None) -> str:
    return f"{scenario}#{seed}@{epsilon!r}" if seed is not None else f"{scenario}@{epsilon!r}"


def _rows(matrix) -> list[list[float]]:
    return [[round(float(x), DIGITS) for x in row] for row in np.asarray(matrix)]


def support(engine: str, n_subsets: int) -> list[int]:
    """Subset masks an engine can give mass to (singletons, plus the frame)."""
    singletons = [1 << p for p in range(n_subsets.bit_length() - 1)]
    if engine == "pmf":
        return singletons
    if engine == "dirichlet":
        return singletons + [n_subsets - 1]
    return list(range(1, n_subsets))


def run_outcome(result) -> dict:
    """Comparable outcome of a ``runner.RunResult``."""
    report = result.report
    rows = np.asarray(report.representatives)
    reps = rows[:, support(result.engine, rows.shape[1])]
    sizes = np.array([len(c) for c in report.clusters])
    return {"consensus": bool(report.consensus),
            "clusters": [list(c) for c in report.clusters],
            "reps": _rows(reps[sizes > 1]),
            "singles": _rows([reps[sizes == 1].sum(axis=0)])[0]}



def verify_outcome(payload: dict) -> dict:
    """Comparable outcome of the JSON that ``cli verify`` prints."""
    clusters = payload["clusters"]
    return {"match": payload["theorem"]["match"],
            "prediction": payload["theorem"]["prediction"],
            "consensus": clusters["consensus"],
            "clusters": clusters["clusters"],
            "reps": [{p: round(float(v), DIGITS) for p, v in rep.items()}
                     for rep in clusters["representatives"]]}


def partition_errors(clusters, n: int) -> list[str]:
    members = sorted(a for c in clusters for a in c)
    if members != list(range(1, n + 1)):
        return [f"partition does not cover agents 1..{n} exactly once"]
    return []


def run_invariant_errors(result) -> list[str]:
    """Checks that hold for every run, with or without a reference."""
    m = result.final_masses
    errors = []
    if not np.all(np.isfinite(m)) or m.min() < -1e-12:
        errors.append(f"negative or non-finite limit mass {m.min()!r}")
    gap = float(np.max(np.abs(m.sum(axis=1) - 1.0)))
    if not gap <= MASS_TOL:
        errors.append(f"limit masses sum to 1 only within {gap!r}")
    return errors + partition_errors(result.report.clusters, m.shape[0])


def compare(ref, got, path: str = "") -> list[str]:
    """Recursive equality; numbers (not flags) may differ by ``MASS_TOL``."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [e for k in ref for e in compare(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, (list, tuple)):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [e for k, (r, g) in enumerate(zip(ref, got))
                for e in compare(r, g, f"{path}[{k}]")]
    numbers = (int, float)
    if (isinstance(ref, numbers) and isinstance(got, numbers)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        if abs(float(ref) - float(got)) <= MASS_TOL:
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if ref != got or type(ref) is not type(got):
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def stratify(steps: dict[str, int], strata: int, per_stratum: int) -> list[list[str]]:
    """Split keys into equal-count groups by step count.

    Each group keeps the ``per_stratum`` keys nearest its middle rank, so any
    draw of one key per group costs about the same number of steps.
    """
    ordered = sorted(steps, key=lambda k: (steps[k], k))
    out = []
    for group in np.array_split(np.array(ordered, dtype=object), strata):
        middle = (len(group) - 1) / 2
        near = sorted(range(len(group)), key=lambda i: (abs(i - middle), i))[:per_stratum]
        out.append([str(group[i]) for i in sorted(near)])
    return out


def draw(strata: list[list[str]], rng: np.random.Generator) -> list[str]:
    """One key per stratum."""
    return [stratum[int(rng.integers(len(stratum)))] for stratum in strata]


def load(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def dump(workload: str, data: dict) -> None:
    """Write one run per line so that diffs of the reference stay readable."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    lines = ["{"]
    items = list(data.items())
    for i, (section, value) in enumerate(items):
        end = "," if i < len(items) - 1 else ""
        if section == "runs":
            inner = [f"    {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                     for k, v in value.items()]
            lines.append(f'  "runs": {{\n' + ",\n".join(inner) + f"\n  }}{end}")
        else:
            lines.append(f"  {json.dumps(section)}: "
                         f"{json.dumps(value, separators=(',', ':'))}{end}")
    lines.append("}")
    (REFERENCE_DIR / f"{workload}.json").write_text("\n".join(lines) + "\n",
                                                     encoding="utf-8")
