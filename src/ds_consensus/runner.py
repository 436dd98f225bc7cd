"""Simulation driver and epsilon-sweep engine."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import dst, dynamics
from .analysis import ClusterReport, detect_clusters
from .errors import EngineMismatch
from .scenario import Scenario


@dataclass(frozen=True)
class RunResult:
    scenario: str
    engine: str
    epsilon: float | None            # uniform override, None = per-agent bounds
    initial_masses: np.ndarray
    final_masses: np.ndarray
    iterations: int
    converged: bool
    report: ClusterReport
    matrices: tuple[np.ndarray, ...] | None = None
    pruned_edges: tuple[frozenset, ...] | None = None
    trajectory: np.ndarray | None = None

    def singleton_profiles(self, masses: np.ndarray | None = None) -> np.ndarray:
        m = self.final_masses if masses is None else masses
        return m[:, dst.support_columns(self.report.frame)]


def run_simulation(scenario: Scenario, epsilon: float | None = None,
                   record_matrices: bool = False, record_edges: bool = False,
                   record_trajectory: int = 0) -> RunResult:
    """Iterate the scenario's engine until convergence or the iteration cap.

    Convergence means the largest per-step mass change stayed below the step
    tolerance for ``persistence`` consecutive steps.  ``record_trajectory``
    keeps every k-th state's masses (0 disables).  The pmf and Dirichlet
    engines run on singleton profiles (:class:`dynamics.ProfileRun`); the
    general engine steps the full mass table.
    """
    engine_name = scenario.resolved_engine()
    state = scenario.initial_state(epsilon)
    if engine_name == "general":
        run = dynamics.GeneralRun(state)
    elif engine_name in ("pmf", "dirichlet"):
        run = dynamics.ProfileRun(state, engine_name)
    else:
        raise EngineMismatch(f"unknown engine {engine_name!r}")

    matrices: list[np.ndarray] = []
    edges: list[frozenset] = []
    frames: list[np.ndarray] = []
    quiet = 0
    converged = False
    steps = 0
    while steps < scenario.max_iterations:
        if record_edges:
            edges.append(run.edges())
        if record_trajectory and steps % record_trajectory == 0:
            frames.append(run.masses())
        if record_matrices and engine_name != "general":
            matrices.append(run.weights())
        diff = run.step()
        steps += 1
        quiet = quiet + 1 if diff < scenario.step_tol else 0
        if quiet >= scenario.persistence:
            converged = True
            break
    final = run.masses()
    if record_trajectory:
        frames.append(final)

    report = detect_clusters(final, scenario.cluster_tol, scenario.frame)
    report = replace(report, converged=converged, iterations=steps)
    return RunResult(
        scenario=scenario.name,
        engine=engine_name,
        epsilon=epsilon,
        initial_masses=state.masses,
        final_masses=final,
        iterations=steps,
        converged=converged,
        report=report,
        matrices=tuple(matrices) if record_matrices else None,
        pruned_edges=tuple(edges) if record_edges else None,
        trajectory=np.stack(frames) if frames else None,
    )


@dataclass(frozen=True)
class BifurcationResult:
    """Limit opinions of one proposition across an epsilon grid."""

    scenario: str
    proposition: str
    grid: tuple[float, ...]
    limit_masses: np.ndarray      # (len(grid), N)
    cluster_ids: np.ndarray       # (len(grid), N), 1-based per-agent cluster
    cluster_counts: tuple[int, ...]
    consensus: tuple[bool, ...]
    iterations: tuple[int, ...]

    @property
    def n_agents(self) -> int:
        return self.limit_masses.shape[1]

    def smallest_consensus_epsilon(self) -> float | None:
        for eps, flag in zip(self.grid, self.consensus):
            if flag:
                return eps
        return None


def sweep_grid(eps_min: float, eps_max: float, eps_step: float) -> tuple[float, ...]:
    if not 0.0 <= eps_min <= eps_max <= 1.0:
        raise ValueError(f"need 0 <= eps_min <= eps_max <= 1, got [{eps_min}, {eps_max}]")
    if eps_step <= 0.0:
        raise ValueError(f"eps_step must be positive, got {eps_step}")
    count = int(np.floor((eps_max - eps_min) / eps_step + 1e-9)) + 1
    return tuple(round(eps_min + k * eps_step, 12) for k in range(count))


def _sweep_point(args) -> tuple[np.ndarray, np.ndarray, int, bool, int]:
    scenario, eps, mask = args
    run = run_simulation(scenario, epsilon=eps)
    limits = run.final_masses[:, mask]
    ids = np.array([run.report.cluster_of(a) for a in range(1, run.final_masses.shape[0] + 1)])
    return limits, ids, run.report.cluster_count, run.report.consensus, run.iterations


def run_sweep(scenario: Scenario, eps_min: float, eps_max: float, eps_step: float,
              proposition: str = "1", workers: int = 1) -> BifurcationResult:
    """Run the scenario once per grid point with identical initial conditions.

    Grid points are independent; ``workers > 1`` fans them out to processes.
    Results are assembled in grid order either way.
    """
    grid = sweep_grid(eps_min, eps_max, eps_step)
    mask = dst.prop_from_str(proposition, scenario.frame)
    jobs = [(scenario, eps, mask) for eps in grid]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(job) for job in jobs]
    return BifurcationResult(
        scenario=scenario.name,
        proposition=proposition,
        grid=grid,
        limit_masses=np.vstack([r[0] for r in rows]),
        cluster_ids=np.vstack([r[1] for r in rows]),
        cluster_counts=tuple(r[2] for r in rows),
        consensus=tuple(r[3] for r in rows),
        iterations=tuple(r[4] for r in rows),
    )
