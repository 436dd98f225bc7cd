"""Simulation driver and epsilon-sweep engine."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import dst, dynamics
from .analysis import (ClusterReport, classify_chain, detect_clusters,
                       verify_one_group_chain, verify_two_group_chain)
from .errors import InvalidScenario, ParameterOutOfRange
from .scenario import Scenario


@dataclass(frozen=True, eq=False)
class RunResult:
    engine: str
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
                   record_matrices: bool = False, record_trace: bool = False) -> RunResult:
    """Iterate the scenario's engine until convergence or the iteration cap.

    Convergence means the largest per-step mass change stayed below the step
    tolerance for ``persistence`` consecutive steps.  ``record_trace`` keeps
    each step's kept edges and every state's masses, the final one included.
    Every engine runs through :class:`dynamics.ProfileRun`, which prunes under
    its certificate: pmf and Dirichlet on singleton profiles, general on the
    full mass table.  A general run has no confidence matrix, so
    ``record_matrices`` on one raises EngineMismatch at its first step.
    """
    run = dynamics.ProfileRun(scenario.state, scenario.engine, epsilon)

    matrices = [] if record_matrices else None
    edges, frames = ([], []) if record_trace else (None, None)
    steps, converged = run.advance(scenario.max_iterations, scenario.step_tol,
                                   scenario.persistence, edges, matrices, frames)
    final = run.masses()
    if record_trace:
        frames.append(final)

    return RunResult(
        engine=scenario.engine,
        initial_masses=scenario.state.masses,
        final_masses=final,
        iterations=steps,
        converged=converged,
        report=detect_clusters(final, scenario.cluster_tol, scenario.frame),
        matrices=tuple(matrices) if record_matrices else None,
        pruned_edges=tuple(edges) if record_trace else None,
        trajectory=np.stack(frames) if frames else None,
    )


def verify_run(scenario: Scenario, epsilon: float) -> dict:
    """Run the scenario with every step's matrix recorded and check its theorem.

    The cautious agents are the driving groups, one group each: one leader
    selects the one-group consensus theorem, two the two-groups theorem.
    Returns the payload ``cli verify`` prints: the run's identification, the
    theorem report and the cluster report.  A scenario with no cautious
    agent, more than two, the general engine or no step raises
    InvalidScenario; a run whose matrices lose the chain structure raises
    NotDrivenChain.
    """
    if not scenario.leaders:
        raise InvalidScenario("scenario has no cautious agents to anchor a driven chain")
    if len(scenario.leaders) > 2:
        raise InvalidScenario("more than two cautious groups are not supported")
    if scenario.engine == "general":
        raise InvalidScenario("the general engine has no confidence matrix to verify; "
                              "use a pmf scenario, or a dirichlet one whose cautious "
                              "agents hold no full-frame mass")
    if scenario.max_iterations < 1:
        raise InvalidScenario("max_iterations is 0, so there is no step to verify")
    result = run_simulation(scenario, epsilon=epsilon, record_matrices=True)
    chain = classify_chain(result.matrices[0], [[leader] for leader in scenario.leaders])
    verify = verify_one_group_chain if chain.kind == "one-group" else verify_two_group_chain
    report = verify(chain, result.matrices, result.singleton_profiles(result.initial_masses),
                    result.singleton_profiles())
    return {
        "scenario": scenario.name,
        "engine": result.engine,
        "epsilon": epsilon,
        "leaders": list(scenario.leaders),
        "theorem": report,
        "clusters": result.report.to_dict(result.converged, result.iterations),
    }


@dataclass(frozen=True, eq=False)
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


# The largest bound grid a sweep accepts; the paper's grids have 101 points.
MAX_SWEEP_POINTS = 10 ** 6


def sweep_grid(eps_min: float, eps_max: float, eps_step: float) -> tuple[float, ...]:
    """The bounds eps_min, eps_min + eps_step, ... up to eps_max; a bad grid,
    or one of more than MAX_SWEEP_POINTS points, raises ParameterOutOfRange
    before any point is formed."""
    if not 0.0 <= eps_min <= eps_max <= 1.0:
        raise ParameterOutOfRange(f"need 0 <= eps_min <= eps_max <= 1, got [{eps_min}, {eps_max}]")
    if not (np.isfinite(eps_step) and eps_step > 0.0):
        raise ParameterOutOfRange(f"eps_step must be positive and finite, got {eps_step}")
    span = np.floor((eps_max - eps_min) / eps_step + 1e-9)  # inf for a subnormal step
    if span >= MAX_SWEEP_POINTS:
        raise ParameterOutOfRange(
            f"eps_step {eps_step} gives more than {MAX_SWEEP_POINTS} grid points")
    count = int(span) + 1
    return tuple(round(eps_min + k * eps_step, 12) for k in range(count))


def _sweep_points(scenario: Scenario, mask: int, grid: tuple[float, ...]) -> list[tuple]:
    """Limit masses of ``mask``, cluster ids and count, consensus and steps at each bound."""
    rows = []
    for eps in grid:
        run = run_simulation(scenario, epsilon=eps)
        ids = np.array([run.report.cluster_of(a) for a in range(1, len(run.final_masses) + 1)])
        rows.append((run.final_masses[:, mask], ids, run.report.cluster_count,
                     run.report.consensus, run.iterations))
    return rows


def run_sweep(scenario: Scenario, eps_min: float, eps_max: float, eps_step: float,
              proposition: str = "1", workers: int = 1) -> BifurcationResult:
    """Run the scenario once per grid point with identical initial conditions.

    Grid points are independent; ``workers > 1`` fans them out to at most
    one process per grid point and per CPU.  Each process takes one copy of
    the scenario, its start state already built, and every ``workers``-th
    point, so that the costly points near a consensus threshold spread over
    all of them.  Results are assembled in grid order either way.  An empty
    proposition, whose mass is always 0, raises ValueError before any run.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    grid = sweep_grid(eps_min, eps_max, eps_step)
    mask = dst.prop_from_str(proposition, scenario.frame)
    if mask == 0:
        raise ValueError(f"proposition {proposition!r} is the empty set, whose mass is always 0")
    workers = min(workers, len(grid), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(partial(_sweep_points, scenario, mask),
                                  [grid[w::workers] for w in range(workers)]))
        rows = [parts[k % workers][k // workers] for k in range(len(grid))]
    else:
        rows = _sweep_points(scenario, mask, grid)
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
