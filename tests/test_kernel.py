"""Differential tests: the run kernel against a dense oracle loop.

The oracle loop prunes with ``graph.prune``, writes the closed-form weights
on the dense receive matrix and multiplies the singleton profile by them
(``oracle_step``), or for the general engine steps the per-agent loop
``test_general_kernel.reference_step``, and applies the same convergence
rule as ``run_simulation``; the kernel, and the one-step views of it, must
give the same iteration count, convergence flag, kept edges and
bit-identical masses.  No step code of the package is called.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ds_consensus import dynamics
from ds_consensus.dst import (MAX_FRAME_SIZE, BodyOfEvidence, Frame, jaccard_matrix,
                               pairwise_jousselme)
from ds_consensus.dynamics import (AgentSpec, ProfileRun, Strategy, _update, _WeightPlan,
                                   dirichlet_confidence_matrix, dirichlet_step, distance_error,
                                   general_step, pmf_confidence_matrix, pmf_step)
from ds_consensus.errors import EngineMismatch, NotDirichlet
from ds_consensus.graph import DirectedGraph
from ds_consensus.runner import run_simulation, sweep_grid
from ds_consensus.scenario import Scenario, load_scenario

from conftest import at_bound, pruned, state_from_specs, view_edges
from test_general_kernel import random_network as random_general_network, reference_step


def oracle_pmf_matrix(kept, alphas, receptive):
    """Row-stochastic pmf weights, written on the dense receive matrix."""
    n = len(alphas)
    counts = kept.sum(axis=1)
    active = receptive & (counts > 0)
    share = np.where(active, (1.0 - alphas) / np.maximum(counts, 1), 0.0)
    w = np.where(kept, share[:, None], 0.0)
    w[np.arange(n), np.arange(n)] = np.where(active, alphas, 1.0)
    return w


def oracle_dirichlet_weights(kept, alphas, receptive, theta):
    """Dirichlet weights, written on the dense receive matrix."""
    n = kept.shape[0]
    counts = kept.sum(axis=1)
    has = counts > 0
    safe = np.maximum(counts, 1)
    rec_rows = (kept * ((1.0 - alphas) / safe)[:, None]) * (1.0 + theta)[None, :]
    cau_rows = kept * ((1.0 - alphas) * theta / safe)[:, None]
    w = np.where((receptive & has)[:, None], rec_rows,
                 np.where(has[:, None], cau_rows, 0.0))
    w[np.arange(n), np.arange(n)] = np.where(receptive & has, alphas, 1.0)
    return w


def oracle_weights(state, engine, kept):
    """The pmf or Dirichlet weights of ``state`` on the receive matrix ``kept``."""
    frame, alphas, receptive = state.frame, state.alphas, state.receptive
    if engine == "dirichlet" and frame.size > 1:
        return oracle_dirichlet_weights(kept, alphas, receptive,
                                        state.masses[:, frame.full_set])
    return oracle_pmf_matrix(kept, alphas, receptive)  # one singleton: Bayesian


def oracle_step(state, engine, kept):
    """One synchronous step on the receive matrix ``kept``.  A closed-form
    step multiplies the column-major singleton profile by the oracle
    weights; a Dirichlet full frame takes the mass the singletons leave over."""
    if engine == "general":
        return reference_step(state, kept)
    frame = state.frame
    cols = [1 << p for p in range(frame.size)]
    prod = oracle_weights(state, engine, kept) @ np.asfortranarray(state.masses[:, cols])
    masses = np.zeros_like(state.masses)
    masses[:, cols] = prod
    if engine == "dirichlet" and frame.size > 1:
        masses[:, frame.full_set] = np.maximum(1.0 - prod.sum(axis=1), 0.0)
    return replace(state, masses=masses)


def reference_run(state, engine, max_iterations, step_tol, persistence):
    edges = []
    quiet = 0
    converged = False
    for _ in range(max_iterations):
        view = pruned(state)
        edges.append(view_edges(view))
        new = oracle_step(state, engine, view.kept)
        diff = float(np.max(np.abs(new.masses - state.masses)))
        state = new
        quiet = quiet + 1 if diff < step_tol else 0
        if quiet >= persistence:
            converged = True
            break
    return state, converged, edges


VIEWS = {"pmf": pmf_step, "dirichlet": dirichlet_step, "general": general_step}
CONFIDENCE = {"pmf": pmf_confidence_matrix, "dirichlet": dirichlet_confidence_matrix}


def random_network(rng, engine, n, size):
    frame = Frame(size)
    cols = [1 << p for p in range(size)]
    if engine == "dirichlet":
        cols.append(frame.full_set)
    isolated = set(rng.choice(n, size=2, replace=False).tolist())
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if i - 1 not in isolated and j - 1 not in isolated and rng.random() < 0.3]
    graph = DirectedGraph.from_mutual_pairs(n, pairs)
    leaders = set(rng.choice(n, size=2, replace=False).tolist())
    specs = []
    for k in range(n):
        m = np.zeros(frame.n_subsets)
        draw = rng.gamma(1.0, size=len(cols))
        m[cols] = draw / draw.sum()
        strategy = Strategy.CAUTIOUS if k in leaders else Strategy.RECEPTIVE
        specs.append(AgentSpec(strategy, float(rng.uniform(0.3, 0.7)),
                               float(rng.uniform(0.05, 0.6)), BodyOfEvidence(frame, m)))
    return frame, graph, tuple(specs)


def scenario_of(frame, graph, specs, engine, max_iterations=1500):
    return Scenario("diff", state_from_specs(frame, graph, specs), engine,
                    max_iterations=max_iterations)


@pytest.mark.parametrize("engine", ["pmf", "dirichlet"])
def test_kernel_matches_reference_loop(engine):
    rng = np.random.default_rng(4101 if engine == "pmf" else 4102)
    for _ in range(6):
        frame, graph, specs = random_network(rng, engine, int(rng.integers(12, 25)),
                                             int(rng.integers(2, 5)))
        scenario = scenario_of(frame, graph, specs, engine)
        for eps in (None, 0.0, 0.37, 1.0):  # None keeps the per-agent bounds
            state = at_bound(scenario.state, eps)
            ref, converged, edges = reference_run(state, engine, scenario.max_iterations,
                                                  scenario.step_tol, scenario.persistence)
            run = run_simulation(scenario, eps, record_trace=True)
            assert run.iterations == len(edges)
            assert run.converged == converged
            assert run.final_masses.tobytes() == ref.masses.tobytes()
            assert run.pruned_edges == tuple(edges)


@pytest.mark.parametrize("figure", ["fig3a", "fig4a", "fig5a", "fig6a"])
def test_kernel_matches_reference_loop_on_shipped_dirichlet_figures(figure):
    scenario = load_scenario(f"{figure}-dirichlet")
    for eps in (0.1, 0.3, 0.5, 0.9):
        ref, converged, edges = reference_run(at_bound(scenario.state, eps), "dirichlet",
                                              scenario.max_iterations, scenario.step_tol,
                                              scenario.persistence)
        run = run_simulation(scenario, eps, record_trace=True)
        assert run.iterations == len(edges) and run.converged == converged
        assert run.final_masses.tobytes() == ref.masses.tobytes()
        assert run.pruned_edges == tuple(edges)


def bound_argument_edges(state, engine, eps):
    """Run ``ProfileRun(state, engine, eps)`` beside a run of the state whose
    agents all hold the bound ``eps``: the same steps, convergence, kept
    edges per step and masses, bit for bit.  Returns the kept edges."""
    given, at = ProfileRun(state, engine, eps), ProfileRun(at_bound(state, eps), engine)
    given_edges, at_edges = [], []
    assert given.advance(300, 1e-10, 10, given_edges) == at.advance(300, 1e-10, 10, at_edges)
    assert given_edges == at_edges
    assert given.masses().tobytes() == at.masses().tobytes()
    return given_edges


def network_with_an_edge(rng, engine):
    while True:  # the general networks may have no edge
        state = (random_general_network(rng, 1.0) if engine == "general" else
                 state_from_specs(*random_network(rng, engine, 12, 3)))
        if state.graph.edges:
            return state


@pytest.mark.parametrize("engine", ["pmf", "dirichlet", "general"])
def test_bound_argument_matches_the_state_at_that_bound(engine):
    rng = np.random.default_rng(4116)
    for _ in range(4):
        state = network_with_an_edge(rng, engine)
        src, nbr = np.nonzero(state.graph.adjacency())
        # a bound equal to a base edge's distance keeps that edge (kept is <=)
        exact = float(pairwise_jousselme(state.masses, state.frame.size)[src[0], nbr[0]])
        for eps in (0.0, 0.3, 0.37, 1.0, exact):
            edges = bound_argument_edges(state, engine, eps)
        assert (src[0] + 1, nbr[0] + 1) in edges[0]


def line_state(alpha2, theta=0.0):
    """Agent 2 drifts from 0.6 toward cautious agent 4 at 0.32 and only late
    comes within reach of agent 1 at 0.05 (bound 0.3, M = 2, d = |dp| when
    no agent puts the mass ``theta`` on the full frame)."""
    frame = Frame(2)

    def boe(p):
        return BodyOfEvidence(frame, np.array([0.0, p, 1.0 - p, 0.0]) * (1.0 - theta)
                              + np.array([0.0, 0.0, 0.0, theta]))

    graph = DirectedGraph.from_mutual_pairs(4, [(1, 2), (2, 3), (2, 4)])
    specs = (AgentSpec(Strategy.CAUTIOUS, 0.5, 0.3, boe(0.05)),
             AgentSpec(Strategy.RECEPTIVE, alpha2, 0.3, boe(0.6)),
             AgentSpec(Strategy.CAUTIOUS, 0.5, 0.3, boe(1.0)),
             AgentSpec(Strategy.CAUTIOUS, 0.5, 0.3, boe(0.32)))
    return frame, graph, specs


def test_late_edge_recorded_step_by_step():
    frame, graph, specs = line_state(alpha2=0.95)
    scenario = scenario_of(frame, graph, specs, "pmf")
    run = run_simulation(scenario, record_trace=True)
    ref, converged, edges = reference_run(scenario.state, "pmf",
                                          scenario.max_iterations, scenario.step_tol,
                                          scenario.persistence)
    first = next(k for k, e in enumerate(edges) if (2, 1) in e)
    assert first > 10  # the edge really appears late
    assert run.pruned_edges == tuple(edges)
    assert run.iterations == len(edges) and run.converged == converged
    assert run.final_masses.tobytes() == ref.masses.tobytes()


def assert_weights_planned_once_per_kept_set(engine, theta):
    frame, graph, specs = line_state(alpha2=0.95, theta=theta)
    run = ProfileRun(state_from_specs(frame, graph, specs), engine)
    edges = []
    for _ in range(60):
        edges.append(run.edges())
        run.advance(1)
    changes = sum(a != b for a, b in zip(edges, edges[1:]))
    assert changes >= 1 and run.rebuilds == 1 + changes < run.prunes


def test_pmf_weights_rebuilt_once_per_kept_set():
    assert_weights_planned_once_per_kept_set("pmf", 0.0)


def test_dirichlet_weights_planned_once_per_kept_set():
    # every step refills the plan at the new full-frame masses, none rebuilds it
    assert_weights_planned_once_per_kept_set("dirichlet", 0.1)


def test_recorded_dirichlet_matrices_are_each_steps_weights():
    # the recorded matrix is a read-only copy of the plan's, never the plan's
    # matrix itself, which the next step rewrites
    rng = np.random.default_rng(4108)
    late_changes = 0
    for _ in range(4):
        frame, graph, specs = random_network(rng, "dirichlet", 12, 3)
        scenario = scenario_of(frame, graph, specs, "dirichlet", max_iterations=300)
        for eps in (0.3, 0.37):
            run = run_simulation(scenario, eps, record_matrices=True, record_trace=True)
            state = at_bound(scenario.state, eps)
            for matrix in run.matrices:
                kept = pruned(state).kept
                want = oracle_weights(state, "dirichlet", kept)
                assert not matrix.flags.writeable and matrix.tobytes() == want.tobytes()
                state = oracle_step(state, "dirichlet", kept)
            assert not any(np.shares_memory(a, b) for a, b in zip(run.matrices, run.matrices[1:]))
            edges = run.pruned_edges
            late_changes += sum(a != b for a, b in zip(edges[10:], edges[11:]))
    assert late_changes > 0  # kept sets that change mid-run


def test_update_guards_the_full_frame_column():
    # a stack row: the singleton rows of agents 1 and 2, then their full-frame row
    x = np.array([[0.25, 0.5], [0.75, 0.25], [0.0, 0.25]])

    def update(w):
        new, leftover = np.full_like(x, np.nan), np.empty(2)
        _update(w.T, x[:2], new[:2], new[2], leftover)
        return new, leftover

    new, _ = update(np.eye(2))  # leftovers of exactly 0 and 0.25
    assert new.tobytes() == x.tobytes() and not np.signbit(new[2]).any()
    # a row sum 1e-12 above 1 is round-off: its leftover is clipped to +0.0
    new, leftover = update(np.diag([1.0 + 1e-12, 1.0]))
    assert new[2, 0] == 0.0 and not np.signbit(new[2, 0])
    assert -dynamics.CONSERVATION_TOL < leftover[0] < 0.0
    # one 2e-10 above breaks conservation: the row is clipped all the same,
    # and the chunk's check (see the planted guards below) raises on the leftover
    new, leftover = update(np.diag([1.0 + 2e-10, 1.0]))
    assert new[2, 0] == 0.0 and leftover[0] < -dynamics.CONSERVATION_TOL


def random_weights(rng, n):
    """(N, N) weights whose rows mix every kind a run can form and some it
    cannot: identity rows, empty rows, dense row-stochastic rows, sparse pmf
    rows (self-weight plus equal shares) and Dirichlet rows, whose shares
    are amplified by 1 + theta of their neighbour and so sum above 1."""
    w = np.zeros((n, n))
    # kind 0: identity, 1: empty, 2: dense, 3: pmf, 4: Dirichlet
    for i, kind in enumerate(rng.integers(5, size=n)):
        if kind == 0:
            w[i, i] = 1.0
        elif kind == 2:
            w[i] = rng.dirichlet(np.ones(n))
        elif kind > 2:
            heard = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            alpha = rng.random()
            w[i, heard] = (1.0 - alpha) / len(heard)
            if kind == 4:
                w[i, heard] *= 1.0 + rng.random(len(heard))
            w[i, i] = alpha
    return w


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(1, MAX_FRAME_SIZE), full=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1024, m=MAX_FRAME_SIZE, full=True, seed=1)
@example(n=1024, m=3, full=False, seed=2)
def test_update_forms_the_bits_of_the_dense_product(n, m, full, seed):
    # two states laid out as a run's stack rows: M singleton rows of N agents,
    # then, for Dirichlet, the full-frame row.  At every frame size the rows
    # have the bits of np.matmul on the same operands, and up to seven
    # singletons those of the oracle's product and row sums too
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n)
    k = m + full
    blocks = np.full((2, k * n), np.nan).reshape(2, k, n)
    blocks[0] = rng.dirichlet(np.ones(k), size=n).T
    leftover = np.full(n, np.nan)
    x = blocks[0, :m]
    _update(w.T, x, blocks[1, :m], blocks[1, m] if full else None,
            leftover if full else None)
    product = np.matmul(x, w.T)
    assert blocks[1, :m].tobytes() == product.tobytes()
    want = 1.0 - np.add.reduce(product, axis=0)
    if m <= 7:
        dense = w @ np.asfortranarray(x.T)  # the oracle's product
        assert product.tobytes() == dense.T.tobytes()
        assert want.tobytes() == (1.0 - dense.sum(axis=1)).tobytes()
    if full:
        assert leftover.tobytes() == want.tobytes()
        assert blocks[1, m].tobytes() == np.maximum(want, 0.0).tobytes()

def two_still_agents(gap):
    """Two cautious Bayesian agents (they never move), agent 1's bound set
    ``gap`` above their computed distance."""
    frame = Frame(2)
    a = BodyOfEvidence(frame, np.array([0.0, 0.2, 0.8, 0.0]))
    b = BodyOfEvidence(frame, np.array([0.0, 0.5, 0.5, 0.0]))
    d = float(pairwise_jousselme(np.vstack([a.masses, b.masses]), 2)[0, 1])
    graph = DirectedGraph.from_mutual_pairs(2, [(1, 2)])
    specs = (AgentSpec(Strategy.CAUTIOUS, 0.5, d + gap, a),
             AgentSpec(Strategy.CAUTIOUS, 0.5, 1.0, b))
    return state_from_specs(frame, graph, specs)


def agent_near_its_bound(gap):
    """Agent 1 hears agent 3, who holds the same opinion: its weight row is not
    the identity, yet it never moves.  Its bound on agent 2 sits ``gap`` below
    their computed distance.  Agents 2 and 3 are cautious."""
    frame = Frame(2)
    a = BodyOfEvidence(frame, np.array([0.0, 0.2, 0.8, 0.0]))
    b = BodyOfEvidence(frame, np.array([0.0, 0.5, 0.5, 0.0]))
    d = float(pairwise_jousselme(np.vstack([a.masses, b.masses]), 2)[0, 1])
    graph = DirectedGraph.from_mutual_pairs(3, [(1, 2), (1, 3)])
    specs = (AgentSpec(Strategy.RECEPTIVE, 0.5, d - gap, a),
             AgentSpec(Strategy.CAUTIOUS, 0.5, 1.0, b),
             AgentSpec(Strategy.CAUTIOUS, 0.5, 1.0, a))
    return state_from_specs(frame, graph, specs)


def test_edge_near_its_bound_forces_reprune():
    near = ProfileRun(agent_near_its_bound(gap=distance_error(2) / 2), "pmf")
    far = ProfileRun(agent_near_its_bound(gap=1e-3), "pmf")
    for run in (near, far):
        for _ in range(20):
            assert (1, 3) in run.edges() and (1, 2) not in run.edges()
            run.advance(1)
    assert near.prunes == 20  # within 2 * distance_error(K) of the bound: never skipped
    assert far.prunes == 1    # certified once, nobody moves


def step_with_general_loop(run, state, steps):
    """Step ``run`` beside the per-agent reference loop: same kept edges and masses."""
    for _ in range(steps):
        view = pruned(state)
        assert run.edges() == view_edges(view)
        run.advance(1)
        state = reference_step(state, view.kept)
        assert run.masses().tobytes() == state.masses.tobytes()


def test_general_edge_near_its_bound_forces_reprune():
    # the dense M = 2 table has K = 4 columns; every general agent counts as moving
    near_state = agent_near_its_bound(distance_error(4) / 2)
    far_state = agent_near_its_bound(1e-3)
    near, far = ProfileRun(near_state, "general"), ProfileRun(far_state, "general")
    for run, state in ((near, near_state), (far, far_state)):
        step_with_general_loop(run, state, 20)
        assert (1, 3) in run.edges() and (1, 2) not in run.edges()
    assert near.prunes == 21  # every step, and once more for the last kept edges
    assert far.prunes < 20


def test_general_run_far_from_its_bounds_skips_prunings():
    scenario = load_scenario("ds7-oneleader", seed=1)
    for eps in (0.2, 0.5, 1.0):
        run = ProfileRun(scenario.state, "general", eps)
        step_with_general_loop(run, at_bound(scenario.state, eps), 60)
        assert run.prunes < 60


def test_full_frame_has_the_largest_jaccard_row_sum():
    # the general engine's certificate spends per step by this row sum
    for size in range(1, 9):
        assert jaccard_matrix(size).sum(axis=1).max() == pytest.approx(2.0 ** (size - 1))


def test_edge_between_agents_that_cannot_move_needs_no_reprune():
    run = ProfileRun(two_still_agents(gap=distance_error(2) / 2), "pmf")
    for _ in range(20):
        assert (1, 2) in run.edges()
        run.advance(1)
    assert run.prunes == 1  # both rows are the identity: the distance cannot change


def test_kernel_rejects_the_wrong_class():
    frame = Frame(2)
    m = np.array([0.0, 0.5, 0.0, 0.5])  # Dirichlet, not Bayesian
    graph = DirectedGraph.from_mutual_pairs(2, [(1, 2)])
    spec = AgentSpec(Strategy.RECEPTIVE, 0.5, 1.0, BodyOfEvidence(frame, m))
    state = state_from_specs(frame, graph, (spec, spec))
    with pytest.raises(EngineMismatch):
        ProfileRun(state, "pmf")
    run = ProfileRun(state, "dirichlet")
    run.advance(1)
    assert run.edges() == graph.edges


# ---------------------------------------------------------------------------
# Chunked stepping against single steps
# ---------------------------------------------------------------------------

def single_step_run(state, engine, limit, step_tol, persistence):
    """The convergence rule over one-step ``advance`` calls, so no product is
    ever formed ahead: ``advance(1, step_tol, 1)`` converges iff the step's
    largest mass change was below ``step_tol``."""
    run = ProfileRun(state, engine)
    steps = quiet = 0
    while steps < limit:
        _, still = run.advance(1, step_tol, 1)
        steps += 1
        quiet = quiet + 1 if still else 0
        if quiet >= persistence:
            return run, steps, True
    return run, steps, False


def assert_advance_matches_single_steps(state, engine, limit=1500, step_tol=1e-10,
                                        persistence=10):
    """``advance`` against single steps (prunings and plans too) and against
    the oracle loop."""
    run = ProfileRun(state, engine)
    steps, converged = run.advance(limit, step_tol, persistence)
    one, one_steps, one_converged = single_step_run(state, engine, limit, step_tol, persistence)
    assert (steps, converged) == (one_steps, one_converged)
    assert run.masses().tobytes() == one.masses().tobytes()
    assert (run.prunes, run.rebuilds) == (one.prunes, one.rebuilds)
    assert one.discarded == 0
    if one._plan is not None:  # a chunk the walk left early leaves its state's weights
        assert run._plan.matrix.tobytes() == one._plan.matrix.tobytes()
    ref, ref_converged, ref_edges = reference_run(state, engine, limit, step_tol, persistence)
    assert (len(ref_edges), ref_converged) == (steps, converged)
    assert ref.masses.tobytes() == run.masses().tobytes()
    return run, one, steps, converged


def test_chunks_match_single_steps_on_random_networks():
    for engine, seed in (("pmf", 4111), ("dirichlet", 4117)):
        rng = np.random.default_rng(seed)
        discarded = 0
        for _ in range(6):
            frame, graph, specs = random_network(rng, engine, int(rng.integers(12, 25)),
                                                 int(rng.integers(2, 5)))
            scenario = scenario_of(frame, graph, specs, engine)
            for eps in (None, 0.0, 0.37, 1.0):  # None keeps the per-agent bounds
                state = at_bound(scenario.state, eps)
                run, _, steps, converged = assert_advance_matches_single_steps(state, engine)
                discarded += run.discarded
                result = run_simulation(scenario, eps)
                assert (result.iterations, result.converged) == (steps, converged)
                assert result.final_masses.tobytes() == run.masses().tobytes()
        assert discarded > 0  # some chunks did look past a kept-set change


def test_chunks_drop_the_products_past_a_late_kept_set_change():
    for engine, theta in (("pmf", 0.0), ("dirichlet", 0.1)):
        frame, graph, specs = line_state(alpha2=0.95, theta=theta)
        state = state_from_specs(frame, graph, specs)
        run, one, steps, _ = assert_advance_matches_single_steps(state, engine)
        assert run.rebuilds == one.rebuilds > 1  # the kept set changed mid-run
        assert run.discarded > 0                 # inside a chunk: its later products went
        # a recorded trajectory holds every state, the last one included
        trajectory = run_simulation(scenario_of(frame, graph, specs, engine),
                                    record_trace=True).trajectory
        assert len(trajectory) == steps + 1
        one = ProfileRun(state, engine)
        for masses in trajectory[:-1]:
            assert masses.tobytes() == one.masses().tobytes()
            one.advance(1)
        assert trajectory[-1].tobytes() == one.masses().tobytes()


@pytest.mark.parametrize("limit", [0, 1, 2, 37, 100])
def test_iteration_cap_cuts_a_chunk_short(limit):
    frame, graph, specs = line_state(alpha2=0.95)
    state = state_from_specs(frame, graph, specs)
    run, _, _, _ = assert_advance_matches_single_steps(state, "pmf", limit=limit)
    scenario = scenario_of(frame, graph, specs, "pmf", max_iterations=limit)
    result = run_simulation(scenario)
    assert (result.iterations, result.converged) == (limit, False)
    assert result.final_masses.tobytes() == run.masses().tobytes()


@pytest.mark.parametrize("persistence", [1, 2, 10])
def test_chunks_match_single_steps_at_any_persistence(persistence):
    rng = np.random.default_rng(4112)
    for _ in range(3):
        for engine in ("pmf", "dirichlet"):
            frame, graph, specs = random_network(rng, engine, 16, 3)
            state = at_bound(state_from_specs(frame, graph, specs), 0.37)
            for step_tol in (1e-10, 1e-4):
                assert_advance_matches_single_steps(state, engine, step_tol=step_tol,
                                                    persistence=persistence)


def test_budget_that_runs_out_on_the_converging_step_prunes_no_more():
    # agent 1 sits within 2 distance_error(K) of its bound: every step spends
    # the budget, and nobody moves, so the run converges after 10 quiet steps
    run, one, _, _ = assert_advance_matches_single_steps(
        agent_near_its_bound(distance_error(2) / 2), "pmf")
    assert run._stale and one._stale  # the last step spent the budget too
    assert run.prunes == one.prunes == 10


@pytest.mark.parametrize("engine", ["dirichlet", "general"])
def test_state_dependent_weights_step_one_at_a_time(engine, monkeypatch):
    # a general run forms its own terms and takes its steps one by one; a
    # Dirichlet chunk refills its weights at every state it forms
    calls = []
    method = "_general_step" if engine == "general" else "_products"
    form = getattr(ProfileRun, method)
    monkeypatch.setattr(ProfileRun, method,
                        lambda run, *args: calls.append(run) or form(run, *args))
    rng = np.random.default_rng(4113)
    for _ in range(3):
        frame, graph, specs = random_network(rng, "dirichlet", 10, 2)
        state = at_bound(state_from_specs(frame, graph, specs), 0.37)
        run, _, steps, _ = assert_advance_matches_single_steps(state, engine, limit=300)
        if engine == "general":
            assert run.discarded == 0 and calls.count(run) == steps
        else:
            assert calls.count(run) < steps


PLANTED = -0.5  # the full-frame mass a planted product leaves


def plant_guard(monkeypatch, masses, frame):
    """Make the Dirichlet product from the state with the dense ``masses``
    fail its guard; return the list that grows each time it fires."""
    cols = [1 << p for p in range(frame.size)]
    target = masses[:, cols].T.tobytes()  # the (M, N) singleton rows
    update, fired = dynamics._update, []

    def guarded(wt, x, out, full, leftover):
        update(wt, x, out, full, leftover)
        if x.tobytes() == target:
            fired.append(1)
            leftover[0] = PLANTED

    monkeypatch.setattr(dynamics, "_update", guarded)
    return fired


def test_guard_past_convergence_leaves_the_run_alone(monkeypatch):
    # at this tolerance the runs' last chunk forms the product after the
    # converging step; its guard must not fire on a step never taken
    for persistence in (1, 10):
        scenario = replace(load_scenario("fig3a-dirichlet"), step_tol=1e-6,
                           persistence=persistence)
        for eps in (0.05, 0.3):
            plain = run_simulation(scenario, eps, record_trace=True)
            assert plain.converged
            assert all(m.tobytes() != plain.final_masses.tobytes()
                       for m in plain.trajectory[:-1])  # the planted state is the last
            fired = plant_guard(monkeypatch, plain.final_masses, scenario.frame)
            planted = run_simulation(scenario, eps, record_trace=True)
            monkeypatch.undo()
            assert len(fired) == 1
            assert (planted.iterations, planted.converged) == (plain.iterations, True)
            assert planted.trajectory.tobytes() == plain.trajectory.tobytes()
            # the run converged inside a chunk: single steps leave the same
            # state and weights
            run, _, _, _ = assert_advance_matches_single_steps(
                at_bound(scenario.state, eps), "dirichlet", step_tol=1e-6,
                persistence=persistence)
            assert run.discarded > 0


def test_guard_inside_a_chunk_raises_when_its_step_is_taken(monkeypatch):
    scenario = load_scenario("fig4a-dirichlet")
    states = run_simulation(scenario, 0.5, record_trace=True).trajectory
    recorded = run_simulation(scenario, 0.5, record_matrices=True).matrices
    k = 20
    assert len(states) > 2 * k
    fired = plant_guard(monkeypatch, states[k - 1], scenario.frame)
    formed, guarded = [], dynamics._update
    monkeypatch.setattr(dynamics, "_update", lambda wt, x, out, full, leftover: formed.append(1)
                        or guarded(wt, x, out, full, leftover))
    run = ProfileRun(scenario.state, "dirichlet", 0.5)
    message = f"mass conservation violated by {np.float64(PLANTED)!r}"
    with pytest.raises(NotDirichlet, match=f"^{re.escape(message)}$"):
        run.advance(scenario.max_iterations, scenario.step_tol, scenario.persistence)
    assert run.masses().tobytes() == states[k - 1].tobytes()
    # the weights are those of the state kept, as a single step would leave them
    assert run.weights().tobytes() == recorded[k - 1].tobytes()
    # it fired inside a chunk first, which was cut before it, then as the
    # first product of the next chunk, which raised
    assert len(fired) == 2
    # each product formed was taken or counted as discarded, those past the cut too
    assert len(formed) == (k - 1) + run.discarded


def assert_recording_leaves_stepping_alone(state, engine, limit=1500, step_tol=1e-10,
                                           persistence=10):
    """``advance`` with every record list against ``advance`` with none: the
    same steps, prunings, plans and discarded products, and each recorded
    step's kept edges, weights and masses those of the single step it took."""
    plain = ProfileRun(state, engine)
    outcome = plain.advance(limit, step_tol, persistence)
    run, edges, matrices, frames = ProfileRun(state, engine), [], [], []
    assert run.advance(limit, step_tol, persistence, edges, matrices, frames) == outcome
    assert (run.prunes, run.rebuilds, run.discarded) == \
        (plain.prunes, plain.rebuilds, plain.discarded)
    assert run.masses().tobytes() == plain.masses().tobytes()
    assert len(edges) == len(matrices) == len(frames) == outcome[0]
    one = ProfileRun(state, engine)
    for kept, weights, masses in zip(edges, matrices, frames):
        assert kept == one.edges() and weights.tobytes() == one.weights().tobytes()
        assert masses.tobytes() == one.masses().tobytes()
        one.advance(1)
    return run.discarded


def test_recording_does_not_change_stepping():
    for engine, theta, seed in (("pmf", 0.0, 4115), ("dirichlet", 0.1, 4118)):
        rng = np.random.default_rng(seed)
        states = [state_from_specs(*line_state(alpha2=0.95, theta=theta))]
        for _ in range(4):
            frame, graph, specs = random_network(rng, engine, int(rng.integers(12, 25)),
                                                 int(rng.integers(2, 5)))
            state = state_from_specs(frame, graph, specs)
            states += [state, at_bound(state, 0.37)]
        discarded = sum(assert_recording_leaves_stepping_alone(state, engine)
                        for state in states)
        assert discarded > 0  # the recorded runs formed products ahead too


def test_chunks_end_near_the_predicted_convergence_step():
    # a chunk capped where its falling changes predict convergence forms
    # almost no product that the run never takes
    for engine in ("pmf", "dirichlet"):
        steps = discarded = 0
        for figure in ("fig3a", "fig4a", "fig5a", "fig6a"):
            scenario = load_scenario(f"{figure}-{engine}")
            for eps in sweep_grid(0.0, 1.0, 0.05):
                run = ProfileRun(scenario.state, engine, eps)
                steps += run.advance(scenario.max_iterations, scenario.step_tol,
                                     scenario.persistence)[0]
                discarded += run.discarded
        assert discarded < 0.01 * steps


# ---------------------------------------------------------------------------
# The weight builder against the receive-matrix formulas
# ---------------------------------------------------------------------------

def random_weight_inputs(rng, n):
    kept = rng.random((n, n)) < rng.uniform(0.0, 0.7)
    kept[np.arange(n), np.arange(n)] = False
    kept[rng.random(n) < 0.2] = False  # isolated agents
    kind = rng.integers(4)
    alphas = (np.full(n, (0.0, 0.5, 1.0)[kind]) if kind < 3 else rng.random(n))
    receptive = rng.random(n) < 0.7
    theta = rng.random(n) * (rng.random(n) < 0.7)  # some full-frame masses are 0
    return kept, alphas, receptive, theta


def test_weight_builder_matches_the_receive_matrix_formulas():
    rng = np.random.default_rng(4103)
    for case in range(400):
        n = 1 + case % 30
        kept, alphas, receptive, theta = random_weight_inputs(rng, n)
        flat = np.flatnonzero(kept)
        plan = _WeightPlan(flat // n, flat, alphas, receptive)
        assert plan.matrix.tobytes() == oracle_pmf_matrix(kept, alphas, receptive).tobytes()
        plan.fill(theta)
        assert plan.matrix.tobytes() == \
            oracle_dirichlet_weights(kept, alphas, receptive, theta).tobytes()
        plan.fill(theta[::-1].copy())  # a refill leaves no trace of the last one
        assert plan.matrix.tobytes() == \
            oracle_dirichlet_weights(kept, alphas, receptive, theta[::-1]).tobytes()


@pytest.mark.parametrize("engine", ["pmf", "dirichlet"])
def test_confidence_matrices_match_the_receive_matrix_formulas(engine):
    rng = np.random.default_rng(4104 if engine == "pmf" else 4105)
    confidence = CONFIDENCE[engine]
    for case in range(60):
        size = 1 if case % 4 == 0 else int(rng.integers(2, 5))  # one-singleton frames too
        frame, graph, specs = random_network(rng, engine if size > 1 else "pmf",
                                             int(rng.integers(3, 20)), size)
        state = at_bound(state_from_specs(frame, graph, specs),
                         float(rng.uniform(0.0, 1.0)))
        got = confidence(state)
        want = oracle_weights(state, engine, pruned(state).kept)
        assert got.row_stochastic == (engine == "pmf" or size == 1)
        assert not got.matrix.flags.writeable
        assert got.matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize("engine", ["pmf", "dirichlet"])
def test_profile_run_weights_are_read_only(engine):
    rng = np.random.default_rng(4106)
    frame, graph, specs = random_network(rng, engine, 8, 3)
    run = ProfileRun(state_from_specs(frame, graph, specs), engine)
    for _ in range(3):
        assert not run.weights().flags.writeable
        run.advance(1)


# ---------------------------------------------------------------------------
# The one-step views against the oracle
# ---------------------------------------------------------------------------

def twins_at_their_bound(engine):
    """Agents 1 and 2 hold one opinion and hear each other at bound 0: their
    distance is 0, so each of their edges sits exactly at its bound (kept is
    ``<=``).  Agent 3, cautious, holds another opinion and hears agent 1."""
    frame = Frame(2)
    twin = [0.0, 0.3, 0.7, 0.0] if engine == "pmf" else [0.0, 0.3, 0.5, 0.2]
    other = [0.0, 0.6, 0.4, 0.0] if engine == "pmf" else [0.0, 0.6, 0.2, 0.2]
    graph = DirectedGraph.from_mutual_pairs(3, [(1, 2), (1, 3)])
    specs = (AgentSpec(Strategy.RECEPTIVE, 0.4, 0.0, BodyOfEvidence(frame, np.array(twin))),
             AgentSpec(Strategy.RECEPTIVE, 0.4, 0.0, BodyOfEvidence(frame, np.array(twin))),
             AgentSpec(Strategy.CAUTIOUS, 0.5, 0.0, BodyOfEvidence(frame, np.array(other))))
    return state_from_specs(frame, graph, specs)


@pytest.mark.parametrize("engine", sorted(VIEWS))
def test_step_views_match_the_oracle(engine):
    rng = np.random.default_rng(4114)
    states = [twins_at_their_bound(engine)]
    assert view_edges(pruned(states[0])) == {(1, 2), (2, 1)}
    for eps in (None, 0.0, 0.3, 0.37, 1.0):  # None keeps the per-agent bounds
        for size in (1, 2, 3, 4):
            if engine == "general":  # its networks draw their own frame size
                state = random_general_network(rng, 1.0 if eps is None else eps)
            else:
                frame, graph, specs = random_network(rng, engine if size > 1 else "pmf",
                                                     int(rng.integers(3, 16)), size)
                state = at_bound(state_from_specs(frame, graph, specs), eps)
            states.append(state)
    for state in states:
        for _ in range(20):
            kept = pruned(state).kept
            want = oracle_step(state, engine, kept)
            got = VIEWS[engine](state)
            assert got.masses.tobytes() == want.masses.tobytes()
            if engine in CONFIDENCE:
                weights = CONFIDENCE[engine](state).matrix
                assert weights.tobytes() == oracle_weights(state, engine, kept).tobytes()
            state = want
