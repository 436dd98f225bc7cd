"""Differential tests: the array-form general engine against the per-agent loop.

``reference_step`` below is the plain rule written agent by agent, with the
weights kept in a dict keyed by (neighbor, conditioning set) in neighbor,
then subset order, and each conditional formed on first use.  The engine
must reproduce it bit for bit: masses, kept edges, iteration counts.
"""

import numpy as np
import pytest

from ds_consensus import dst, dynamics
from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.dynamics import (AgentSpec, NetworkState, ProfileRun, Strategy,
                                   general_step, theta_weight_matrix)
from ds_consensus.errors import NotABeliefFunction
from ds_consensus.graph import DirectedGraph
from ds_consensus.runner import run_simulation
from ds_consensus.scenario import Scenario


def reference_weights(i, state, kept, bl_rows):
    """Self-weight and {(j, a): beta} of agent i (1-based)."""
    spec = state.specs[i - 1]
    nbrs = [int(j) + 1 for j in np.nonzero(kept[i - 1])[0]]
    if not nbrs:
        return 1.0, {}
    beta = {}
    if spec.strategy is Strategy.RECEPTIVE:
        share = (1.0 - spec.alpha) / len(nbrs)
        for j in nbrs:
            mj = state.masses[j - 1]
            for a in np.nonzero(mj > 0.0)[0]:
                beta[(j, int(a))] = share * float(mj[a])
        return spec.alpha, beta
    mi = state.masses[i - 1]
    pairs = []
    covered = 0.0
    for j in nbrs:
        for a in np.nonzero(mi > 0.0)[0]:
            if bl_rows[j - 1, a] > 0.0:
                pairs.append((j, int(a)))
                covered += float(mi[a])
    if covered <= 0.0:
        return 1.0, {}
    mu = (1.0 - spec.alpha) / covered
    for j, a in pairs:
        beta[(j, a)] = mu * float(mi[a])
    return spec.alpha, beta


def reference_step(state, kept):
    n, k = state.masses.shape
    full = state.frame.full_set
    bs = np.arange(k)
    bl_rows = dst.belief_table(state.masses)
    pl_rows = dst.plausibility_table(bl_rows)
    cache = {}

    def conditional(j, a):
        if (j, a) not in cache:
            num = bl_rows[j - 1, a & bs]
            den = num + pl_rows[j - 1, a & (full ^ bs)]
            out = np.zeros(k)
            np.divide(num, den, out=out, where=den > 0.0)
            cache[(j, a)] = out
        return cache[(j, a)]

    new_bl = np.empty_like(bl_rows)
    changed = np.zeros(n, dtype=bool)
    for i in range(1, n + 1):
        alpha, beta = reference_weights(i, state, kept, bl_rows)
        if not beta:
            new_bl[i - 1] = bl_rows[i - 1]
            continue
        acc = alpha * bl_rows[i - 1]
        for (j, a), b in beta.items():
            acc = acc + b * conditional(j, a)
        new_bl[i - 1] = acc
        changed[i - 1] = True
    new_masses = dst.mass_table(new_bl)
    if new_masses.min() < -dst.ITERATED_TOL:
        raise NotABeliefFunction("update produced a negative mass")
    np.clip(new_masses, 0.0, None, out=new_masses)
    new_masses[:, 0] = 0.0
    new_masses /= new_masses.sum(axis=1, keepdims=True)
    new_masses[~changed] = state.masses[~changed]
    return state.with_masses(new_masses)


def reference_theta_matrix(state, kept):
    n = state.graph.n
    bl_rows = dst.belief_table(state.masses)
    gamma = np.zeros((n, n))
    for i in range(1, n + 1):
        alpha, beta = reference_weights(i, state, kept, bl_rows)
        gamma[i - 1, i - 1] = alpha
        for (j, a), b in beta.items():
            if a == state.frame.full_set:
                gamma[i - 1, j - 1] += b
    return gamma


def random_masses(frame, rng):
    """Mass on a random set of subsets; sometimes Bayesian or Dirichlet."""
    kind = rng.integers(4)
    if kind == 0:
        cols = [1 << p for p in range(frame.size)]
    elif kind == 1:
        cols = sorted({1 << p for p in range(frame.size)} | {frame.full_set})
    else:
        cols = [a for a in range(1, frame.n_subsets) if rng.random() < 0.6]
        cols = cols or [int(rng.integers(1, frame.n_subsets))]
    m = np.zeros(frame.n_subsets)
    m[cols] = rng.gamma(1.0, size=len(cols)) + 1e-6
    return m / m.sum()


def random_network(rng, eps):
    """Random graph with isolated agents, mixed strategies and self-weights."""
    frame = Frame(int(rng.integers(1, 5)))
    n = int(rng.integers(2, 10))
    linked = n - int(rng.integers(0, 3))  # the last agents may stay isolated
    pairs = [(i, j) for i in range(1, linked + 1) for j in range(i + 1, linked + 1)
             if rng.random() < 0.5]
    rows = [random_masses(frame, rng) for _ in range(n)]
    for i in range(1, n):  # a few agents start from a neighbor's opinion
        if rng.random() < 0.15:
            rows[i] = rows[i - 1]
    specs = []
    for m in rows:
        strategy = Strategy.CAUTIOUS if rng.random() < 0.35 else Strategy.RECEPTIVE
        alpha = float(rng.choice([0.0, 1.0, 0.5, rng.uniform()]))
        specs.append(AgentSpec(strategy, alpha, eps, BodyOfEvidence(frame, m)))
    return NetworkState.from_specs(frame, DirectedGraph.from_mutual_pairs(n, pairs), specs)


@pytest.mark.parametrize("eps", [0.0, 0.37, 1.0])
def test_step_matches_reference(eps):
    rng = np.random.default_rng(int(eps * 100) + 5)
    for _ in range(60):
        state = random_network(rng, eps)
        for _ in range(4):
            pruned = state.pruned()
            want = reference_step(state, pruned.kept)
            got = general_step(state, pruned)
            assert got.masses.tobytes() == want.masses.tobytes()
            assert np.array_equal(theta_weight_matrix(state, pruned),
                                  reference_theta_matrix(state, pruned.kept))
            state = got


@pytest.mark.parametrize("eps", [0.0, 0.37, 1.0])
def test_run_matches_reference_loop(eps):
    rng = np.random.default_rng(int(eps * 100) + 11)
    for trial in range(25):
        state = random_network(rng, eps)
        scenario = Scenario(name=f"random-{trial}", frame=state.frame, graph=state.graph,
                            agents=state.specs, engine="general",
                            max_iterations=int(rng.integers(1, 300)))
        run = run_simulation(scenario, record_edges=True)

        edges, quiet, steps, converged = [], 0, 0, False
        current = scenario.initial_state()
        while steps < scenario.max_iterations:
            pruned = current.pruned()
            edges.append(pruned.edges)
            new = reference_step(current, pruned.kept)
            diff = float(np.max(np.abs(new.masses - current.masses)))
            current = new
            steps += 1
            quiet = quiet + 1 if diff < scenario.step_tol else 0
            if quiet >= scenario.persistence:
                converged = True
                break
        assert run.final_masses.tobytes() == current.masses.tobytes()
        assert (run.iterations, run.converged) == (steps, converged)
        assert run.pruned_edges == tuple(edges)


def test_term_blocks_keep_the_summation_order(monkeypatch):
    # one slot per block: the running sum is carried from block to block
    monkeypatch.setattr(dynamics, "TERM_BLOCK", 1)
    rng = np.random.default_rng(29)
    for _ in range(30):
        state = random_network(rng, 1.0)
        pruned = state.pruned()
        want = reference_step(state, pruned.kept)
        assert general_step(state, pruned).masses.tobytes() == want.masses.tobytes()


def test_run_state_is_read_only_and_tracks_edges():
    rng = np.random.default_rng(3)
    state = random_network(rng, 0.37)
    run = ProfileRun(state, "general")
    assert run.edges() == state.pruned().edges
    run.step()
    after = reference_step(state, state.pruned().kept)
    assert run.masses().tobytes() == after.masses.tobytes()
    assert not run.masses().flags.writeable
    assert run.edges() == after.pruned().edges


def test_run_above_the_dense_jaccard_limit_matches_the_step_loop():
    # at M = 11 distances use only the columns in use, and the certificate
    # its error bound for K = 2**11 columns
    rng = np.random.default_rng(41)
    frame = Frame(11)
    specs = []
    for eps in (0.22, 0.2, 0.26, 1.0):
        m = np.zeros(frame.n_subsets)
        m[rng.choice(np.arange(1, frame.n_subsets), size=20, replace=False)] = rng.random(20)
        specs.append(AgentSpec(Strategy.RECEPTIVE, 0.5, eps, BodyOfEvidence(frame, m / m.sum())))
    graph = DirectedGraph.from_mutual_pairs(4, [(1, 2), (1, 3), (2, 3), (3, 4), (1, 4)])
    scenario = Scenario(name="m11", frame=frame, graph=graph, agents=tuple(specs),
                        engine="general", max_iterations=3)
    run = run_simulation(scenario, record_edges=True)
    state, edges = scenario.initial_state(), []
    for _ in range(3):
        pruned = state.pruned()
        edges.append(pruned.edges)
        state = general_step(state, pruned)
    assert run.final_masses.tobytes() == state.masses.tobytes()
    assert run.pruned_edges == tuple(edges)
    assert set() < edges[0] < graph.edges  # some edges pruned, some kept
