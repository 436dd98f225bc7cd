"""Differential tests: the array-form general engine against the per-agent loop.

``reference_step`` below is the plain rule written agent by agent, with the
weights kept in a dict keyed by (neighbor, conditioning set) in neighbor,
then subset order, and each conditional formed on first use.  The engine
must reproduce it bit for bit: masses, kept edges, iteration counts.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from ds_consensus import dst, dynamics
from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.dynamics import AgentSpec, ProfileRun, Strategy, dirichlet_step, general_step
from ds_consensus.errors import EngineMismatch, NotABeliefFunction, NotDirichlet
from ds_consensus.graph import DirectedGraph
from ds_consensus.runner import run_simulation
from ds_consensus.scenario import Scenario, assets_dir, load_scenario, scenario_from_dict

from conftest import (at_bound, belief_table, mass_table, pruned, state_from_specs,
                      theta_weight_matrix, view_edges)


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


def fh_conditional(bl, a):
    """Fagin-Halpern conditional belief Bl(b | a) of every subset b, from one
    opinion's belief table: Bl(a & b) / (Bl(a & b) + Pl(a & ~b)), and 0
    where that denominator is not positive."""
    k = bl.shape[-1]
    full, bs = k - 1, np.arange(k)
    pl = 1.0 - bl[::-1]  # Pl(x) = 1 - Bl(full ^ x)
    num = bl[a & bs]
    den = num + pl[a & (full ^ bs)]
    out = np.zeros(k)
    np.divide(num, den, out=out, where=den > 0.0)
    return out


def reference_step(state, kept):
    n = state.graph.n
    bl_rows = belief_table(state.masses)
    cache = {}

    def conditional(j, a):
        if (j, a) not in cache:
            cache[(j, a)] = fh_conditional(bl_rows[j - 1], a)
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
    new_masses = mass_table(new_bl)
    if new_masses.min() < -dst.ITERATED_TOL:
        raise NotABeliefFunction("update produced a negative mass")
    np.clip(new_masses, 0.0, None, out=new_masses)
    new_masses[:, 0] = 0.0
    new_masses /= new_masses.sum(axis=1, keepdims=True)
    new_masses[~changed] = state.masses[~changed]
    return replace(state, masses=new_masses)


def reference_theta_matrix(state, kept):
    n = state.graph.n
    bl_rows = belief_table(state.masses)
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
    return state_from_specs(frame, DirectedGraph.from_mutual_pairs(n, pairs), specs)


@pytest.mark.parametrize("eps", [0.0, 0.37, 1.0])
def test_step_matches_reference(eps):
    rng = np.random.default_rng(int(eps * 100) + 5)
    for _ in range(60):
        state = random_network(rng, eps)
        for _ in range(4):
            view = pruned(state)
            want = reference_step(state, view.kept)
            got = general_step(state)
            assert got.masses.tobytes() == want.masses.tobytes()
            assert np.array_equal(theta_weight_matrix(state, view),
                                  reference_theta_matrix(state, view.kept))
            state = got


@pytest.mark.parametrize("eps", [0.0, 0.37, 1.0])
def test_run_matches_reference_loop(eps):
    rng = np.random.default_rng(int(eps * 100) + 11)
    for trial in range(25):
        state = random_network(rng, eps)
        scenario = Scenario(name=f"random-{trial}", state=state, engine="general",
                            max_iterations=int(rng.integers(1, 300)))
        run = run_simulation(scenario, record_trace=True)

        edges, quiet, steps, converged = [], 0, 0, False
        current = scenario.state
        while steps < scenario.max_iterations:
            view = pruned(current)
            edges.append(view_edges(view))
            new = reference_step(current, view.kept)
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
        view = pruned(state)
        want = reference_step(state, view.kept)
        assert general_step(state).masses.tobytes() == want.masses.tobytes()


def test_complement_beliefs_give_the_plausibilities():
    # the update reads Pl_j(a & ~b) as 1 - Bl_j at the complement's column
    rng = np.random.default_rng(17)
    for _ in range(40):
        state = random_network(rng, 1.0)
        bl = belief_table(state.masses)
        terms = dynamics._term_structure(*np.nonzero(pruned(state).kept), state.masses > 0.0,
                                         bl > 0.0, state.alphas, state.receptive)
        k = bl.shape[1]
        key = terms.num_at[:, -1]  # the pair (j, a) of each row, as j * k + a
        j, a = (key // k)[:, None], (key % k)[:, None]
        want = (1.0 - bl[:, ::-1])[j, a & ~np.arange(k)]  # Pl(x) = 1 - Bl(full ^ x)
        assert (1.0 - bl.take(terms.den_at)).tobytes() == want.tobytes()


def test_conditionals_keep_nothing_from_the_last_step():
    # the buffers of a term structure serve every step; a conditional whose
    # denominator is not positive is 0, whatever the last step left there
    state = at_bound(load_scenario("ds7-oneleader", seed=1).state, 1.0)
    bl = belief_table(state.masses)
    terms = dynamics._term_structure(*np.nonzero(pruned(state).kept), state.masses > 0.0,
                                     bl > 0.0, state.alphas, state.receptive)
    out = np.empty_like(bl)
    dynamics._general_update(state.masses, bl, terms, out, dst._lattice_steps(out))
    # next, every agent certain of singleton 1: given a set without it,
    # Bl(a & b) and Pl(a & ~b) are 0
    certain = np.zeros_like(bl)
    certain[:, 1] = 1.0
    bl = belief_table(certain)
    unformed = bl.take(terms.num_at) + (1.0 - bl.take(terms.den_at)) <= 0.0
    assert terms.cond[:-1][unformed].any()
    dynamics._general_update(state.masses, bl, terms, out, dst._lattice_steps(out))
    assert not terms.cond[:-1][unformed].any() and not terms.cond[-1].any()


def fail_every_step(engine, monkeypatch):
    """Make every later step of ``engine`` fail its guard once it has written
    the new state; return the error it raises."""
    if engine == "general":
        monkeypatch.setattr(dst, "ITERATED_TOL", -2.0)  # every update fails its check
        return NotABeliefFunction
    update = dynamics._update

    def guarded(wt, x, out, full, leftover):
        update(wt, x, out, full, leftover)
        leftover[0] = -1.0  # the chunk's conservation check fails on every product

    monkeypatch.setattr(dynamics, "_update", guarded)
    return NotDirichlet


def assert_run_buffers_do_not_alias(engine, monkeypatch):
    if engine == "general":
        scenario, eps, view = load_scenario("ds7-oneleader", seed=3), 0.5, general_step
        states, _, _ = reference_trajectory(scenario, eps)
    else:  # the reference steps a fresh run per state, to the run's step count
        scenario, eps, view = load_scenario("fig4a-dirichlet"), 0.5, dirichlet_step
        states = [at_bound(scenario.state, eps)]
        for _ in range(run_simulation(scenario, eps).iterations):
            states.append(view(states[-1]))
    result = run_simulation(scenario, eps, record_trace=True)
    assert len(result.trajectory) == len(states)
    for frame, state in zip(result.trajectory, states):
        assert frame.tobytes() == state.masses.tobytes()
    assert result.initial_masses.tobytes() == states[0].masses.tobytes()

    # a table taken from the run is never written by a later step
    run = ProfileRun(scenario.state, engine, eps)
    taken = []
    for _ in range(3):
        taken.append(run.masses())
        run.advance(1)
    for masses, state in zip(taken, states):
        assert masses.tobytes() == state.masses.tobytes()

    # a failed step leaves the last good state, and the run goes on from it
    error = fail_every_step(engine, monkeypatch)
    for _ in range(2):
        with pytest.raises(error):
            run.advance(1)
        assert run.masses().tobytes() == states[3].masses.tobytes()
    monkeypatch.undo()
    run.advance(1)
    assert run.masses().tobytes() == states[4].masses.tobytes()

    # a one-step view writes a fresh table and leaves its input alone
    state = states[5]
    before = state.masses.tobytes()
    first, second = view(state), view(state)
    assert first.masses.tobytes() == second.masses.tobytes() == states[6].masses.tobytes()
    assert state.masses.tobytes() == before


def test_run_buffers_do_not_alias(monkeypatch):
    # a general run keeps two rows and a Dirichlet run a chunk stack; each
    # step writes a row its state is not in
    for engine in ("general", "dirichlet"):
        assert_run_buffers_do_not_alias(engine, monkeypatch)


def test_general_run_cannot_record_matrices():
    # it has no confidence matrix: the first step fails, as weights() does
    scenario = load_scenario("table1-general")
    with pytest.raises(EngineMismatch):
        run_simulation(scenario, 0.3, record_matrices=True)
    with pytest.raises(EngineMismatch):
        ProfileRun(scenario.state, "general", 0.3).weights()
    idle = replace(scenario, max_iterations=0)
    assert run_simulation(idle, 0.3, record_matrices=True).matrices == ()


def test_run_state_is_read_only_and_tracks_edges():
    rng = np.random.default_rng(3)
    state = random_network(rng, 0.37)
    run = ProfileRun(state, "general")
    assert run.edges() == view_edges(pruned(state))
    run.advance(1)
    after = reference_step(state, pruned(state).kept)
    assert run.masses().tobytes() == after.masses.tobytes()
    assert not run.masses().flags.writeable
    assert run.edges() == view_edges(pruned(after))


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
    scenario = Scenario(name="m11", state=state_from_specs(frame, graph, specs),
                        engine="general", max_iterations=3)
    run = run_simulation(scenario, record_trace=True)
    state, edges = scenario.state, []
    for _ in range(3):
        view = pruned(state)
        edges.append(view_edges(view))
        state = reference_step(state, view.kept)
    assert run.final_masses.tobytes() == state.masses.tobytes()
    assert run.pruned_edges == tuple(edges)
    assert set() < edges[0] < graph.edges  # some edges pruned, some kept


# ---------------------------------------------------------------------------
# The cached term structure
# ---------------------------------------------------------------------------

def reference_trajectory(scenario, eps):
    """Every state of the reference loop, the final one included, with the
    kept edges of each step and whether the run converged."""
    states, edges, quiet = [at_bound(scenario.state, eps)], [], 0
    while len(edges) < scenario.max_iterations:
        current = states[-1]
        view = pruned(current)
        edges.append(view_edges(view))
        states.append(reference_step(current, view.kept))
        diff = float(np.max(np.abs(states[-1].masses - current.masses)))
        quiet = quiet + 1 if diff < scenario.step_tol else 0
        if quiet >= scenario.persistence:
            return states, edges, True
    return states, edges, False


def check_cached_run(scenario, eps=None):
    """Run the scenario against the reference loop, bit for bit, and check
    that the term structure is rebuilt exactly on the steps where its key
    (kept edges, grow-only support, positive-belief pattern) changes.
    Returns the reference states and each step's key."""
    states, edges, converged = reference_trajectory(scenario, eps)
    result = run_simulation(scenario, eps, record_trace=True)
    assert result.final_masses.tobytes() == states[-1].masses.tobytes()
    assert (result.iterations, result.converged) == (len(edges), converged)
    assert result.pruned_edges == tuple(edges)

    run = ProfileRun(scenario.state, "general", eps)
    keys, support = [], np.zeros_like(states[0].masses, dtype=bool)
    for state, kept in zip(states, edges):
        support = support | (state.masses > 0.0)
        keys.append((kept, support.tobytes(), (belief_table(state.masses) > 0.0).tobytes()))
        before = run.rebuilds
        run.advance(1)
        assert run.rebuilds - before == (len(keys) == 1 or keys[-1] != keys[-2])
    assert run.masses().tobytes() == states[-1].masses.tobytes()
    return states, keys


def directed_scenario(frame, edges, agents, max_iterations):
    """Agents given as (strategy, alpha, {subset mask: mass}), bound 1."""
    specs = []
    for strategy, alpha, masses in agents:
        m = np.zeros(frame.n_subsets)
        for mask, mass in masses.items():
            m[mask] = mass
        specs.append(AgentSpec(strategy, alpha, 1.0, BodyOfEvidence(frame, m)))
    graph = DirectedGraph.from_edges(len(specs), edges)
    return Scenario(name="directed", state=state_from_specs(frame, graph, specs),
                    engine="general", max_iterations=max_iterations)


def kept_set_changes():
    return load_scenario("ds7-noleader", seed=2), 0.2


def belief_pattern_flips():
    # agents 1 and 2 (alpha 0) swap their certain opinions every step; the
    # cautious agent 3 conditions agent 1 on {1} and on {2} in turn, so the
    # positive-belief pattern changes while supports and kept edges do not
    frame = Frame(2)
    agents = [(Strategy.RECEPTIVE, 0.0, {1: 1.0}), (Strategy.RECEPTIVE, 0.0, {2: 1.0}),
              (Strategy.CAUTIOUS, 0.5, {1: 0.5, 2: 0.5})]
    return directed_scenario(frame, [(1, 2), (2, 1), (3, 1)], agents, 12), None


def uncovered_cautious_agent():
    # step 0: cautious agent 1 ({1, 2}) conditions agent 2 ({1}) on {1, 2}
    # and becomes certain of {1}, while agent 2 adopts agent 3's {2}.  From
    # step 1 agent 1's mass lies only where agent 2 believes nothing, and its
    # support still holds {1, 2}: a term of mass 0, covered sum 0
    frame = Frame(2)
    agents = [(Strategy.CAUTIOUS, 0.0, {3: 1.0}), (Strategy.RECEPTIVE, 0.0, {1: 1.0}),
              (Strategy.RECEPTIVE, 0.5, {2: 1.0})]
    return directed_scenario(frame, [(1, 2), (2, 3)], agents, 8), None


def mass_flickers():
    return load_scenario("ds7-noleader", seed=13), 0.2


def changed(keys, part):
    return [a[part] != b[part] for a, b in zip(keys, keys[1:])]


def check_kept_set_changes(states, keys):
    assert any(changed(keys, 0))


def check_belief_pattern_flips(states, keys):
    only_beliefs = [b and not (k or s) for k, s, b in
                    zip(changed(keys, 0), changed(keys, 1), changed(keys, 2))]
    assert sum(only_beliefs) >= 5


def check_uncovered_cautious_agent(states, keys):
    first = states[1].masses
    assert first[0].tolist() == [0.0, 1.0, 0.0, 0.0] and first[1].tolist() == [0.0, 0.0, 1.0, 0.0]
    for state in states[1:]:  # agent 1 keeps its opinion from then on
        assert state.masses[0].tobytes() == first[0].tobytes()


def check_mass_flickers(states, keys):
    masses = np.stack([s.masses for s in states])
    tiny = (masses > 0.0) & (masses < 1e-15)
    flicker = tiny.any(axis=0) & (masses == 0.0).any(axis=0)
    assert flicker.any()


CASES = {"kept-set-changes": (kept_set_changes, check_kept_set_changes),
         "belief-pattern-flips": (belief_pattern_flips, check_belief_pattern_flips),
         "uncovered-cautious-agent": (uncovered_cautious_agent, check_uncovered_cautious_agent),
         "mass-flickers": (mass_flickers, check_mass_flickers)}


@pytest.mark.parametrize("block", [dynamics.TERM_BLOCK, 1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cached_terms_match_the_reference_loop(case, block, monkeypatch):
    monkeypatch.setattr(dynamics, "TERM_BLOCK", block)
    build, check = CASES[case]
    check(*check_cached_run(*build()))


def test_term_structure_is_rebuilt_far_less_often_than_steps():
    scenario = load_scenario("ds7-oneleader", seed=1)
    steps = run_simulation(scenario, 0.5).iterations
    run = ProfileRun(scenario.state, "general", 0.5)
    for _ in range(steps):
        run.advance(1)
    assert steps > 400 and run.rebuilds <= 5


def test_term_blocks_keep_the_bits_at_a_hundred_agents(monkeypatch):
    data = json.loads((assets_dir() / "er100-noleader.json").read_text())
    ds7 = json.loads((assets_dir() / "ds7-noleader.json").read_text())
    data["engine"] = "general"
    data["defaults"]["sample"] = ds7["agents"][0]["sample"]
    state = at_bound(scenario_from_dict(data, "er100-general", assets_dir(), seed=1).state, 0.5)
    view = pruned(state)
    default = general_step(state)
    depth = view.kept.sum(axis=1).max() * 7  # every agent holds mass on all 7 subsets
    assert depth * state.masses.size > dynamics.TERM_BLOCK  # more than one block
    monkeypatch.setattr(dynamics, "TERM_BLOCK", 1)
    assert general_step(state).masses.tobytes() == default.masses.tobytes()
