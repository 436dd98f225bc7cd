import numpy as np
import pytest

from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.dynamics import (ENGINES, AgentSpec, ConfidenceMatrix, NetworkState,
                                   ProfileRun, Strategy, dirichlet_confidence_matrix,
                                   dirichlet_step, general_step, pmf_confidence_matrix, pmf_step)
from ds_consensus.errors import EngineMismatch, InvalidScenario
from ds_consensus.graph import DirectedGraph
from ds_consensus.runner import run_simulation
from ds_consensus.scenario import Scenario, load_scenario

from conftest import (general_weights, pruned, random_bayesian_boe, random_dirichlet_boe,
                      random_general_boe, state_from_specs, theta_weight_matrix)

F3 = Frame(3)


def bayes(x, frame=F3):
    m = np.zeros(frame.n_subsets)
    m[1] = x
    m[2] = (1 - x) / 2
    m[4] = (1 - x) / 2
    return BodyOfEvidence(frame, m)


def state_of(boes, pairs, strategies=None, alpha=0.5, epsilon=1.0, frame=F3):
    n = len(boes)
    g = DirectedGraph.from_mutual_pairs(n, pairs)
    if strategies is None:
        strategies = [Strategy.RECEPTIVE] * n
    specs = tuple(AgentSpec(s, alpha, epsilon, b) for s, b in zip(strategies, boes))
    return state_from_specs(frame, g, specs)


def weights_of(st, view=None):
    """Self-weights (``alpha``) and conditional terms of one general step."""
    return general_weights(st, pruned(st) if view is None else view)


# ---------------------------------------------------------------------------
# update weights
# ---------------------------------------------------------------------------

def test_isolated_agent_self_preserves():
    st = state_of([bayes(0.2), bayes(0.9)], [(1, 2)], epsilon=0.0)
    w = weights_of(st)
    assert w.alpha[0] == 1.0 and not np.any(w.agent == 0)
    assert np.array_equal(general_step(st).masses, st.masses)


def test_receptive_single_certain_neighbor():
    certain = np.zeros(8)
    certain[1] = 1.0
    st = state_of([bayes(0.5), BodyOfEvidence(F3, certain)], [(1, 2)])
    w = weights_of(st)
    mine = w.agent == 0
    assert list(zip(w.neighbor[mine] + 1, w.subset[mine])) == [(2, 1)]
    assert w.beta[mine].tolist() == [pytest.approx(0.5)]


def test_weights_normalize(rng):
    frame = Frame(3)
    for strategies in ([Strategy.RECEPTIVE] * 4, [Strategy.CAUTIOUS] * 4,
                       [Strategy.RECEPTIVE, Strategy.CAUTIOUS] * 2):
        boes = [random_general_boe(frame, rng) for _ in range(4)]
        st = state_of(boes, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)],
                      strategies=list(strategies))
        w = weights_of(st)
        for i in range(4):
            total = w.alpha[i] + w.beta[w.agent == i].sum()
            assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# confidence matrices
# ---------------------------------------------------------------------------

def test_pmf_matrix_two_mutual_agents():
    st = state_of([bayes(0.4), bayes(0.6)], [(1, 2)])
    w = pmf_confidence_matrix(st)
    assert np.allclose(w.matrix, [[0.5, 0.5], [0.5, 0.5]])


def test_pmf_matrix_cautious_row_is_identity():
    st = state_of([bayes(0.4), bayes(0.6)], [(1, 2)],
                  strategies=[Strategy.CAUTIOUS, Strategy.RECEPTIVE])
    w = pmf_confidence_matrix(st)
    assert np.allclose(w.matrix[0], [1.0, 0.0])
    assert np.allclose(w.matrix.sum(axis=1), 1.0)


def test_pmf_matrix_requires_bayesian(rng):
    st = state_of([random_general_boe(F3, rng), bayes(0.5)], [(1, 2)])
    with pytest.raises(EngineMismatch):
        pmf_confidence_matrix(st)


def dirichlet(t1, t2, t3, theta, frame=F3):
    m = np.zeros(8)
    m[1], m[2], m[4], m[7] = t1, t2, t3, theta
    return BodyOfEvidence(frame, m)


def test_dirichlet_matrix_receptive_amplification():
    a = dirichlet(0.5, 0.2, 0.2, 0.1)
    b = dirichlet(0.3, 0.3, 0.2, 0.2)
    st = state_of([a, b], [(1, 2)])
    w = dirichlet_confidence_matrix(st)
    assert w.matrix[0, 0] == pytest.approx(0.5)
    assert w.matrix[0, 1] == pytest.approx(0.5 * 1.2)   # row sum 1.1 is legal
    assert w.matrix[1, 0] == pytest.approx(0.5 * 1.1)


def test_dirichlet_matrix_cautious_leak():
    a = dirichlet(0.5, 0.2, 0.2, 0.1)
    b = dirichlet(0.3, 0.3, 0.2, 0.2)
    st = state_of([a, b], [(1, 2)],
                  strategies=[Strategy.CAUTIOUS, Strategy.RECEPTIVE])
    w = dirichlet_confidence_matrix(st)
    assert w.matrix[0, 0] == pytest.approx(1.0)
    assert w.matrix[0, 1] == pytest.approx(0.5 * 0.1)


def test_dirichlet_matrix_degenerates_to_pmf():
    a, b = bayes(0.4), bayes(0.7)
    st = state_of([a, b], [(1, 2)])
    wd = dirichlet_confidence_matrix(st)
    wp = pmf_confidence_matrix(st)
    assert np.allclose(wd.matrix, wp.matrix)


def test_dirichlet_matrix_requires_dirichlet(rng):
    st = state_of([random_general_boe(F3, rng), bayes(0.5)], [(1, 2)])
    with pytest.raises(EngineMismatch):
        dirichlet_confidence_matrix(st)


def test_network_state_rejects_a_mismatched_table():
    st = state_of([bayes(0.4), bayes(0.7)], [(1, 2)])
    with pytest.raises(ValueError, match=r"^mass table must be \(2, 8\), got \(2, 4\)$"):
        NetworkState(F3, st.graph, st.masses[:, :4], st.alphas, st.bounds, st.receptive)
    with pytest.raises(ValueError, match="^need 2 agent specs, got 1$"):
        state_from_specs(F3, st.graph, st.specs[:1])
    with pytest.raises(ValueError, match=r"^need 2 bounds, got shape \(1,\)$"):
        NetworkState(F3, st.graph, st.masses, st.alphas, st.bounds[:1], st.receptive)
    with pytest.raises(ValueError, match=r"^alpha must be in \[0, 1\], got nan$"):
        NetworkState(F3, st.graph, st.masses, [0.5, np.nan], st.bounds, st.receptive)
    other = AgentSpec(Strategy.RECEPTIVE, 0.5, 1.0, BodyOfEvidence(Frame(2), np.eye(4)[1]))
    with pytest.raises(ValueError, match="^agent 2 opinion not on the shared frame$"):
        state_from_specs(F3, st.graph, (st.specs[0], other))


@pytest.mark.parametrize("engine", ENGINES)
def test_a_network_without_agents_is_rejected(engine):
    # the loader's graphs have at least one node; a hand-built state without
    # agents is a package error (exit 1), not a ZeroDivisionError in the run
    with pytest.raises(InvalidScenario, match="^a network needs at least one agent, got 0$"):
        ProfileRun(NetworkState(F3, DirectedGraph(0, [], []), np.zeros((0, 8)), [], [], []), engine)


def test_confidence_matrix_rows_must_sum_to_one():
    ConfidenceMatrix(np.array([[0.5, 0.6], [0.0, 1.0]]), row_stochastic=False)
    with pytest.raises(ValueError, match="^row sums deviate from 1 by "):
        ConfidenceMatrix(np.array([[0.5, 0.4], [0.0, 1.0]]), row_stochastic=True)


def test_unknown_engine_rejected_when_the_run_starts():
    s = load_scenario("fig3a-pmf")
    bogus = Scenario(s.name, s.state, engine="bogus")
    with pytest.raises(EngineMismatch, match="^unknown engine 'bogus'$"):
        run_simulation(bogus, 0.5)


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def test_pmf_step_two_agents_m2():
    frame = Frame(2)
    a = BodyOfEvidence(frame, np.array([0.0, 1.0, 0.0, 0.0]))
    b = BodyOfEvidence(frame, np.array([0.0, 0.0, 1.0, 0.0]))
    st = state_of([a, b], [(1, 2)], frame=frame)
    new = pmf_step(st)
    assert np.allclose(new.masses[:, [1, 2]], 0.5)


def test_cautious_pmf_agent_invariant_many_steps():
    st = state_of([bayes(0.31), bayes(0.62), bayes(0.87)],
                  [(1, 2), (2, 3), (1, 3)],
                  strategies=[Strategy.CAUTIOUS, Strategy.RECEPTIVE, Strategy.RECEPTIVE])
    first = st.masses[0].copy()
    for _ in range(100):
        st = pmf_step(st)
    assert np.array_equal(st.masses[0], first)  # identity row: bitwise stable


def test_dirichlet_step_conserves_mass(rng):
    frame = Frame(3)
    boes = [random_dirichlet_boe(frame, rng) for _ in range(5)]
    st = state_of(boes, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    for _ in range(50):
        st = dirichlet_step(st)
        assert np.max(np.abs(st.masses.sum(axis=1) - 1.0)) < 1e-10


def test_general_step_matches_pmf(rng):
    frame = Frame(3)
    for trial in range(30):
        boes = [random_bayesian_boe(frame, rng) for _ in range(5)]
        eps = float(rng.uniform(0.1, 1.0))
        strategies = [Strategy.RECEPTIVE if rng.random() < 0.7 else Strategy.CAUTIOUS
                      for _ in range(5)]
        st = state_of(boes, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 4)],
                      strategies=strategies, epsilon=eps)
        a = general_step(st)
        b = pmf_step(st)
        assert np.max(np.abs(a.masses - b.masses)) < 1e-10


def test_general_step_matches_dirichlet(rng):
    frame = Frame(3)
    for trial in range(30):
        boes = [random_dirichlet_boe(frame, rng) for _ in range(5)]
        eps = float(rng.uniform(0.1, 1.0))
        strategies = [Strategy.RECEPTIVE if rng.random() < 0.7 else Strategy.CAUTIOUS
                      for _ in range(5)]
        st = state_of(boes, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 4)],
                      strategies=strategies, epsilon=eps)
        a = general_step(st)
        b = dirichlet_step(st)
        assert np.max(np.abs(a.masses - b.masses)) < 1e-10


def test_general_step_preserves_dirichlet_class(rng):
    frame = Frame(3)
    boes = [random_dirichlet_boe(frame, rng) for _ in range(4)]
    st = state_of(boes, [(1, 2), (2, 3), (3, 4), (1, 4)])
    non_dirichlet = [0b011, 0b101, 0b110]
    for _ in range(30):
        st = general_step(st)
        assert np.max(np.abs(st.masses[:, non_dirichlet])) < 1e-12


def test_general_step_output_valid(rng):
    frame = Frame(3)
    for trial in range(20):
        boes = [random_general_boe(frame, rng) for _ in range(4)]
        st = state_of(boes, [(1, 2), (2, 3), (3, 4), (1, 4)],
                      epsilon=float(rng.uniform(0.2, 1.0)))
        st = general_step(st)
        assert np.max(np.abs(st.masses.sum(axis=1) - 1.0)) < 1e-10
        assert st.masses.min() >= 0.0
        assert np.all(st.masses[:, 0] == 0.0)


def test_theta_weight_matrix_rows(rng):
    frame = Frame(3)
    boes = [random_dirichlet_boe(frame, rng) for _ in range(3)]
    st = state_of(boes, [(1, 2), (2, 3)],
                  strategies=[Strategy.RECEPTIVE, Strategy.CAUTIOUS, Strategy.RECEPTIVE])
    gamma = theta_weight_matrix(st, pruned(st))
    theta = st.masses[:, 7]
    # receptive row: alpha + share * sum of neighbor theta masses
    assert gamma[0, 1] == pytest.approx(0.5 * theta[1])
    # cautious row: own theta mass spread over neighbors
    assert gamma[1, 0] == pytest.approx(0.25 * theta[1])
    assert gamma[1, 2] == pytest.approx(0.25 * theta[1])
