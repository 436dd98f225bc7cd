"""Property-based invariants for the evidence algebra and the update engines."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.dynamics import AgentSpec, Strategy, general_step, pmf_step
from ds_consensus.graph import DirectedGraph, prune

from conftest import (belief_table, jousselme_distance, masses_from_beliefs, state_from_specs,
                      view_edges)
from test_general_kernel import fh_conditional

_weight = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def boes(draw, min_size=1, max_size=4, kind="general"):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    frame = Frame(size)
    m = np.zeros(frame.n_subsets)
    if kind == "general":
        values = draw(st.lists(_weight, min_size=frame.n_subsets - 1,
                               max_size=frame.n_subsets - 1))
        m[1:] = values
    elif kind == "bayesian":
        values = draw(st.lists(_weight, min_size=size, max_size=size))
        for p, v in enumerate(values):
            m[1 << p] = v
    m /= m.sum()
    return BodyOfEvidence(frame, m)


@st.composite
def boe_triples(draw, max_size=4):
    size = draw(st.integers(min_value=1, max_value=max_size))
    frame = Frame(size)
    out = []
    for _ in range(3):
        values = draw(st.lists(_weight, min_size=frame.n_subsets - 1,
                               max_size=frame.n_subsets - 1))
        m = np.zeros(frame.n_subsets)
        m[1:] = values
        m /= m.sum()
        out.append(BodyOfEvidence(frame, m))
    return out


@given(boes())
def test_belief_below_plausibility(b):
    table = belief_table(b.masses)
    for a in range(b.frame.n_subsets):
        bl, pl = table[a], 1.0 - table[b.frame.full_set ^ a]
        assert -1e-12 <= bl <= pl + 1e-12
        assert pl <= 1 + 1e-12


@given(boes())
def test_belief_monotone_under_subset(b):
    bl = belief_table(b.masses)
    for a in range(b.frame.n_subsets):
        for p in range(b.frame.size):
            bigger = a | (1 << p)
            assert bl[a] <= bl[bigger] + 1e-12


@given(boe_triples())
def test_jousselme_metric_axioms(triple):
    e1, e2, e3 = triple
    d12 = jousselme_distance(e1, e2)
    d21 = jousselme_distance(e2, e1)
    d13 = jousselme_distance(e1, e3)
    d23 = jousselme_distance(e2, e3)
    assert 0.0 <= d12 <= 1.0
    assert abs(d12 - d21) < 1e-12
    assert d13 <= d12 + d23 + 1e-9
    assert jousselme_distance(e1, e1) < 1e-12


@given(boes())
def test_conditioning_on_frame_is_identity(b):
    bl = belief_table(b.masses)
    given_frame = fh_conditional(bl, b.frame.full_set)
    for target in range(b.frame.n_subsets):
        assert abs(given_frame[target] - bl[target]) < 1e-12


@given(boes(max_size=6))
def test_mobius_round_trip(b):
    rebuilt = masses_from_beliefs(b.frame, belief_table(b.masses))
    assert np.max(np.abs(rebuilt.masses - b.masses)) < 1e-12


@given(boes(kind="bayesian", min_size=2))
def test_fh_equals_bayes_on_pmfs(b):
    size = b.frame.size
    bl = belief_table(b.masses)
    p = np.array([b.masses[1 << q] for q in range(size)])
    for a in range(1, b.frame.n_subsets):
        pa = sum(p[q] for q in range(size) if a & (1 << q))
        if pa <= 0:
            continue
        given_a = fh_conditional(bl, a)
        for target in range(b.frame.n_subsets):
            expect = sum(p[q] for q in range(size) if (a & target) & (1 << q)) / pa
            assert abs(given_a[target] - expect) < 1e-10


@st.composite
def small_networks(draw, kind="general"):
    n = draw(st.integers(min_value=2, max_value=6))
    size = draw(st.integers(min_value=2, max_value=3))
    frame = Frame(size)
    pairs = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if draw(st.booleans()):
                pairs.append((i, j))
    g = DirectedGraph.from_mutual_pairs(n, pairs) if pairs else DirectedGraph.from_edges(n, [])
    specs = []
    for _ in range(n):
        strategy = Strategy.RECEPTIVE if draw(st.booleans()) else Strategy.CAUTIOUS
        eps = draw(st.floats(min_value=0.0, max_value=1.0))
        m = np.zeros(frame.n_subsets)
        if kind == "general":
            vals = draw(st.lists(_weight, min_size=frame.n_subsets - 1,
                                 max_size=frame.n_subsets - 1))
            m[1:] = vals
        else:
            vals = draw(st.lists(_weight, min_size=size, max_size=size))
            for p, v in enumerate(vals):
                m[1 << p] = v
        m /= m.sum()
        specs.append(AgentSpec(strategy, 0.5, eps, BodyOfEvidence(frame, m)))
    return state_from_specs(frame, g, tuple(specs))


@settings(max_examples=100, deadline=None)
@given(small_networks())
def test_general_update_yields_valid_opinions(state):
    new = general_step(state)
    assert np.max(np.abs(new.masses.sum(axis=1) - 1.0)) < 1e-10
    assert new.masses.min() >= 0.0
    assert np.all(new.masses[:, 0] == 0.0)


@settings(max_examples=100, deadline=None)
@given(small_networks(kind="bayesian"))
def test_general_engine_matches_matrix_engine(state):
    a = general_step(state)
    b = pmf_step(state)
    assert np.max(np.abs(a.masses - b.masses)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(small_networks(kind="bayesian"))
def test_prune_full_bound_keeps_all_edges(state):
    view = prune(state.graph, state.masses, [1.0] * state.graph.n, state.frame.size)
    assert view_edges(view) == state.graph.edges
