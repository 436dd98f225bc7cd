from dataclasses import replace

import numpy as np
import pytest

from ds_consensus import dst
from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.dynamics import NetworkState, _receptive, _term_structure, _term_weights
from ds_consensus.graph import PrunedView


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def at_bound(state: NetworkState, epsilon: float | None) -> NetworkState:
    """``state`` with every agent's bound set to ``epsilon`` (None keeps them)."""
    return state if epsilon is None else replace(
        state, specs=tuple(replace(s, epsilon=epsilon) for s in state.specs))


def random_general_boe(frame: Frame, rng) -> BodyOfEvidence:
    """Strictly positive mass on every non-empty subset."""
    m = np.zeros(frame.n_subsets)
    m[1:] = rng.gamma(shape=1.0, size=frame.n_subsets - 1) + 1e-6
    m /= m.sum()
    return BodyOfEvidence(frame, m)


def random_bayesian_boe(frame: Frame, rng) -> BodyOfEvidence:
    m = np.zeros(frame.n_subsets)
    draw = rng.gamma(shape=1.0, size=frame.size) + 1e-6
    draw /= draw.sum()
    for p in range(frame.size):
        m[1 << p] = draw[p]
    return BodyOfEvidence(frame, m)


def random_dirichlet_boe(frame: Frame, rng) -> BodyOfEvidence:
    m = np.zeros(frame.n_subsets)
    draw = rng.gamma(shape=1.0, size=frame.size + 1) + 1e-6
    draw /= draw.sum()
    for p in range(frame.size):
        m[1 << p] = draw[p]
    m[frame.full_set] = draw[frame.size]
    return BodyOfEvidence(frame, m)


def theta_weight_matrix(state: NetworkState, pruned: PrunedView) -> np.ndarray:
    """Self-weights plus full-frame conditional weights, as one matrix.

    Row sums bound the decay of the full-frame ("complete ambiguity") mass:
    while every row sum stays at most rho < 1, the largest full-frame mass
    shrinks at least geometrically with ratio rho.
    """
    masses = state.masses
    terms = _term_structure(*np.nonzero(pruned.kept), masses > 0.0,
                            dst.belief_table(masses) > 0.0, state.alphas(),
                            _receptive(state.specs))
    beta, moving = _term_weights(terms, masses)
    gamma = np.diag(np.where(moving, terms.alphas, 1.0))
    full = terms.subset == state.frame.full_set
    gamma[terms.agent[full], terms.neighbor[full]] = beta[full]
    return gamma
