"""Host-speed reference: a frozen bounded-confidence loop that owes nothing to the package.

On a shared machine the CPU's speed moves by 20-50 % for minutes at a time
(another tenant on the sibling hyperthread), so raw times taken minutes
apart disagree by more than any useful bound.  After every timed run (and
every set-up) the benchmark times a short slice of this fixed kernel, the
same kind of work as the package's (a pmf step loop on small numpy arrays:
Jousselme distances, pruning, a row-stochastic product) at the workload's
agent count.  Times are then scaled by ``nominal_s / median slice time`` to
seconds at the speed the host had when ``nominal_s`` was recorded.  No
change to the package can move this kernel, so the scale factor carries
only the host's state.
"""

from __future__ import annotations

import time

import numpy as np

_MASKS = np.arange(8, dtype=np.uint32)
_INTER = np.bitwise_count(_MASKS[:, None] & _MASKS[None, :]).astype(float)
_UNION = np.bitwise_count(_MASKS[:, None] | _MASKS[None, :]).astype(float)
_JACCARD = np.divide(_INTER, _UNION, out=np.zeros_like(_INTER), where=_UNION > 0)
_SINGLETONS = [1, 2, 4]


def _loop(masses: np.ndarray, adjacency: np.ndarray, steps: int) -> float:
    m = masses
    n = len(m)
    diag_idx = np.arange(n)
    for _ in range(steps):
        g = m @ _JACCARD @ m.T
        d = np.diag(g)
        dist = np.sqrt(np.clip(0.5 * (d[:, None] + d[None, :] - 2.0 * g), 0.0, 1.0))
        kept = adjacency & (dist <= 0.5)
        counts = kept.sum(axis=1)
        share = np.where(counts > 0, 0.5 / np.maximum(counts, 1), 0.0)
        w = kept * share[:, None]
        w[diag_idx, diag_idx] = np.where(counts > 0, 0.5, 1.0)
        new = np.zeros_like(m)
        new[:, _SINGLETONS] = w @ m[:, _SINGLETONS]
        m = new
    return float(m.sum())


class HostReference:
    """A fixed kernel slice, timed after every timed run of a workload."""

    def __init__(self, agents: int, steps: int, nominal_s: float):
        self.agents = agents          # the workload's agent count
        self.steps = steps            # steps per slice
        self.nominal_s = nominal_s    # median slice time recorded on the development host
        rng = np.random.default_rng(20160525)   # fixed: the kernel never varies
        self._masses = np.zeros((agents, 8))
        self._masses[:, _SINGLETONS] = rng.dirichlet([1.0, 1.0, 1.0], agents)
        adjacency = rng.random((agents, agents)) < 0.3
        self._adjacency = adjacency | adjacency.T
        np.fill_diagonal(self._adjacency, False)

    def time_slice(self) -> float:
        t0 = time.perf_counter()
        _loop(self._masses, self._adjacency, self.steps)
        return time.perf_counter() - t0
