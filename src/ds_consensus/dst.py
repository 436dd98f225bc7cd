"""
Exact Dempster-Shafer primitives over small frames of discernment.

Conventions used throughout the package:

- A frame with ``M`` singletons (``M <= 16``) indexes its ``2**M`` subsets by
  unsigned bitmask: bit ``p`` set means singleton ``p+1`` is a member.
  Mask ``0`` is the empty set, ``2**M - 1`` the full frame.
- A mass function is a dense float array of length ``2**M`` indexed by
  bitmask, with ``m[0] == 0`` and total mass 1.
- ``Bl(A)``, the sum of ``m(B)`` over the subsets ``B`` of ``A``, is the
  zeta transform of the mass table (:func:`_zeta`), and
  ``Pl(A) = 1 - Bl(complement of A)``.  The general engine forms both, and
  the Fagin-Halpern conditionals
  ``Bl(B|A) = Bl(A & B) / (Bl(A & B) + Pl(A & ~B))``, on whole tables of
  agents; a single opinion offers only its masses.
- Distances between bodies of evidence use the Jaccard-weighted quadratic
  form (Jousselme distance), which lives in [0, 1].

No run reads a :class:`BodyOfEvidence` or calls the ``is_*_table`` checks;
the benchmark names them, so they stay until it is re-based on the kernel.
The tests' per-opinion references (``belief_table``, ``mass_table``,
``masses_from_beliefs``, ``jousselme_distance``) live in ``tests/conftest.py``.

All values are immutable after construction; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping

import numpy as np

from .errors import FrameMismatch, NotABeliefFunction

MAX_FRAME_SIZE = 16

# Tolerances: exact algebraic identities vs. results of iterated arithmetic.
ALGEBRAIC_TOL = 1e-12
ITERATED_TOL = 1e-9

# Dense Jaccard matrices are cached per frame size; above this the 4**M
# footprint stops being worth materializing and the quadratic form is
# evaluated on the columns that carry mass instead.
_DENSE_JACCARD_LIMIT = 10


@dataclass(frozen=True)
class Frame:
    """A frame of discernment: ``size`` mutually exclusive singletons."""

    size: int

    def __post_init__(self):
        if not 1 <= self.size <= MAX_FRAME_SIZE:
            raise ValueError(f"frame size must be in [1, {MAX_FRAME_SIZE}], got {self.size}")

    @property
    def n_subsets(self) -> int:
        return 1 << self.size

    @property
    def full_set(self) -> int:
        return (1 << self.size) - 1


# ---------------------------------------------------------------------------
# Proposition (bitmask) helpers
# ---------------------------------------------------------------------------

def prop_from_indices(indices: Iterable[int]) -> int:
    """Bitmask of the subset containing the given 1-based singleton indices."""
    mask = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"singleton indices are 1-based, got {i}")
        mask |= 1 << (i - 1)
    return mask


def prop_to_indices(mask: int) -> tuple[int, ...]:
    """1-based singleton indices contained in a bitmask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def prop_to_str(mask: int, frame: Frame) -> str:
    """Serialize a subset: comma-joined 1-based indices, ``*`` for the full frame."""
    if mask == frame.full_set:
        return "*"
    return ",".join(str(i) for i in prop_to_indices(mask))


def prop_from_str(text: str, frame: Frame) -> int:
    """The bitmask of a subset written as comma-joined 1-based singleton
    indices (``1``, ``2,3``) or ``*`` for the full frame; blank is the empty set."""
    given, text = text, text.strip()
    if text == "*":
        return frame.full_set
    if not text:
        return 0
    try:
        indices = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"proposition {given!r} is not a subset: write 1-based singleton "
                         "indices such as '1' or '2,3', or '*' for the full frame") from None
    mask = prop_from_indices(indices)
    if mask >= frame.n_subsets:
        raise ValueError(f"proposition {text!r} exceeds frame of size {frame.size}")
    return mask


# ---------------------------------------------------------------------------
# Mass / belief table transforms (vectorized over leading axes)
# ---------------------------------------------------------------------------

def _lattice_steps(table: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The plan of the fast subset-lattice transforms on ``table`` (Kennes,
    "Computational aspects of the Moebius transformation of graphs", IEEE
    SMC 1992): per bit b, from bit 0 up, views of the entries with bit b set
    and of those without it.

    Entry ``hi * 2**(b+1) + 2**b + lo`` of the last axis faces entry
    ``hi * 2**(b+1) + lo``: the same subset without singleton b+1.  As the
    last axis is a multiple of ``2**(b+1)``, the leading axes fold into
    ``hi``, so every view is 2-d, whatever the table's shape.  Bits 0 and 1
    are planned as 1-d strided views of the flat table instead: bit 0 as
    the odd and even entries, bit 1 as two passes, one per ``lo`` (entries
    2 mod 4 facing 0 mod 4, then 3 mod 4 facing 1 mod 4).  They add the
    same pairs, so the bits are those of the 2-d form, at about half its
    cost per pass at N = 7, M = 3 and a third at N = 100; from bit 2 on
    the 2-d view is the cheaper.  The table must be C-contiguous, so that
    the views are views of it and write through: any other layout raises
    ValueError, as a reshape would silently copy it.  A buffer that is
    transformed again and again keeps its plan.
    """
    n = table.shape[-1] if table.ndim else 0
    if n < 1 or n & (n - 1):
        raise FrameMismatch(f"a subset table needs a power-of-two last axis, got shape {table.shape}")
    if not table.flags.c_contiguous:
        raise ValueError("a subset table is transformed in place, so it must be C-contiguous")
    flat = table.reshape(-1)
    steps = [(flat[1::2], flat[0::2])] if n > 1 else []
    if n > 2:
        steps += [(flat[2::4], flat[0::4]), (flat[3::4], flat[1::4])]
    for b in range(2, n.bit_length() - 1):
        step = 1 << b
        pairs = flat.reshape(-1, 2, step)
        steps.append((pairs[:, 1], pairs[:, 0]))
    return steps


def _zeta(steps: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Turn the planned table's masses into beliefs, in place."""
    for has, src in steps:
        has += src


def _moebius(steps: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Turn the planned table's beliefs into masses, in place."""
    for has, src in steps:
        has -= src


def _recover_masses(table: np.ndarray, steps: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Beliefs to masses in place: Moebius, clamp at 0, empty set 0, rows renormalised.
    A mass below -ITERATED_TOL (not a belief function) raises NotABeliefFunction."""
    _moebius(steps)
    worst = np.minimum.reduce(table, axis=None)
    if worst < -ITERATED_TOL:
        raise NotABeliefFunction(f"recovered mass {worst!r} below -{ITERATED_TOL}")
    np.maximum(table, 0.0, out=table)
    table[..., 0] = 0.0
    table /= np.add.reduce(table, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Body of evidence
# ---------------------------------------------------------------------------

def mass_table_fault(masses: np.ndarray) -> tuple[int, str] | None:
    """The first row of an (N, 2**M) table that breaks the mass axioms, and
    why, or None when every row keeps them.

    A row must be finite, give the empty set 0, total 1 within
    ALGEBRAIC_TOL and hold no mass below -ALGEBRAIC_TOL.  The whole table is
    checked at once; only the reason is formed row by row.  A row that is
    not finite fails the last two tests (a NaN or -inf fails the minimum, an
    inf the total), so finiteness needs no pass of its own.
    """
    m = masses
    bad = m[:, 0] != 0.0
    bad |= np.abs(m.sum(axis=1) - 1.0) > ALGEBRAIC_TOL
    bad |= ~(m.min(axis=1) >= -ALGEBRAIC_TOL)
    rows = np.flatnonzero(bad)
    if not len(rows):
        return None
    row = m[rows[0]]
    if not np.all(np.isfinite(row)):
        return int(rows[0]), "invalid mass assignment: masses must be finite"
    issues = []
    if row[0] != 0.0:
        issues.append(f"mass of the empty set must be 0, got {row[0]!r}")
    if abs(row.sum() - 1.0) > ALGEBRAIC_TOL:
        issues.append(f"total mass must be 1, got {row.sum()!r}")
    if row.min() < -ALGEBRAIC_TOL:
        issues.append(f"negative mass {row.min()!r}")
    return int(rows[0]), "invalid mass assignment: " + "; ".join(issues)


def clamped_masses(masses: np.ndarray) -> np.ndarray:
    """A read-only copy of a checked mass table, its float noise within the
    accepted -ALGEBRAIC_TOL band set to 0."""
    m = np.where(masses < 0.0, 0.0, masses)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class BodyOfEvidence:
    """An agent opinion: a frame plus a dense mass table indexed by bitmask.

    Construction checks the mass axioms (:func:`mass_table_fault`), raising
    :class:`ValueError`, and freezes the array.
    """

    frame: Frame
    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.shape != (self.frame.n_subsets,):
            raise ValueError(f"expected {self.frame.n_subsets} masses, got shape {m.shape}")
        fault = mass_table_fault(m[None])
        if fault:
            raise ValueError(fault[1])
        object.__setattr__(self, "masses", clamped_masses(m))


# ---------------------------------------------------------------------------
# Opinion classes
# ---------------------------------------------------------------------------

def support_columns(frame: Frame, with_full: bool = False) -> np.ndarray:
    """Singleton masks in bitmask order, then the full frame if asked.

    The full frame is listed only when it is not itself a singleton
    (frames of size 1), so the columns are always distinct.
    """
    cols = [1 << p for p in range(frame.size)]
    if with_full and frame.size > 1:
        cols.append(frame.full_set)
    return np.array(cols)


def _only_on(masses: np.ndarray, frame: Frame, cols: np.ndarray) -> bool:
    m = np.atleast_2d(masses)
    off = np.ones(frame.n_subsets, dtype=bool)
    off[cols] = False
    return bool(np.all(np.abs(m[:, off]) <= ALGEBRAIC_TOL))


def is_bayesian_table(masses: np.ndarray, frame: Frame) -> bool:
    """True when only singleton columns carry mass (rows may be stacked)."""
    return _only_on(masses, frame, support_columns(frame))


def is_dirichlet_table(masses: np.ndarray, frame: Frame) -> bool:
    """True when only singletons and the full frame carry mass."""
    return _only_on(masses, frame, support_columns(frame, with_full=True))


# ---------------------------------------------------------------------------
# Jousselme distance
# ---------------------------------------------------------------------------

def jaccard_block(masks) -> np.ndarray:
    """Jaccard similarity ``|A & B| / |A | B|`` between the given subset masks.

    The empty/empty entry is defined as 0.
    """
    m = np.asarray(masks, dtype=np.uint32)
    inter = np.bitwise_count(m[:, None] & m[None, :]).astype(float)
    union = np.bitwise_count(m[:, None] | m[None, :]).astype(float)
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


@cache
def jaccard_matrix(size: int) -> np.ndarray:
    """Jaccard similarity over all subset pairs of a frame; cached per size."""
    if size > _DENSE_JACCARD_LIMIT:
        raise ValueError(f"dense Jaccard matrix not materialized for size {size}")
    d = jaccard_block(np.arange(1 << size))
    d.setflags(write=False)
    return d


def gram_distances(rows: np.ndarray, jaccard: np.ndarray,
                   pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                   ) -> np.ndarray:
    """Pairwise Jousselme distances between rows over the columns ``jaccard`` spans.

    Uses the Gram form ``0.5 * (g_ii + g_jj - 2 g_ij)`` with
    ``g = rows @ jaccard @ rows.T``, clipped to [0, 1] before the root.
    With ``pairs = (i, j, i * N + j)`` only the distances of those pairs are
    formed, each bit for bit equal to the full matrix's entry.
    """
    g = rows @ jaccard @ rows.T
    diag = g.diagonal()
    if pairs is None:
        gi, gj, gij = diag[:, None], diag[None, :], g
    else:
        gi, gj, gij = diag[pairs[0]], diag[pairs[1]], g.take(pairs[2])
    sq = gi + gj  # 0.5 * (gi + gj - 2 gij), in place
    sq -= 2.0 * gij
    sq *= 0.5
    # clip to [0, 1] like np.clip, without its wrapper's overhead
    np.maximum(sq, 0.0, out=sq)
    np.minimum(sq, 1.0, out=sq)
    return np.sqrt(sq)


def pairwise_jousselme(mass_rows: np.ndarray, size: int,
                       pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                       ) -> np.ndarray:
    """All pairwise distances between stacked mass rows (shape N x 2**size),
    or only those of ``pairs``, as in :func:`gram_distances`.

    Frames above the dense limit use only the columns that carry mass in
    some row; columns no row uses add nothing to the quadratic form.
    """
    if size <= _DENSE_JACCARD_LIMIT:
        return gram_distances(mass_rows, jaccard_matrix(size), pairs)
    cols = np.flatnonzero(np.any(mass_rows != 0.0, axis=0))
    return gram_distances(mass_rows[:, cols], jaccard_block(cols), pairs)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def masses_to_dict(frame: Frame, masses: np.ndarray) -> dict:
    """JSON form: propositions as comma-joined 1-based indices, ``*`` the frame."""
    out: dict[str, float] = {}
    for a in np.nonzero(np.asarray(masses) != 0.0)[0]:
        out[prop_to_str(int(a), frame)] = float(masses[a])
    return out


def masses_from_dict(frame: Frame, entries: Mapping[str, float]) -> np.ndarray:
    m = np.zeros(frame.n_subsets)
    for key, value in entries.items():
        m[prop_from_str(key, frame)] = float(value)
    return m
