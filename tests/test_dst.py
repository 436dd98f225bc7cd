import json

import numpy as np
import pytest

from ds_consensus import dst
from ds_consensus.cli import cli
from ds_consensus.dst import BodyOfEvidence, Frame
from ds_consensus.errors import FrameMismatch, NotABeliefFunction

from conftest import (belief_table, jousselme_distance, mass_table, masses_from_beliefs,
                      random_bayesian_boe, random_general_boe)
from test_general_kernel import fh_conditional


def boe(frame_size, masses):
    frame = Frame(frame_size)
    m = np.zeros(frame.n_subsets)
    for key, value in masses.items():
        m[dst.prop_from_str(key, frame)] = value
    return BodyOfEvidence(frame, m)


def brute_belief(b: BodyOfEvidence, a: int) -> float:
    """Independent reference: literal subset-sum."""
    return sum(float(b.masses[s]) for s in range(b.frame.n_subsets) if s & a == s)


def plausibility(bl: np.ndarray, a: int) -> float:
    """Pl(a) = 1 - Bl(complement of a), from a belief table."""
    return 1.0 - float(bl[(len(bl) - 1) ^ a])


# ---------------------------------------------------------------------------
# belief / plausibility
# ---------------------------------------------------------------------------

def test_vacuous_belief():
    bl = belief_table(boe(3, {"*": 1.0}).masses)
    assert bl[0b011] == 0.0
    assert bl[0b111] == 1.0
    assert plausibility(bl, 0b111) == 1.0


def test_dirichlet_belief_hand_value():
    b = boe(3, {"1": 0.3, "2": 0.2, "3": 0.1, "*": 0.4})
    bl = belief_table(b.masses)
    assert bl[dst.prop_from_str("1,2", b.frame)] == pytest.approx(0.5, abs=1e-15)
    assert plausibility(bl, dst.prop_from_str("1,2", b.frame)) == pytest.approx(0.9, abs=1e-15)


def test_bayesian_belief_equals_plausibility(rng):
    frame = Frame(3)
    bl = belief_table(random_bayesian_boe(frame, rng).masses)
    for a in range(frame.n_subsets):
        assert bl[a] == pytest.approx(plausibility(bl, a), abs=1e-12)


def test_belief_matches_brute_force(rng):
    for size in (1, 2, 3, 4):
        frame = Frame(size)
        b = random_general_boe(frame, rng)
        bl = belief_table(b.masses)
        for a in range(frame.n_subsets):
            assert bl[a] == pytest.approx(brute_belief(b, a), abs=1e-12)


def test_belief_plausibility_sandwich(rng):
    frame = Frame(4)
    for _ in range(25):
        bl = belief_table(random_general_boe(frame, rng).masses)
        for a in range(frame.n_subsets):
            assert -1e-15 <= bl[a] <= plausibility(bl, a) + 1e-12 <= 1 + 1e-12


# ---------------------------------------------------------------------------
# Fagin-Halpern conditionals, as the general engine's reference step forms them
# ---------------------------------------------------------------------------

def test_conditional_on_singletons():
    bl = belief_table(boe(3, {"1": 0.2, "2": 0.5, "3": 0.3}).masses)
    t1, t2 = 0b001, 0b010
    assert fh_conditional(bl, t1)[t1] == 1.0
    assert fh_conditional(bl, t2)[t1] == 0.0


def test_conditional_hand_values():
    b = boe(3, {"1": 0.5, "*": 0.5})
    a = dst.prop_from_str("1,2", b.frame)
    assert fh_conditional(belief_table(b.masses), a)[0b001] == pytest.approx(0.5, abs=1e-15)


def test_conditional_on_frame_is_identity(rng):
    frame = Frame(3)
    bl = belief_table(random_general_boe(frame, rng).masses)
    given_frame = fh_conditional(bl, frame.full_set)
    for target in range(frame.n_subsets):
        assert given_frame[target] == pytest.approx(bl[target], abs=1e-15)


def test_conditional_reduces_to_bayes(rng):
    # on Bayesian opinions the rule must agree with P(B & A) / P(A)
    for size in (2, 3, 4):
        frame = Frame(size)
        for _ in range(40):
            b = random_bayesian_boe(frame, rng)
            bl = belief_table(b.masses)
            p = np.array([b.masses[1 << q] for q in range(size)])
            for a in range(1, frame.n_subsets):
                pa = sum(p[q] for q in range(size) if a & (1 << q))
                if pa <= 0:
                    continue
                given_a = fh_conditional(bl, a)
                for target in range(frame.n_subsets):
                    expect = sum(p[q] for q in range(size)
                                 if (a & target) & (1 << q)) / pa
                    assert given_a[target] == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# Jousselme distance
# ---------------------------------------------------------------------------

def test_jaccard_matrix_brute_force():
    d = dst.jaccard_matrix(3)
    for a in range(8):
        for c in range(8):
            sa, sc = set(dst.prop_to_indices(a)), set(dst.prop_to_indices(c))
            expect = len(sa & sc) / len(sa | sc) if sa | sc else 0.0
            assert d[a, c] == pytest.approx(expect, abs=1e-15)


def test_distance_hand_values():
    e1 = boe(2, {"1": 1.0})
    e2 = boe(2, {"2": 1.0})
    e3 = boe(2, {"*": 1.0})
    assert jousselme_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)
    assert jousselme_distance(e1, e3) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert jousselme_distance(e1, e1) == 0.0


def test_distance_frame_mismatch():
    with pytest.raises(FrameMismatch):
        jousselme_distance(boe(2, {"1": 1.0}), boe(3, {"1": 1.0}))


def test_pairwise_matches_scalar(rng):
    frame = Frame(3)
    boes = [random_general_boe(frame, rng) for _ in range(6)]
    rows = np.vstack([b.masses for b in boes])
    d = dst.pairwise_jousselme(rows, 3)
    for i in range(6):
        for j in range(6):
            assert d[i, j] == pytest.approx(
                jousselme_distance(boes[i], boes[j]), abs=1e-12)


def test_jaccard_block_matches_dense_matrix():
    cols = dst.support_columns(Frame(4), with_full=True)
    assert cols.tolist() == [1, 2, 4, 8, 15]
    assert np.array_equal(dst.jaccard_block(cols), dst.jaccard_matrix(4)[np.ix_(cols, cols)])
    assert dst.support_columns(Frame(1), with_full=True).tolist() == [1]


@pytest.mark.parametrize("dirichlet", [False, True])
def test_profile_gram_distances_equal_dense(rng, dirichlet):
    # the profile-space run kernel prunes on the columns that carry mass; up to
    # four singletons that gives the dense form's distances bit for bit
    for size in (1, 2, 3, 4):
        cols = dst.support_columns(Frame(size), with_full=dirichlet)
        for n in (2, 7, 30, 100):
            x = rng.gamma(1.0, size=(n, len(cols)))
            x /= x.sum(axis=1, keepdims=True)
            dense = np.zeros((n, 1 << size))
            dense[:, cols] = x
            got = dst.gram_distances(x, dst.jaccard_block(cols))
            assert np.array_equal(got, dst.pairwise_jousselme(dense, size))


def test_pairwise_above_dense_limit(rng):
    frame = Frame(12)
    cols = dst.support_columns(frame, with_full=True)
    boes = []
    for _ in range(4):
        m = np.zeros(frame.n_subsets)
        draw = rng.gamma(1.0, size=len(cols))
        m[cols] = draw / draw.sum()
        boes.append(BodyOfEvidence(frame, m))
    d = dst.pairwise_jousselme(np.vstack([b.masses for b in boes]), 12)
    for i in range(4):
        for j in range(4):
            assert d[i, j] == pytest.approx(
                jousselme_distance(boes[i], boes[j]), abs=1e-12)


# ---------------------------------------------------------------------------
# Moebius inversion
# ---------------------------------------------------------------------------

def test_masses_from_beliefs_vacuous():
    frame = Frame(3)
    bl = np.zeros(8)
    bl[frame.full_set] = 1.0
    rebuilt = masses_from_beliefs(frame, bl)
    assert rebuilt.masses[frame.full_set] == 1.0


def test_mobius_round_trip(rng):
    for size in (1, 2, 3, 4, 5, 6):
        frame = Frame(size)
        b = random_general_boe(frame, rng)
        rebuilt = masses_from_beliefs(frame, belief_table(b.masses))
        assert np.max(np.abs(rebuilt.masses - b.masses)) < 1e-12


def generator_transform(table, sign):
    """The zeta (+1) or Moebius (-1) transform as a per-call generator of
    views, one reshape per bit: the form the planned views replaced."""
    t = np.array(table, dtype=float, copy=True, order="C")
    n = t.shape[-1]
    for b in range(n.bit_length() - 1):
        step = 1 << b
        pairs = t.reshape(t.shape[:-1] + (n // (2 * step), 2, step))
        has, src = pairs[..., 1, :], pairs[..., 0, :]
        if sign > 0:
            has += src
        else:
            has -= src
    return t


@pytest.mark.parametrize("size", range(9))
def test_planned_lattice_views_match_the_generator(size, rng):
    k = 1 << size
    for shape in [(k,), (5, k), (2, 3, k)]:
        table = rng.standard_normal(shape)
        table[rng.random(shape) < 0.2] = -0.0
        table[rng.random(shape) < 0.1] = 0.0
        for given in (table, np.asfortranarray(table), table.tolist()):
            assert belief_table(given).tobytes() == generator_transform(table, 1).tobytes()
            assert mass_table(given).tobytes() == generator_transform(table, -1).tobytes()
    # signed zeros: -0.0 - -0.0 is +0.0, -0.0 + -0.0 stays -0.0
    zeros = np.full((3, k), -0.0)
    assert belief_table(zeros).tobytes() == generator_transform(zeros, 1).tobytes()
    assert mass_table(zeros).tobytes() == generator_transform(zeros, -1).tobytes()


def per_bit_loop(table, sign):
    """The zeta (+1) or Moebius (-1) transform entry by entry, bit 0 first:
    each entry with bit b set takes in the entry without it."""
    t = table.copy()
    k = t.shape[-1]
    for b in range(k.bit_length() - 1):
        for c in range(k):
            if c >> b & 1:
                if sign > 0:
                    t[..., c] = t[..., c] + t[..., c ^ (1 << b)]
                else:
                    t[..., c] = t[..., c] - t[..., c ^ (1 << b)]
    return t


@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
@pytest.mark.parametrize("k", [2, 4, 8, 16, 32, 64])
def test_lattice_plan_matches_a_per_bit_loop(k, lead):
    rng = np.random.default_rng(k * 10 + len(lead))
    masses = rng.standard_normal(lead + (k,))
    masses[rng.random(masses.shape) < 0.2] = -0.0
    table = masses.copy()
    steps = dst._lattice_steps(table)
    dst._zeta(steps)
    beliefs = per_bit_loop(masses, 1)
    assert table.tobytes() == beliefs.tobytes()
    dst._moebius(steps)  # the same plan serves both ways
    assert table.tobytes() == per_bit_loop(beliefs, -1).tobytes()


def test_lattice_plan_refuses_a_table_it_cannot_write_through():
    # a reshape would copy these, and the transforms would fill the copy
    base = np.random.default_rng(5).random((10, 16))
    for table in (np.asfortranarray(base[:5, :8]), base[::2, :8], base[:5, :8]):
        assert not table.flags.c_contiguous
        with pytest.raises(ValueError, match="C-contiguous"):
            dst._lattice_steps(table)


@pytest.mark.parametrize("shape", [(6,), (2, 6), (3, 0), ()])
def test_lattice_transforms_need_a_power_of_two_axis(shape):
    for transform in (belief_table, mass_table):
        with pytest.raises(FrameMismatch, match="power-of-two"):
            transform(np.zeros(shape))


def test_non_monotone_beliefs_rejected():
    # Bl({1,2}) < Bl({1}) cannot come from non-negative masses
    frame = Frame(3)
    bl = np.zeros(8)
    bl[0b001] = 0.6
    bl[0b011] = 0.5
    bl[0b111] = 1.0
    with pytest.raises(NotABeliefFunction):
        masses_from_beliefs(frame, bl)


def test_bad_endpoint_beliefs_rejected():
    frame = Frame(2)
    with pytest.raises(ValueError):
        masses_from_beliefs(frame, np.array([0.0, 0.6, 0.1, 0.5]))
    with pytest.raises(ValueError):
        masses_from_beliefs(frame, np.array([0.2, 0.6, 0.1, 1.0]))


def test_beliefs_of_the_wrong_length_rejected():
    with pytest.raises(ValueError, match=r"^expected 4 belief values, got shape \(3,\)$"):
        masses_from_beliefs(Frame(2), np.array([0.0, 0.5, 1.0]))


def test_dense_jaccard_matrix_is_cached_up_to_its_limit():
    d = dst.jaccard_matrix(3)
    assert dst.jaccard_matrix(3) is d and not d.flags.writeable
    with pytest.raises(ValueError, match="^dense Jaccard matrix not materialized for size 11$"):
        dst.jaccard_matrix(11)


# ---------------------------------------------------------------------------
# validation, classification, serialization
# ---------------------------------------------------------------------------

def test_validate_classes():
    frame = Frame(3)
    vac = boe(3, {"*": 1.0}).masses
    assert not dst.is_bayesian_table(vac, frame) and dst.is_dirichlet_table(vac, frame)
    bay = boe(3, {"1": 0.6, "2": 0.4}).masses
    assert dst.is_bayesian_table(bay, frame) and dst.is_dirichlet_table(bay, frame)
    gen = boe(3, {"1": 0.5, "2,3": 0.5}).masses
    assert not dst.is_bayesian_table(gen, frame) and not dst.is_dirichlet_table(gen, frame)


@pytest.mark.parametrize("masses,text", [
    ([0.0, 1.0, 0.0], "expected 4 masses, got shape (3,)"),
    ([0.0, 0.5, np.nan, 0.5], "invalid mass assignment: masses must be finite"),
    ([0.0, 0.5, np.inf, 0.5], "invalid mass assignment: masses must be finite"),
    ([0.5, 0.5, 0.0, 0.0],
     "invalid mass assignment: mass of the empty set must be 0, got np.float64(0.5)"),
    ([0.0, 0.5, 0.0, 0.0], "invalid mass assignment: total mass must be 1, got np.float64(0.5)"),
    ([0.0, 1.5, -0.5, 0.0], "invalid mass assignment: negative mass np.float64(-0.5)"),
    ([0.5, 1.5, -0.5, 0.0],
     "invalid mass assignment: mass of the empty set must be 0, got np.float64(0.5); "
     "total mass must be 1, got np.float64(1.5); negative mass np.float64(-0.5)"),
], ids=["shape", "nan", "inf", "empty-set", "total", "negative", "all-three"])
def test_mass_axioms_checked_on_construction(masses, text, tmp_path, capsys):
    frame = Frame(2)
    with pytest.raises(ValueError) as exc:
        BodyOfEvidence(frame, np.array(masses))
    assert str(exc.value) == text
    if len(masses) != frame.n_subsets:
        return  # a scenario file names its masses by proposition: the table is always whole
    data = {"frame_size": 2, "graph": {"n": 2, "edges": [[1, 2]]},
            "agents": [{"boe": {"masses": {"1": 1.0}}},
                       {"boe": {"masses": dst.masses_to_dict(frame, np.array(masses))}}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))  # json writes NaN and Infinity as bare literals
    assert cli(["run", "--scenario", str(path), "--epsilon", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ds-consensus run: agents[1]: bad opinion: {text}\n"


def test_serialization_round_trip(rng):
    frame = Frame(3)
    b = random_general_boe(frame, rng)
    data = dst.masses_to_dict(frame, b.masses)
    back = dst.masses_from_dict(frame, data)
    assert np.max(np.abs(back - b.masses)) < 1e-15


def test_proposition_strings():
    frame = Frame(3)
    assert dst.prop_to_str(0b111, frame) == "*"
    assert dst.prop_to_str(0b101, frame) == "1,3"
    assert dst.prop_from_str("2,3", frame) == 0b110
    assert dst.prop_from_str("*", frame) == 0b111
