import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    EDGE_ANGLES,
    at_edges,
    dense_phase,
    dense_product,
    dense_rotation,
    edge_corpus,
    random_interleaved_word,
    random_word,
    reference_classify_form,
    reference_count_phases,
    reference_normalize_km,
)
from rhochart.numerics import is_unitary, max_abs_diff
from rhochart.words import (
    PhaseAtom,
    RotationAtom,
    Word,
    WordForm,
    classify_form,
    count_phases,
    evaluate,
    make_opor_chart,
    normalize,
    range_reduce,
    word_from_json,
    word_to_json,
)

TWO_PI = 2 * math.pi
OPOR = WordForm.ONE_PHASE_ONE_ROTATION


# evaluation

def test_empty_word_is_identity():
    assert max_abs_diff(evaluate(Word(n=3, atoms=())), np.eye(3)) == 0.0


def test_single_quarter_rotation():
    w = Word(n=2, atoms=(RotationAtom(1, 2, math.pi / 2),))
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert max_abs_diff(evaluate(w), expected) < 1e-16


def test_full_chart_evaluates_to_unitary():
    rng = np.random.default_rng(0)
    w = make_opor_chart(3, rng.uniform(0, TWO_PI, 9))
    assert is_unitary(evaluate(w), 1e-12)


finite_angles = st.one_of(
    st.sampled_from(EDGE_ANGLES),
    st.floats(min_value=-TWO_PI, max_value=TWO_PI, allow_nan=False),
)


@st.composite
def kernel_words(draw):
    """Words at n <= 8 over few pairs (so pairs repeat), with edge angles,
    empty phases and phases on the preceding rotation's own indices."""
    n = draw(st.integers(min_value=1, max_value=8))
    all_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pairs = draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=4)) if n > 1 else []
    atoms = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        if pairs and draw(st.booleans()):
            i, j = draw(st.sampled_from(pairs))
            atoms.append(RotationAtom(i, j, draw(finite_angles)))
            support = draw(st.sets(st.sampled_from((i, j))))
        else:
            support = draw(st.sets(st.integers(min_value=1, max_value=n)))
        atoms.append(PhaseAtom({k: draw(finite_angles) for k in support}))
    return Word(n=n, atoms=tuple(atoms))


@settings(max_examples=200, deadline=None)
@given(kernel_words())
@example(  # repeated pair, edge angles, an empty phase, phases on the rotation's own indices
    Word(
        n=3,
        atoms=(
            RotationAtom(1, 3, math.pi / 2),
            PhaseAtom({1: 0.4, 3: -1.1}),
            RotationAtom(1, 3, -math.pi / 2),
            PhaseAtom({}),
            RotationAtom(1, 3, math.pi),
            RotationAtom(2, 3, 0.0),
            PhaseAtom({3: math.pi}),
            RotationAtom(1, 3, 0.7),
        ),
    )
)
def test_evaluate_matches_dense_product(w):
    assert max_abs_diff(evaluate(w), dense_product(w)) < 1e-14


# chart constructors

def chart_slot_count(word):
    """Angles plus phase entries actually stored in the word's atoms."""
    slots = 0
    for atom in word.atoms:
        slots += 1 if isinstance(atom, RotationAtom) else len(atom.deltas)
    return slots


def test_opor_chart_param_counts():
    rng = np.random.default_rng(1)
    for n in range(2, 9):
        params = rng.uniform(0, 1, n * n)
        w = make_opor_chart(n, params)
        assert sum(isinstance(a, RotationAtom) for a in w.atoms) == n * (n - 1) // 2
        assert chart_slot_count(w) == n * n
        with pytest.raises(ValueError):
            make_opor_chart(n, params[:-1])


def test_opor_chart_zero_params_identity():
    w = make_opor_chart(2, [0.0, 0.0, 0.0, 0.0])
    assert max_abs_diff(evaluate(w), np.eye(2)) == 0.0


def test_opor_chart_n3_block_order():
    w = make_opor_chart(3, range(9))
    assert [(a.i, a.j) for a in w.atoms if isinstance(a, RotationAtom)] == [(1, 3), (2, 3), (1, 2)]
    # block phases sit on 3, 2, 1: the oriented labels (3,1), (2,3), (1,2)
    phase_indices = [next(iter(a.deltas)) for a in w.atoms[:-1][::2]]
    assert phase_indices == [3, 2, 1]


# normalization

def test_normalize_opor_from_phase_adjoint_reproduces_known_phase_map():
    rng = np.random.default_rng(6)
    d1, d2, d3 = rng.uniform(0, 1.5, 3)
    t12, t23, t31 = rng.uniform(0, math.pi / 2, 3)
    e1, e2, e3 = rng.uniform(0, 1.0, 3)
    adj = Word(
        n=3,
        atoms=(
            *(PhaseAtom({3: d3}), RotationAtom(1, 3, t31), PhaseAtom({3: -d3})),
            *(PhaseAtom({2: d2}), RotationAtom(2, 3, t23), PhaseAtom({2: -d2})),
            *(PhaseAtom({1: d1}), RotationAtom(1, 2, t12), PhaseAtom({1: -d1})),
            PhaseAtom({1: e1, 2: e2, 3: e3}),
        ),
    )
    assert classify_form(adj) is WordForm.PHASE_ADJOINT
    out = normalize(adj, OPOR)
    assert classify_form(out) is OPOR
    assert max_abs_diff(evaluate(adj), evaluate(out)) < 1e-13
    block_phases = [next(iter(a.deltas.values())) for a in out.atoms[:-1][::2]]
    expected = [d3 % TWO_PI, (d2 + d3) % TWO_PI, (d1 + d2 + d3) % TWO_PI]
    assert np.allclose(block_phases, expected, atol=1e-12)


def test_four_phase_sandwich_reduces_to_three():
    """diag(a, b) R = diag(a/b, 1) R diag(b, b): of the four phases around a
    rotation, one single phase on its left and one diagonal on its right remain."""
    rng = np.random.default_rng(5)
    di, dj, ei, ej = rng.uniform(0.1, TWO_PI - 0.1, 4)
    w = Word(
        n=2,
        atoms=(PhaseAtom({1: di, 2: dj}), RotationAtom(1, 2, 0.9), PhaseAtom({1: ei, 2: ej})),
    )
    out = normalize(w, OPOR)
    values = [v for atom in out.atoms if isinstance(atom, PhaseAtom) for v in atom.deltas.values()]
    assert len(values) == 3
    assert max_abs_diff(evaluate(w), evaluate(out)) < 1e-14


def diag(*phases):
    return PhaseAtom(dict(enumerate(phases, start=1)))


R4, R5, R7 = RotationAtom(1, 2, 0.4), RotationAtom(1, 2, 0.5), RotationAtom(1, 2, 0.7)


@pytest.mark.parametrize(
    "w, opor, phase_adjoint, km",
    [
        (
            Word(n=2, atoms=(PhaseAtom({1: 1.0}), PhaseAtom({1: 2.0}))),
            (diag(3.0, 0.0),),
            (diag(3.0, 0.0),),
            (diag(3.0, 0.0),),
        ),
        (
            Word(n=2, atoms=(PhaseAtom({1: 1.0}), PhaseAtom({1: TWO_PI - 1.0}))),
            (diag(0.0, 0.0),),
            (diag(0.0, 0.0),),
            (diag(0.0, 0.0),),
        ),
        (
            Word(n=3, atoms=(PhaseAtom({3: 0.9}), R4)),
            (PhaseAtom({1: 0.0}), R4, diag(0.0, 0.0, 0.9)),
            (PhaseAtom({1: 0.0}), R4, PhaseAtom({1: 0.0}), diag(0.0, 0.0, 0.9)),
            (diag(0.0, 0.0, 0.0), R4, diag(0.0, 0.0, 0.9)),
        ),
        (
            Word(n=2, atoms=(PhaseAtom({1: 1.3, 2: 1.3}), R7)),
            (PhaseAtom({1: 0.0}), R7, diag(1.3, 1.3)),
            (PhaseAtom({1: 0.0}), R7, PhaseAtom({1: 0.0}), diag(1.3, 1.3)),
            (diag(0.0, 0.0), R7, diag(1.3, 1.3)),
        ),
        (
            Word(n=2, atoms=(PhaseAtom({1: 0.7, 2: 0.3}), R5)),
            (PhaseAtom({1: 0.7 - 0.3}), R5, diag(0.3, 0.3)),
            (PhaseAtom({1: 0.7 - 0.3}), R5, PhaseAtom({1: TWO_PI - (0.7 - 0.3)}), diag(0.7, 0.3)),
            (diag(0.7 - 0.3, 0.0), R5, diag(0.3, 0.3)),
        ),
        (
            Word(n=2, atoms=(R5, PhaseAtom({1: 0.7, 2: 0.3}))),
            (PhaseAtom({1: 0.0}), R5, diag(0.7, 0.3)),
            (PhaseAtom({1: 0.0}), R5, PhaseAtom({1: 0.0}), diag(0.7, 0.3)),
            (diag(0.0, 0.0), R5, diag(0.7, 0.3)),
        ),
        (
            Word(n=3, atoms=(PhaseAtom({1: 0.3, 3: 0.0}), R4)),
            (PhaseAtom({1: 0.3}), R4, diag(0.0, 0.0, 0.0)),
            (PhaseAtom({1: 0.3}), R4, PhaseAtom({1: TWO_PI - 0.3}), diag(0.3, 0.0, 0.0)),
            (diag(0.3, 0.0, 0.0), R4, diag(0.0, 0.0, 0.0)),
        ),
        (
            Word(n=3, atoms=(PhaseAtom({3: TWO_PI}), R4)),
            (PhaseAtom({1: 0.0}), R4, diag(0.0, 0.0, 0.0)),
            (PhaseAtom({1: 0.0}), R4, PhaseAtom({1: 0.0}), diag(0.0, 0.0, 0.0)),
            (diag(0.0, 0.0, 0.0), R4, diag(0.0, 0.0, 0.0)),
        ),
        (
            Word(n=3, atoms=(R4, PhaseAtom({3: 0.0, 1: 0.5}))),
            (PhaseAtom({1: 0.0}), R4, diag(0.5, 0.0, 0.0)),
            (PhaseAtom({1: 0.0}), R4, PhaseAtom({1: 0.0}), diag(0.5, 0.0, 0.0)),
            (diag(0.0, 0.0, 0.0), R4, diag(0.5, 0.0, 0.0)),
        ),
    ],
    ids=[
        "adjacent-phases-merge",
        "opposite-phases-cancel",
        "off-support-phase-passes",
        "common-phase-passes",
        "difference-stays-left",
        "phase-right-of-rotation-stays",
        "off-support-zero",
        "full-turn",
        "zero-right-of-rotation",
    ],
)
def test_normal_forms_of_one_rotation_and_its_phases(w, opor, phase_adjoint, km):
    """Each form's exact atoms: adjacent diagonals merge, a phase off the rotation's
    support or common to both its indices passes it, only the difference of a
    diag(a, b) on its support stays on its left, and a phase that wraps to 0 is 0."""
    for form, expected in ((OPOR, opor), (WordForm.PHASE_ADJOINT, phase_adjoint), (WordForm.KM, km)):
        out = normalize(w, form)
        assert out.atoms == expected, form
        assert max_abs_diff(evaluate(out), dense_product(w)) <= 1e-15, form


@pytest.mark.parametrize("n", [2, 3, 5])
def test_the_phase_adjoint_form_of_a_full_chart_stores_n_n_plus_1_over_2_phases(n):
    # each block stores one conjugation phase (the +/- pair is one parameter),
    # the trailing diagonal n more: n(n+1)/2 phases in total, 6 for n = 3
    w = normalize(make_opor_chart(n, np.random.default_rng(n).uniform(0.1, 1.0, n * n)), WordForm.PHASE_ADJOINT)
    blocks = sum(isinstance(a, RotationAtom) for a in w.atoms)
    assert blocks == n * (n - 1) // 2
    assert blocks + len(w.atoms[-1].deltas) == n * (n + 1) // 2
    for k in range(blocks):
        assert w.atoms[3 * k].deltas.keys() == w.atoms[3 * k + 2].deltas.keys()
    assert count_phases(w) == (blocks - 1, n + 1)


def test_the_phase_adjoint_form_of_a_real_chart_is_real():
    params = np.zeros(9)
    params[1:6:2] = np.random.default_rng(2).uniform(0, math.pi / 2, 3)  # only the angles
    w = normalize(make_opor_chart(3, params), WordForm.PHASE_ADJOINT)
    assert all(v == 0.0 for a in w.atoms if isinstance(a, PhaseAtom) for v in a.deltas.values())
    u = evaluate(w)
    assert max_abs_diff(u, u.conj()) < 1e-15


def test_the_phase_adjoint_form_matches_its_explicit_eight_factor_product():
    """Each block is P(psi) R P(-psi) with the closing phase the negated opening
    one, and the rotations are the chart's own."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        params = rng.uniform(0, TWO_PI, 9)
        params[1:6:2] = rng.uniform(0, math.pi / 2, 3)
        opor = make_opor_chart(3, params)
        adj = normalize(opor, WordForm.PHASE_ADJOINT)
        (d3,), (d2,), (d1,) = (adj.atoms[k].deltas.values() for k in (0, 3, 6))
        t31, t23, t12 = params[1:6:2]
        explicit = (
            dense_phase(3, {3: d3})
            @ dense_rotation(3, 1, 3, t31)
            @ dense_phase(3, {2: d2, 3: -d3})
            @ dense_rotation(3, 2, 3, t23)
            @ dense_phase(3, {1: d1, 2: -d2})
            @ dense_rotation(3, 1, 2, t12)
            @ dense_phase(3, {1: -d1})
            @ dense_phase(3, adj.atoms[-1].deltas)
        )
        assert max_abs_diff(evaluate(opor), explicit) < 1e-13


def test_normalize_opor_idempotent():
    for w in edge_corpus():
        once = normalize(w, OPOR)
        assert json.dumps(word_to_json(normalize(once, OPOR))) == json.dumps(word_to_json(once)), w


def test_normalize_phase_adjoint_and_km_idempotent_within_1e_14():
    """Normalizing again sums the same phases in another order: the same
    rotations and phase keys, every phase within 1e-14 mod 2*pi."""
    for w in edge_corpus():
        for form in (WordForm.PHASE_ADJOINT, WordForm.KM):
            once = normalize(w, form)
            twice = normalize(once, form)
            assert len(once.atoms) == len(twice.atoms), w
            for a, b in zip(once.atoms, twice.atoms):
                if isinstance(a, RotationAtom):
                    assert a == b, w
                else:
                    assert sorted(a.deltas) == sorted(b.deltas), w
                    gaps = [abs(v - b.deltas[k]) % TWO_PI for k, v in a.deltas.items()]
                    assert all(min(g, TWO_PI - g) <= 1e-14 for g in gaps), w


def test_normalize_general_is_identity():
    rng = np.random.default_rng(8)
    w = random_word(3, rng)
    assert normalize(w, WordForm.GENERAL) == w


def test_normalize_empty_word():
    w = Word(n=3, atoms=())
    assert normalize(w, OPOR) == w
    assert normalize(w, WordForm.KM) == w


def test_normalize_rewrites_repeated_pairs():
    w = Word(n=2, atoms=(RotationAtom(1, 2, 0.3), RotationAtom(1, 2, 0.4)))
    for form in (OPOR, WordForm.PHASE_ADJOINT, WordForm.KM):
        out = normalize(w, form)
        assert classify_form(out) is form
        assert max_abs_diff(evaluate(out), evaluate(w)) < 1e-15


@pytest.mark.parametrize(
    "w",
    [
        Word(n=3, atoms=(PhaseAtom({1: 0.3, 2: 0.1}), PhaseAtom({3: 0.2}))),
        Word(n=2, atoms=(PhaseAtom({1: 0.3, 2: 0.1}),)),
        Word(n=1, atoms=(PhaseAtom({1: -1.0}), PhaseAtom({1: 7.5}))),
        Word(n=4, atoms=(PhaseAtom({2: 0.4}), PhaseAtom({}), PhaseAtom({2: -0.4, 4: TWO_PI}))),
    ],
    ids=["two-atoms", "one-atom", "n1-wrapping", "cancelling"],
)
def test_a_word_without_rotation_normalizes_to_one_diagonal(w):
    u = evaluate(w)
    outs = [normalize(w, form) for form in (OPOR, WordForm.PHASE_ADJOINT, WordForm.KM)]
    for out in outs:
        assert len(out.atoms) == 1 and sorted(out.atoms[0].deltas) == list(range(1, w.n + 1))
        assert max_abs_diff(evaluate(out), u) < 1e-15
        assert count_phases(out) == (0, w.n)
    assert word_to_json(outs[1]) == word_to_json(outs[0]) == word_to_json(outs[2])


def km_corpus():
    """Seeded words with a rotation: unique and repeated pairs with half their
    angles at an edge, interleaved words, and opor charts up to n = 64 whose
    phases carry 2*pi*m offsets."""
    rng = np.random.default_rng(20)
    for k in range(600):
        yield at_edges(random_word(int(rng.integers(2, 9)), rng, unique_pairs=bool(k % 2)), rng)
    for n in range(2, 13):
        yield random_interleaved_word(n, rng)
    for n in (8, 16, 32, 48, 64):
        params = rng.uniform(0.0, TWO_PI, n * n)
        params[::2] += TWO_PI * rng.integers(-10, 11, params[::2].size)
        params[rng.random(n * n) < 0.3] = 0.0
        yield make_opor_chart(n, params)


def test_km_matches_the_union_find_reference():
    checked = 0
    for w in km_corpus():
        if not any(isinstance(a, RotationAtom) for a in w.atoms):
            continue
        for v in (w, normalize(w, WordForm.PHASE_ADJOINT)):
            assert json.dumps(word_to_json(normalize(v, WordForm.KM))) == json.dumps(
                word_to_json(reference_normalize_km(v))
            )
        checked += 1
    assert checked > 550


def test_normalize_km_internal_phase_counts():
    rng = np.random.default_rng(9)
    for n in range(3, 7):
        w = random_interleaved_word(n, rng)
        out = normalize(w, WordForm.KM)
        assert max_abs_diff(evaluate(w), evaluate(out)) < 1e-12
        internal, external = count_phases(out)
        assert internal == (n - 1) * (n - 2) // 2
        assert external == 2 * n - 1


def test_normalize_phase_adjoint_round_trip():
    rng = np.random.default_rng(10)
    w = random_word(4, rng, max_atoms=10)
    out = normalize(w, WordForm.PHASE_ADJOINT)
    assert max_abs_diff(evaluate(w), evaluate(out)) < 1e-12
    if any(isinstance(a, RotationAtom) for a in w.atoms):
        assert classify_form(out) in (WordForm.PHASE_ADJOINT, OPOR)


edge_thetas = st.one_of(st.sampled_from(EDGE_ANGLES), st.floats(min_value=-10.0, max_value=10.0))
edge_phases = st.one_of(
    st.sampled_from((0.0, -0.0, TWO_PI, -TWO_PI)),
    st.floats(min_value=-1e-14, max_value=1e-14),
    st.floats(min_value=TWO_PI - 1e-14, max_value=TWO_PI + 1e-14),
    st.floats(min_value=-TWO_PI, max_value=TWO_PI),
)


@st.composite
def edge_words(draw):
    """Unique-pair words at n = 2..8 with edge angles and phases hugging 0 and 2*pi."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = draw(st.permutations([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]))
    atoms = []
    for i, j in pairs[: draw(st.integers(min_value=1, max_value=min(len(pairs), 12)))]:
        support = draw(st.sets(st.integers(min_value=1, max_value=n)))
        if support:
            atoms.append(PhaseAtom({k: draw(edge_phases) for k in support}))
        atoms.append(RotationAtom(i, j, draw(edge_thetas)))
    support = draw(st.sets(st.integers(min_value=1, max_value=n)))
    if support:
        atoms.append(PhaseAtom({k: draw(edge_phases) for k in support}))
    return Word(n=n, atoms=tuple(atoms))


@settings(max_examples=300, deadline=None)
@given(edge_words())
def test_normal_forms_at_the_edges(w):
    u = evaluate(w)
    opor = normalize(w, OPOR)
    reduced = range_reduce(opor)
    outputs = (
        (OPOR, opor),
        (WordForm.PHASE_ADJOINT, normalize(w, WordForm.PHASE_ADJOINT)),
        (WordForm.KM, normalize(w, WordForm.KM)),
        (OPOR, reduced),
    )
    for form, out in outputs:
        assert max_abs_diff(evaluate(out), u) < 1e-12
        assert classify_form(out) is form
    assert normalize(opor, OPOR) == opor
    assert range_reduce(reduced) == reduced


@settings(max_examples=300, deadline=None)
@given(kernel_words())
def test_normal_forms_of_words_that_repeat_pairs(w):
    u = evaluate(w)
    for form in (OPOR, WordForm.PHASE_ADJOINT, WordForm.KM):
        out = normalize(w, form)
        assert max_abs_diff(evaluate(out), u) < 1e-12
        if any(isinstance(a, RotationAtom) for a in w.atoms):
            assert classify_form(out) is form


# range reduction

def test_range_reduce_negative_angle():
    w = make_opor_chart(2, [0.0, -0.3, 0.0, 0.0])
    out = range_reduce(w)
    rot = [a for a in out.atoms if isinstance(a, RotationAtom)][0]
    assert abs(rot.theta - 0.3) < 1e-15
    assert max_abs_diff(evaluate(w), evaluate(out)) < 1e-13


def test_range_reduce_oversized_angle():
    w = make_opor_chart(2, [0.0, 2.0, 0.0, 0.0])
    out = range_reduce(w)
    rot = [a for a in out.atoms if isinstance(a, RotationAtom)][0]
    assert abs(rot.theta - (math.pi - 2.0)) < 1e-15
    assert 0.0 <= rot.theta <= math.pi / 2
    assert max_abs_diff(evaluate(w), evaluate(out)) < 1e-13


def test_range_reduce_in_range_word_unchanged():
    rng = np.random.default_rng(11)
    params = []
    for _ in range(3):
        params.extend([rng.uniform(0.1, TWO_PI - 0.1), rng.uniform(0.1, math.pi / 2 - 0.1)])
    params.extend(rng.uniform(0.1, TWO_PI - 0.1, 3))
    w = make_opor_chart(3, params)
    assert range_reduce(w) == w


def test_range_reduce_idempotent_and_in_range():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        params = rng.uniform(-10, 10, n * n)
        w = make_opor_chart(n, params)
        out = range_reduce(w)
        assert max_abs_diff(evaluate(w), evaluate(out)) < 1e-13
        assert range_reduce(out) == out
        for atom in out.atoms:
            if isinstance(atom, RotationAtom):
                assert 0.0 <= atom.theta <= math.pi / 2
            else:
                assert all(0.0 <= v < TWO_PI for v in atom.deltas.values())


def test_range_reduce_rewrites_any_word():
    w = Word(n=2, atoms=(RotationAtom(1, 2, 0.3), PhaseAtom({1: 0.1}), PhaseAtom({2: 0.2})))
    out = range_reduce(w)
    assert classify_form(out) is OPOR
    for atom in out.atoms:
        if isinstance(atom, RotationAtom):
            assert 0.0 <= atom.theta <= math.pi / 2
        else:
            assert all(0.0 <= v < TWO_PI for v in atom.deltas.values())
    assert max_abs_diff(evaluate(out), evaluate(w)) < 1e-12
    assert range_reduce(out) == out


# form recognition and phase counting

def test_count_phases_km_golden():
    rng = np.random.default_rng(13)
    w = normalize(random_interleaved_word(3, rng), WordForm.KM)
    assert count_phases(w) == (1, 5)


def test_count_phases_opor_total():
    rng = np.random.default_rng(14)
    w = make_opor_chart(4, rng.uniform(0, 1, 16))
    internal, external = count_phases(w)
    assert internal + external == 10  # n(n+1)/2 for n = 4


def test_count_phases_pure_rotation():
    w = Word(n=3, atoms=(RotationAtom(1, 2, 0.4), RotationAtom(2, 3, 0.5)))
    assert count_phases(w) == (0, 0)
    assert count_phases(Word(n=3, atoms=())) == (0, 0)


def test_count_phases_unrecognized():
    w = Word(n=3, atoms=(PhaseAtom({1: 0.3}), PhaseAtom({2: 0.1}), RotationAtom(1, 2, 0.2), PhaseAtom({1: 0.1, 2: 0.2}), RotationAtom(1, 2, 0.9)))
    with pytest.raises(ValueError, match="not in a recognized form"):
        count_phases(w)


def test_classify_forms():
    rng = np.random.default_rng(15)
    opor = make_opor_chart(3, rng.uniform(0, 1, 9))
    adj = normalize(make_opor_chart(3, rng.uniform(0.1, 1, 9)), WordForm.PHASE_ADJOINT)
    assert classify_form(opor) is OPOR
    assert classify_form(adj) is WordForm.PHASE_ADJOINT
    km = normalize(random_interleaved_word(4, rng), WordForm.KM)
    assert classify_form(km) is WordForm.KM
    assert classify_form(random_interleaved_word(3, rng)) is WordForm.GENERAL
    bare = Word(n=3, atoms=(RotationAtom(1, 2, 0.4), RotationAtom(2, 3, 0.5)))
    assert classify_form(bare) is WordForm.KM
    assert classify_form(Word(n=2, atoms=(RotationAtom(1, 2, 0.4),))) is WordForm.KM


form_values = st.sampled_from((0.0, 0.5, -0.5, TWO_PI - 0.5, 1.25))


@st.composite
def form_words(draw):
    """Words at n = 2..6 as rotations with runs of phase atoms between them:
    single-index, multi-index, zero-valued and empty phases.  A layout gives
    the sizes of the leading, inner and last runs, and the dressings a rotation
    may take with phases on one of its own indices (P_a R, R P_a, P_a R P_a),
    whose values often cancel."""
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = st.integers(min_value=1, max_value=n)
    phase = st.one_of(
        st.builds(lambda k, v: PhaseAtom({k: v}), index, form_values),
        st.dictionaries(index, form_values, max_size=n).map(PhaseAtom),
    )
    free, wide, one, short, none = (
        st.lists(phase, min_size=lo, max_size=hi)
        for lo, hi in ((0, 3), (2, 3), (1, 1), (0, 1), (0, 0))
    )
    layouts = (
        (free, free, free, ("", "l", "r", "lr")),
        (one, one, one, ("",)),  # opor
        (none, none, free, ("lr",)),  # phase-adjoint
        (wide, short, short, ("",)),  # km, and a leading run one atom too long
    )
    lead, run, last, dressings = draw(st.sampled_from(layouts))
    rotations = draw(st.lists(st.sampled_from(pairs), max_size=4))
    atoms = draw(lead)
    for k, (i, j) in enumerate(rotations):
        a, sides = draw(st.sampled_from((i, j))), draw(st.sampled_from(dressings))
        atoms += [PhaseAtom({a: draw(form_values)})] if "l" in sides else []
        atoms.append(RotationAtom(i, j, draw(form_values.map(abs))))
        atoms += [PhaseAtom({a: draw(form_values)})] if "r" in sides else []
        atoms.extend(draw(run if k + 1 < len(rotations) else last))
    return Word(n=n, atoms=tuple(atoms))


def _counts_or_error(count, w):
    try:
        return count(w)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(form_words())
def test_form_parse_matches_atom_walking_reference(w):
    words = [w] + [normalize(w, form) for form in (OPOR, WordForm.PHASE_ADJOINT, WordForm.KM)]
    for v in words:
        assert classify_form(v) is reference_classify_form(v)
        assert _counts_or_error(count_phases, v) == _counts_or_error(reference_count_phases, v)


# serialization

def test_word_json_round_trip():
    rng = np.random.default_rng(16)
    w = random_word(4, rng, max_atoms=10)
    again = word_from_json(word_to_json(w))
    assert again == w
    assert max_abs_diff(evaluate(w), evaluate(again)) == 0.0


def test_word_json_accepts_reversed_pair_labels():
    w = word_from_json({"n": 3, "atoms": [{"rot": [3, 1], "theta": 0.4}, {"phase": {"3": 1.2}}]})
    assert w.atoms[0] == RotationAtom(1, 3, 0.4)
    with pytest.raises(ValueError):
        word_from_json({"n": 3, "atoms": [{"rot": [2, 2], "theta": 0.4}]})


def test_value_types_copy_what_they_are_given():
    deltas = {1: 0.3}
    atom = PhaseAtom(deltas)
    deltas[1] = 0.7
    assert atom.deltas == {1: 0.3}
    assert type(Word(2, [atom]).atoms) is tuple


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason="PhaseAtom.deltas is a live dict")
def test_a_validated_word_refuses_a_new_phase_entry():
    """Accepted, the entry below made ``evaluate`` raise IndexError and
    ``word_to_json`` write a bare NaN, which is not strict JSON."""
    w = Word(n=2, atoms=(PhaseAtom({1: 0.3}), RotationAtom(1, 2, 0.4)))
    with pytest.raises(TypeError):
        w.atoms[0].deltas[5] = float("nan")


def test_atoms_compare_by_value():
    assert PhaseAtom({1: 0.3}) == PhaseAtom({1: 0.3})
    assert PhaseAtom({1: 0.3}) != PhaseAtom({1: 0.3, 2: 0.0})
    with pytest.raises(TypeError, match="unhashable"):
        hash(PhaseAtom({1: 0.3}))


def test_opor_chart_of_integer_parameters_holds_floats():
    text = json.dumps(word_to_json(make_opor_chart(2, [0] * 4)))
    assert text == (
        '{"n": 2, "atoms": [{"phase": {"1": 0.0}}, {"rot": [1, 2], "theta": 0.0}, '
        '{"phase": {"1": 0.0, "2": 0.0}}]}'
    )


def test_atom_validation():
    with pytest.raises(ValueError):
        RotationAtom(2, 2, 0.1)
    with pytest.raises(ValueError):
        RotationAtom(1, 2, math.inf)
    with pytest.raises(ValueError):
        PhaseAtom({0: 0.1})
    with pytest.raises(ValueError):
        Word(n=2, atoms=(RotationAtom(1, 3, 0.1),))


@pytest.mark.parametrize(
    "make",
    [
        lambda: RotationAtom(True, 2, 0.1),
        lambda: RotationAtom(1, 2.0, 0.1),
        lambda: PhaseAtom({True: 0.3}),
        lambda: PhaseAtom({2.0: 0.3}),
    ],
    ids=["rotation-bool", "rotation-float", "phase-bool", "phase-float"],
)
def test_atom_indices_must_be_integers(make):
    with pytest.raises(ValueError, match=r"True|2\.0"):
        make()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PhaseAtom({1: math.nan}), ValueError, r"^deltas\[1\]: expected a finite number, got nan$"),
        (lambda: Word(n=2, atoms=(PhaseAtom({3: 0.1}),)), ValueError, "exceeds dimension 2"),
        (lambda: Word(n=2, atoms=((1, 2, 0.3),)), TypeError, r"not an atom: \(1, 2, 0\.3\)"),
        (
            lambda: normalize(Word(n=2, atoms=(RotationAtom(1, 2, 0.3),)), "km"),
            ValueError,
            "unknown target form 'km'",
        ),
        # a value longer than 40 characters is named by its type, not echoed
        (lambda: word_from_json({"n": "x" * 100, "atoms": []}), ValueError, "^n: expected an integer, got str$"),
    ],
    ids=["phase-nan", "phase-above-n", "not-an-atom", "target-not-a-form", "long-value-by-type"],
)
def test_word_errors_name_the_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_range_reduce_of_the_empty_word_is_itself():
    w = Word(n=3, atoms=())
    assert range_reduce(w) == w


@pytest.mark.parametrize(
    "left, right",
    [({1: 0.3, 2: 0.2}, {1: -0.3}), ({1: 0.3}, {1: -0.3, 2: 0.2})],
    ids=["left", "right"],
)
def test_conjugating_phase_on_two_indices_is_not_phase_adjoint(left, right):
    # P R P^dagger with one side on both rows: not a single-index conjugation
    w = Word(n=2, atoms=(PhaseAtom(left), RotationAtom(1, 2, 0.4), PhaseAtom(right), PhaseAtom({1: 0.1, 2: 0.2})))
    assert classify_form(w) is WordForm.GENERAL
    assert reference_classify_form(w) is WordForm.GENERAL


@pytest.mark.parametrize("n", [2.5, True, "2", 0])
def test_word_dimension_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        Word(n=n, atoms=())


# golden digest: every rewrite of words whose phases and angles lie in (-2*pi, 2*pi)

#: (outputs, sha256) of the corpus's rewrites
GOLDEN_REWRITES = (2800, "9cf9b6bf3cef7c50f475f88e57afe60f8ba5ed3ea4a6a4df5f5347546167088f")


def golden_corpus():
    """100 words for each n = 2..8, every phase and angle in (-2*pi, 2*pi) and a
    quarter of them at 0, pi/2, pi or -pi/2, drawn by the standard library."""
    rng = random.Random(31)

    def angle():
        return rng.choice(EDGE_ANGLES) if rng.random() < 0.25 else rng.uniform(-TWO_PI, TWO_PI)

    for n in range(2, 9):
        for _ in range(100):
            atoms = []
            for _ in range(rng.randint(1, 12)):
                if rng.random() < 0.5:
                    i, j = sorted(rng.sample(range(1, n + 1), 2))
                    atoms.append(RotationAtom(i, j, angle()))
                else:
                    atoms.append(PhaseAtom({k: angle() for k in range(1, n + 1) if rng.random() < 0.6}))
            yield Word(n=n, atoms=tuple(atoms))


def every_rewrite(w):
    """The three normal forms and ``words.range_reduce``."""
    for form in (OPOR, WordForm.PHASE_ADJOINT, WordForm.KM):
        yield normalize(w, form)
    yield range_reduce(w)


def test_rewrites_match_the_golden_digest():
    """The JSON and the form of every rewrite of the corpus, byte for byte."""
    digest, outputs = hashlib.sha256(), 0
    for w in golden_corpus():
        values = [v for a in w.atoms for v in ([a.theta] if isinstance(a, RotationAtom) else a.deltas.values())]
        assert all(abs(v) < TWO_PI for v in values)
        for out in every_rewrite(w):
            digest.update(f"{json.dumps(word_to_json(out))} {classify_form(out).value}\n".encode())
            outputs += 1
    assert (outputs, digest.hexdigest()) == GOLDEN_REWRITES
