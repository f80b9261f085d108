"""One angle rule: every phase a rewrite or ``decompose`` emits is wrapped into
[0, 2*pi), and a sum that cancels to rounding level reads exactly 0."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_edges, random_word
from rhochart.decompose import decompose
from rhochart.numerics import max_abs_diff
from rhochart.words import (
    PhaseAtom,
    RotationAtom,
    Word,
    WordForm,
    evaluate,
    make_opor_chart,
    normalize,
    range_reduce,
    word_to_json,
)

TWO_PI = 2 * math.pi
OPOR, PA, KM = WordForm.ONE_PHASE_ONE_ROTATION, WordForm.PHASE_ADJOINT, WordForm.KM


def phase_values(atoms):
    return [v for a in atoms if isinstance(a, PhaseAtom) for v in a.deltas.values()]


def wrapped(v):
    return 0.0 <= v < TWO_PI and math.copysign(1.0, v) == 1.0


# the reproducers


def test_a_merged_sum_that_cancels_to_rounding_is_zero():
    w = Word(n=2, atoms=(PhaseAtom({1: 0.7}), PhaseAtom({1: -0.7000000000000001})))
    assert normalize(w, OPOR).atoms == (PhaseAtom({1: 0.0, 2: 0.0}),)


def test_a_block_residual_that_cancels_to_rounding_is_zero():
    rot = RotationAtom(1, 2, 0.3)
    w = Word(n=2, atoms=(PhaseAtom({1: 0.7, 2: 0.7000000000000001}), rot))
    out = normalize(w, OPOR)
    assert out.atoms == (PhaseAtom({1: 0.0}), rot, PhaseAtom({1: 0.7000000000000001, 2: 0.7000000000000001}))


def test_range_reduce_adds_no_flip_for_a_rounding_level_angle():
    w = Word(n=2, atoms=(PhaseAtom({1: 0.2}), RotationAtom(1, 2, -1e-17), PhaseAtom({1: 0, 2: 0})))
    out = range_reduce(w)
    assert out.atoms == (PhaseAtom({1: 0.2}), RotationAtom(1, 2, 0.0), PhaseAtom({1: 0.0, 2: 0.0}))
    assert math.pi not in phase_values(out.atoms)


def test_phase_adjoint_closing_phases_are_wrapped():
    rng = np.random.default_rng(13)
    params = rng.uniform(0.1, 1.5, 16)
    params[0] = 0.0  # a zero block phase closes with 0, not -0.0
    out = normalize(make_opor_chart(4, params), PA)
    assert all(wrapped(v) for v in phase_values(out.atoms))


# every rewrite, at angles hugging 0 and +-2*pi

near_turns = st.one_of(
    st.sampled_from((0.0, -0.0, TWO_PI, -TWO_PI)),
    *(st.floats(min_value=c - 1e-14, max_value=c + 1e-14) for c in (0.0, TWO_PI, -TWO_PI)),
    st.floats(min_value=-TWO_PI, max_value=TWO_PI),
)
turn_thetas = st.one_of(near_turns, st.sampled_from((math.pi / 2, math.pi, -math.pi / 2)))


@st.composite
def turn_words(draw):
    """Unique-pair words at n = 2..6 whose angles hug 0 and +-2*pi; some phase
    atoms are followed by one that cancels them to within an ulp."""
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = draw(st.permutations([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]))
    atoms = []
    for k in range(draw(st.integers(min_value=0, max_value=min(len(pairs), 8))) + 1):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            deltas = draw(st.dictionaries(st.integers(min_value=1, max_value=n), near_turns))
            atoms.append(PhaseAtom(deltas))
            if draw(st.booleans()):
                ulps = draw(st.sampled_from((0, 1, -1)))
                atoms.append(PhaseAtom({i: -v * (1 + ulps * 2.0**-52) for i, v in deltas.items()}))
        if k < len(pairs):
            atoms.append(RotationAtom(*pairs[k], draw(turn_thetas)))
    return Word(n=n, atoms=tuple(atoms))


@settings(max_examples=300, deadline=None)
@given(turn_words())
def test_every_emitted_phase_is_wrapped(w):
    u = evaluate(w)
    opor = normalize(w, OPOR)
    for out in (opor, normalize(w, PA), normalize(w, KM), range_reduce(opor), range_reduce(w)):
        assert all(wrapped(v) for v in phase_values(out.atoms))
        assert max_abs_diff(evaluate(out), u) < 1e-12
    result = decompose(u)
    assert all(wrapped(v) for v in phase_values(result.word.atoms))
    assert result.residual < 1e-10


# km and opor do not depend on the route taken through the phase-adjoint form


def zero_heavy_chart(n, rng, turns):
    """opor chart with about half its phases exactly 0; with ``turns`` every
    phase is offset by 2*pi*m, |m| <= 10."""
    params = rng.uniform(0.0, math.pi / 2, n * n)
    for k in [*range(0, n * (n - 1), 2), *range(n * (n - 1), n * n)]:
        params[k] = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, TWO_PI)
        if turns:
            params[k] += TWO_PI * int(rng.integers(-10, 11))
    return make_opor_chart(n, params)


def structure(w):
    return [(a.i, a.j) if isinstance(a, RotationAtom) else sorted(a.deltas) for a in w.atoms]


def nonzero_support(w):
    phases = [a for a in w.atoms if isinstance(a, PhaseAtom)]
    return [sorted(k for k, v in a.deltas.items() if v) for a in phases]


def circular_gap(x, y):
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d)


def test_km_and_opor_do_not_depend_on_the_route():
    rng = np.random.default_rng(2026)
    sizes = [int(n) for n in rng.integers(2, 8, size=1500)] + [12, 16] * 5
    failures = 0
    for turns in (False, True):
        for n in sizes:
            w = zero_heavy_chart(n, rng, turns)
            adjoint = normalize(w, PA)
            km, km_via = normalize(w, KM), normalize(adjoint, KM)
            opor, opor_via = normalize(w, OPOR), normalize(adjoint, OPOR)
            same_opor = nonzero_support(opor) == nonzero_support(opor_via)
            failures += not (structure(km) == structure(km_via) and same_opor)
    assert failures == 0
    # general words: the two routes sum the same phases in another order, so
    # km's values may differ by a few ulps of 2*pi, but its structure may not
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        for k in range(1500):
            w = at_edges(random_word(int(rng.integers(2, 9)), rng, unique_pairs=bool(k % 2)), rng)
            km, km_via = normalize(w, KM), normalize(normalize(w, PA), KM)
            assert structure(km) == structure(km_via), w
            for a, b in zip(km.atoms, km_via.atoms):
                if isinstance(a, PhaseAtom):
                    assert all(circular_gap(v, b.deltas[i]) <= 1e-14 for i, v in a.deltas.items()), w


def test_range_reduce_does_not_depend_on_the_route():
    """``range_reduce`` flips and sweeps the opor form of its input, and opor
    normalization is idempotent, so a word and its opor form reduce to the
    same word."""
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        for k in range(1500):
            w = at_edges(random_word(int(rng.integers(2, 9)), rng, unique_pairs=bool(k % 2)), rng)
            direct, via = range_reduce(w), range_reduce(normalize(w, OPOR))
            assert json.dumps(word_to_json(direct)) == json.dumps(word_to_json(via)), w


# every normal form reduces each rotation angle into [0, pi/2]

far_thetas = st.one_of(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=math.pi / 2),
    st.sampled_from((-0.0, math.pi / 2, math.pi, -math.pi / 2, TWO_PI, -TWO_PI, 1.5 * math.pi)),
    st.sampled_from((1e6, -1e9, 1e300, -1e300, 2.0**60 * math.pi)),
)


@st.composite
def far_words(draw):
    """Words at n = 2..6, pairs repeated, whose angles are negative, above
    pi/2, of a full turn or more, or already in [0, pi/2]."""
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        if draw(st.booleans()):
            atoms.append(RotationAtom(*draw(st.sampled_from(pairs)), draw(far_thetas)))
        else:
            support = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1))
            atoms.append(PhaseAtom({k: draw(st.floats(min_value=-TWO_PI, max_value=TWO_PI)) for k in support}))
    return Word(n=n, atoms=tuple(atoms))


def rotation_angles(w):
    return [a.theta for a in w.atoms if isinstance(a, RotationAtom)]


@settings(max_examples=300, deadline=None)
@given(far_words())
def test_every_normal_form_reduces_its_angles_into_the_first_quadrant(w):
    u, given_angles = evaluate(w), rotation_angles(w)
    for out in (normalize(w, OPOR), normalize(w, PA), normalize(w, KM), range_reduce(w)):
        angles = rotation_angles(out)
        assert len(angles) == len(given_angles)
        assert all(0.0 <= t <= math.pi / 2 for t in angles), angles
        assert max_abs_diff(evaluate(out), u) < 1e-12
        for before, after in zip(given_angles, angles):
            if 0.0 <= before <= math.pi / 2:  # kept bit for bit, -0.0 included
                assert after.hex() == before.hex()


def test_a_large_angle_is_reduced_through_sin_and_cos():
    """``theta % fl(2*pi)`` would move these evaluations by up to 1.6; sin and
    cos reduce their argument exactly."""
    for theta in (1e6, -1e9, 1e300):
        w = Word(n=2, atoms=(PhaseAtom({1: 0.3}), RotationAtom(1, 2, theta), PhaseAtom({2: 0.1})))
        for out in (range_reduce(w), normalize(w, KM), normalize(w, PA)):
            assert 0.0 <= rotation_angles(out)[0] <= math.pi / 2
            assert max_abs_diff(evaluate(out), evaluate(w)) <= 1e-15, theta


def test_a_huge_phase_keeps_the_evaluation():
    """A phase of a full turn or more is reduced through sin and cos before it
    is summed; ``% fl(2*pi)`` alone moved the first word's evaluation by 1.63."""
    rot = RotationAtom(1, 2, 0.4)
    huge = (PhaseAtom({1: 1e300, 2: -1e12}), PhaseAtom({1: -3e299, 2: 1e12, 3: 7e200}))
    words = (
        Word(n=2, atoms=(PhaseAtom({1: 1e300}), rot)),
        Word(n=2, atoms=(rot, PhaseAtom({1: 1e300, 2: -1e12}))),
        Word(n=3, atoms=(*huge, rot)),
    )
    for w in words:
        for out in (normalize(w, OPOR), normalize(w, KM), normalize(w, PA), range_reduce(w)):
            assert max_abs_diff(evaluate(out), evaluate(w)) <= 1e-12, out


def test_a_huge_phase_keeps_the_phase_adjoint_form():
    """The pair P(x) R P(-x) at x = 1e300: each term is reduced by ``_turn`` before
    it is summed; wrapped raw, -1e300 fell in the zero band and the word read as
    P(psi) R P(0), 1.63 away."""
    dressed = Word(n=2, atoms=(PhaseAtom({1: 1e300}), RotationAtom(1, 2, 0.4), PhaseAtom({1: -1e300})))
    out = normalize(dressed, PA)
    (psi,), (closing,) = out.atoms[0].deltas.values(), out.atoms[2].deltas.values()
    assert closing == (0.0 if psi == 0.0 else TWO_PI - psi)
    assert max_abs_diff(evaluate(out), evaluate(dressed)) <= 1e-12
