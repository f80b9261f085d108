"""One angle rule: every phase a rewrite or ``decompose`` emits is wrapped into
[0, 2*pi), and a sum that cancels to rounding level reads exactly 0."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
    rewrite_merge_phases,
    rewrite_pass_through,
)

TWO_PI = 2 * math.pi
OPOR, PA, KM = WordForm.ONE_PHASE_ONE_ROTATION, WordForm.PHASE_ADJOINT, WordForm.KM


def phase_values(atoms):
    return [v for a in atoms if isinstance(a, PhaseAtom) for v in a.deltas.values()]


def wrapped(v):
    return 0.0 <= v < TWO_PI and math.copysign(1.0, v) == 1.0


# the reproducers


def test_merge_drops_a_sum_that_cancels_to_rounding():
    w = Word(n=2, atoms=(PhaseAtom({1: 0.7}), PhaseAtom({1: -0.7000000000000001})))
    assert rewrite_merge_phases(w).atoms == ()


def test_pass_through_leaves_no_residual_that_cancels_to_rounding():
    rot = RotationAtom(1, 2, 0.3)
    w = Word(n=2, atoms=(PhaseAtom({1: 0.7, 2: 0.7000000000000001}), rot))
    out = rewrite_pass_through(w, 0, "right")
    assert out.atoms == (rot, PhaseAtom({1: 0.7000000000000001, 2: 0.7000000000000001}))


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


def pass_moves(w):
    """(output, the atoms the move produced) for every legal pass."""
    for at, atom in enumerate(w.atoms):
        for direction, r in (("right", at + 1), ("left", at - 1)):
            beside = 0 <= r < len(w.atoms) and isinstance(w.atoms[r], RotationAtom)
            if isinstance(atom, PhaseAtom) and beside:
                out = rewrite_pass_through(w, at, direction)
                kept_after = len(w.atoms) - 1 - max(at, r)
                yield out, out.atoms[min(at, r) : len(out.atoms) - kept_after]


@settings(max_examples=300, deadline=None)
@given(turn_words())
def test_every_emitted_phase_is_wrapped(w):
    u = evaluate(w)
    merged = rewrite_merge_phases(w)
    for out, produced in [(merged, merged.atoms), *pass_moves(w)]:
        assert all(wrapped(v) for v in phase_values(produced))
        assert all(any(a.deltas.values()) for a in produced if isinstance(a, PhaseAtom))
        assert max_abs_diff(evaluate(out), u) < 1e-12
    opor = normalize(w, OPOR)
    for out in (opor, normalize(w, PA), normalize(w, KM), range_reduce(opor)):
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
