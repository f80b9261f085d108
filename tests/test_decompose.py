import math

import numpy as np
import pytest

from rhochart.decompose import DecompositionResult, NotUnitaryError, decompose
from rhochart.numerics import haar_unitary, max_abs_diff
from rhochart.words import (
    PhaseAtom,
    RotationAtom,
    WordForm,
    classify_form,
    evaluate,
    make_opor_chart,
)

TWO_PI = 2 * math.pi


def chart_values(word):
    out = []
    for atom in word.atoms:
        if isinstance(atom, RotationAtom):
            out.append(("theta", atom.theta))
        else:
            out.extend(("delta", v) for v in atom.deltas.values())
    return out


def test_identity_decomposes_to_zero_parameters():
    result = decompose(np.eye(4, dtype=complex))
    assert result.residual == 0.0
    for kind, value in chart_values(result.word):
        assert value == 0.0


def test_single_block_round_trip():
    delta, theta = 0.7, 0.4
    u = evaluate(make_opor_chart(2, [delta, theta, 0.0, 0.0]))
    result = decompose(u)
    assert max_abs_diff(evaluate(result.word), u) < 1e-13
    assert result.residual < 1e-13


def test_round_trip_random_unitaries():
    rng = np.random.default_rng(0)
    for n in range(2, 9):
        for _ in range(20):
            u = haar_unitary(n, rng)
            result = decompose(u)
            assert result.residual < 1e-12
            assert max_abs_diff(evaluate(result.word), u) < 1e-12


def test_output_form_and_ranges():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5):
        result = decompose(haar_unitary(n, rng))
        assert classify_form(result.word) is WordForm.ONE_PHASE_ONE_ROTATION
        for atom in result.word.atoms:
            if isinstance(atom, RotationAtom):
                assert 0.0 <= atom.theta <= math.pi / 2
            else:
                assert all(0.0 <= v < TWO_PI for v in atom.deltas.values())
        # the full chart is recovered, trailing diagonal included
        rotations = sum(isinstance(a, RotationAtom) for a in result.word.atoms)
        phases = sum(len(a.deltas) for a in result.word.atoms if isinstance(a, PhaseAtom))
        assert 2 * rotations + (phases - rotations) == n * n


def test_phases_at_zero_stay_below_two_pi():
    # a true phase of 0 may come back as a tiny negative angle, which % 2*pi rounds to 2*pi
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(50):
            m = n * (n - 1) // 2
            deltas = rng.uniform(0, TWO_PI, m + n) * (rng.random(m + n) < 0.5)
            blocks = np.column_stack([deltas[:m], rng.uniform(0.1, 1.4, m)]).ravel()
            result = decompose(evaluate(make_opor_chart(n, np.concatenate([blocks, deltas[m:]]))))
            assert result.residual < 1e-10
            for kind, value in chart_values(result.word):
                if kind == "delta":
                    assert 0.0 <= value < TWO_PI


def test_double_round_trip_is_stable():
    rng = np.random.default_rng(2)
    u = evaluate(make_opor_chart(4, rng.uniform(0, 1, 16)))
    first = decompose(u)
    second = decompose(evaluate(first.word))
    assert max_abs_diff(evaluate(second.word), u) < 1e-12


def test_rejects_non_unitary_input():
    with pytest.raises(NotUnitaryError):
        decompose(np.diag([2.0, 1.0]).astype(complex))
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3)))


def test_boundary_angles_get_zero_phase():
    # a bare quarter rotation leaves the eliminated column's phase undetermined
    u = evaluate(make_opor_chart(2, [0.0, math.pi / 2, 0.0, 0.0]))
    result = decompose(u)
    assert result.residual < 1e-15
    first_phase = result.word.atoms[0]
    assert isinstance(first_phase, PhaseAtom)
    assert set(first_phase.deltas.values()) == {0.0}


def test_decompose_leaves_input_unchanged():
    u = haar_unitary(5, np.random.default_rng(11))
    before = u.copy()
    decompose(u)
    assert np.array_equal(u, before)
