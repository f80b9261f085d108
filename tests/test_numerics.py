import numpy as np
import pytest

from rhochart import numerics
from rhochart.words import make_opor_chart, evaluate


def test_adjoint_identity_and_phases():
    assert numerics.max_abs_diff(numerics.adjoint(np.eye(4, dtype=complex)), np.eye(4, dtype=complex)) == 0.0
    d = np.diag(np.exp(1j * np.array([0.3, 1.1, 5.0])))
    assert numerics.max_abs_diff(numerics.adjoint(d), np.diag(np.exp(-1j * np.array([0.3, 1.1, 5.0])))) == 0.0


def test_adjoint_involution_exact():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(numerics.adjoint(numerics.adjoint(m)), m)


def test_adjoint_antihomomorphism():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = numerics.haar_unitary(4, rng)
        b = numerics.haar_unitary(4, rng)
        lhs = numerics.adjoint(a @ b)
        rhs = numerics.adjoint(b) @ numerics.adjoint(a)
        assert numerics.max_abs_diff(lhs, rhs) <= 1e-14


def test_multiply_associative_on_unitaries():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a, b, c = (numerics.haar_unitary(n, rng) for _ in range(3))
        assert numerics.max_abs_diff((a @ b) @ c, a @ (b @ c)) <= 1e-13


def test_max_abs_diff_basics():
    assert numerics.max_abs_diff(np.eye(3, dtype=complex), np.eye(3, dtype=complex)) == 0.0
    near = np.diag([1.0, 1.0 + 1e-13]).astype(complex)
    assert numerics.max_abs_diff(np.eye(2, dtype=complex), near) == (1.0 + 1e-13) - 1.0


def test_is_unitary():
    assert numerics.is_unitary(np.eye(5, dtype=complex), 1e-12)
    assert not numerics.is_unitary(np.diag([2.0, 1.0]).astype(complex), 1e-9)
    with pytest.raises(ValueError):
        numerics.is_unitary(np.eye(2, dtype=complex), 0.0)


def test_word_evaluations_are_unitary():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        w = make_opor_chart(n, rng.uniform(0, 2 * np.pi, n * n))
        assert numerics.is_unitary(evaluate(w), 1e-12)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(6)
    for n in (2, 4, 8):
        assert numerics.is_unitary(numerics.haar_unitary(n, rng), 1e-12)


def test_json_round_trip():
    rng = np.random.default_rng(7)
    m = numerics.haar_unitary(3, rng)
    again = numerics.matrix_from_json(numerics.matrix_to_json(m))
    assert numerics.max_abs_diff(m, again) == 0.0


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        numerics.matrix_from_json({"dim": 2, "entries": [[1, 0]]})
    with pytest.raises(ValueError):
        numerics.matrix_from_json({"dim": 2, "entries": [[np.nan, 0], [0, 0], [0, 0], [1, 0]]})
    with pytest.raises(ValueError):
        numerics.as_matrix(np.zeros((2, 3)))
