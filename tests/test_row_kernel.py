"""The row kernel behind ``evaluate``, ``decompose`` and the rank oracle gives
the column kernel's results: the same values, density matrices byte for byte,
and the same factored words (``conftest.reference_evaluate`` and
``conftest.reference_decompose`` keep the column kernel).  Its 0-d coefficient
registers give the bytes of Python-scalar coefficients, signed zeros included
(``conftest.scalar_row_kernel``).  Its pure-Python twin, which checks a small
rewrite without numpy, gives ``evaluate``'s values on rotations and numpy's gap
within a few ulps on words with phases."""

import json
import math
from importlib import import_module

import numpy as np
import pytest

from conftest import (
    EDGE_ANGLES,
    at_edges,
    density_build_patterns,
    edge_corpus,
    phased_permutation,
    random_interleaved_word,
    random_word,
    reference_decompose,
    reference_evaluate,
    scalar_row_kernel,
)
from rhochart.builder import _jacobian, build_density, kept_word, random_density_chart
from rhochart.charts import eigen_matrix
from rhochart.decompose import decompose
from rhochart.degeneracy import DegeneracyPattern
from rhochart.numerics import adjoint, haar_unitary, max_abs_diff
from rhochart.words import (
    PhaseAtom,
    RotationAtom,
    Word,
    WordForm,
    _gap,
    _rows,
    evaluate,
    make_opor_chart,
    normalize,
    word_to_json,
)

TWO_PI = 2 * math.pi
SIZES = (3, 4, 8, 16, 32)


def edge_opor_chart(n, rng):
    """opor chart with about half of its phases and thetas at an edge angle."""
    params = rng.uniform(0.0, TWO_PI, n * n)
    params[1 : n * (n - 1) : 2] = rng.uniform(0.0, math.pi / 2, n * (n - 1) // 2)
    at_edge = rng.random(n * n) < 0.5
    params[at_edge] = rng.choice(EDGE_ANGLES[:2], size=int(at_edge.sum()))
    return make_opor_chart(n, params)


@pytest.mark.parametrize("n", SIZES)
def test_row_kernel_matches_the_column_kernel(n):
    rng = np.random.default_rng(21 + n)
    words = [at_edges(random_word(n, rng, unique_pairs=bool(k % 2)), rng) for k in range(40)]
    words += [random_interleaved_word(n, rng) for _ in range(2)]
    charts = [random_density_chart(p, rng) for p in density_build_patterns(n) for _ in range(5)]
    words += [kept_word(c) for c in charts]
    for w in words:
        u = evaluate(w)
        assert u.flags.c_contiguous and np.array_equal(u, reference_evaluate(w)), w
    for c in charts:
        u = reference_evaluate(kept_word(c))
        assert build_density(c).tobytes() == (u @ eigen_matrix(c.eigen) @ adjoint(u)).tobytes()
    unitaries = [haar_unitary(n, rng) for _ in range(5)]
    unitaries += [phased_permutation(n, rng) for _ in range(5)]
    unitaries += [evaluate(edge_opor_chart(n, rng)) for _ in range(5)]
    for u in unitaries:
        got, want = decompose(u), reference_decompose(u)
        assert json.dumps(word_to_json(got.word)) == json.dumps(word_to_json(want.word))
        assert got.residual == want.residual


#: the modules that look ``row_kernel`` up when they run it
KERNEL_MODULES = ("rhochart.words", "rhochart.decompose", "rhochart.builder")


def with_scalar_kernel(monkeypatch, f, inputs):
    """``[f(x) for x in inputs]`` with ``scalar_row_kernel`` bound in place of
    ``words.row_kernel`` in every module that runs it."""
    with monkeypatch.context() as m:
        for name in KERNEL_MODULES:
            m.setattr(import_module(name), "row_kernel", scalar_row_kernel)
        return [f(x) for x in inputs]


def differing(inputs, got, want):
    return [x for x, a, b in zip(inputs, got, want, strict=True) if a != b]


def test_registers_give_the_scalar_bytes_on_evaluate(monkeypatch):
    words = list(edge_corpus())
    for n in range(3, 33):
        rng = np.random.default_rng(90 + n)
        words += [random_word(n, rng, max_atoms=40, unique_pairs=False) for _ in range(3)]
        words += [random_interleaved_word(n, rng)]
        words += [kept_word(random_density_chart(p, rng)) for p in density_build_patterns(n)]
    assert sum(isinstance(a, PhaseAtom) and len(a.deltas) > 1 for w in words for a in w.atoms) > 1000

    def product(w):
        return evaluate(w).tobytes()  # tobytes: unlike array_equal, it sees the sign of a zero

    got = [product(w) for w in words]
    assert differing(words, got, with_scalar_kernel(monkeypatch, product, words)) == []


@pytest.mark.parametrize("n", SIZES)
def test_registers_give_the_scalar_bytes_on_decompose(monkeypatch, n):
    rng = np.random.default_rng(95 + n)
    unitaries = [haar_unitary(n, rng) for _ in range(5)]
    unitaries += [phased_permutation(n, rng) for _ in range(5)]
    unitaries += [evaluate(edge_opor_chart(n, rng)) for _ in range(5)]

    def factored(u):
        result = decompose(u)  # the JSON keeps a phase's signed zero, and hex the residual's bits
        return json.dumps(word_to_json(result.word)), result.residual.hex()

    got = [factored(u) for u in unitaries]
    assert differing(range(len(unitaries)), got, with_scalar_kernel(monkeypatch, factored, unitaries)) == []


def test_registers_give_the_scalar_bytes_on_the_jacobian(monkeypatch):
    rng = np.random.default_rng(99)
    patterns = [DegeneracyPattern.from_multiplicities(m) for n in (2, 3, 4, 5, 8) for m in ((1,) * n, (n - 1, 1))]
    charts = [random_density_chart(p, rng, interior=True) for p in patterns for _ in range(3)]

    def jacobian(c):
        return _jacobian(c, True).tobytes()

    got = [jacobian(c) for c in charts]
    assert differing(charts, got, with_scalar_kernel(monkeypatch, jacobian, charts)) == []


#: largest |pure-Python gap - numpy gap| allowed on words with phases: numpy's complex
#: multiply fuses, Python's does not.  The largest seen over 1,680 opor and km rewrites
#: of random, edge-angle and interleaved words at n = 2..32 was 8.6e-16.
GAP_AGREEMENT = 2e-15


@pytest.mark.parametrize("n", (2,) + SIZES)
def test_pure_rows_equal_evaluate_on_rotations(n):
    rng = np.random.default_rng(60 + n)
    for k in range(40):
        w = at_edges(random_word(n, rng, max_atoms=60, unique_pairs=bool(k % 2)), rng)
        rotations = Word(n, [a for a in w.atoms if isinstance(a, RotationAtom)])
        # array_equal: an exact zero may carry either sign, as in evaluate
        assert np.array_equal(np.array(_rows(rotations)), evaluate(rotations).T), rotations


@pytest.mark.parametrize("n", (2,) + SIZES)
def test_pure_gap_agrees_with_numpy(n):
    rng = np.random.default_rng(70 + n)
    words = [random_word(n, rng) for _ in range(20)] + [random_interleaved_word(n, rng) for _ in range(2)]
    for w in words:
        for target in (WordForm.ONE_PHASE_ONE_ROTATION, WordForm.KM):
            out = normalize(w, target)
            want = max_abs_diff(evaluate(w), evaluate(out))
            assert abs(_gap(w, out) - want) <= GAP_AGREEMENT, (w, target)


@pytest.mark.parametrize("n", (2,) + SIZES)
def test_pure_gap_is_zero_on_equal_words(n):
    rng = np.random.default_rng(80 + n)
    for w in [at_edges(random_word(n, rng), rng) for _ in range(10)] + [random_interleaved_word(n, rng)]:
        assert _gap(w, w) == 0.0
        opor = normalize(w, WordForm.ONE_PHASE_ONE_ROTATION)
        assert _gap(opor, normalize(opor, WordForm.ONE_PHASE_ONE_ROTATION)) == 0.0
