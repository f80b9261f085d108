"""The block form is checked where it enters: ``BlockParam`` checks each label
and its angles, the density chart and the commutant spec check the labels and
the spec its diagonal, and ``make_opor_chart`` checks a flat chart vector.
``opor_word`` builds its atoms and word from that form without checking again,
so every word it renders must be one the checked constructors accept."""

import json
import math
import re
from importlib import import_module

import numpy as np
import pytest

from conftest import EDGE_ANGLES, density_build_patterns, edge_corpus, phased_permutation
from rhochart.builder import build_commutant, kept_word, random_commutant_spec, random_density_chart
from rhochart.charts import BlockParam, CommutantSpec, DensityChart, EigenChart
from rhochart.decompose import decompose
from rhochart.degeneracy import DegeneracyPattern
from rhochart.numerics import haar_unitary
from rhochart.words import (
    PhaseAtom,
    RotationAtom,
    Word,
    WordForm,
    make_opor_chart,
    normalize,
    opor_word,
    word_from_json,
    word_to_json,
)

SIZES = (3, 4, 8, 16, 32)
PAIR = DegeneracyPattern((1, 1))  # one kept block, (1, 2)
SPEC_PATTERN = DegeneracyPattern((2, 1))  # one in-class block, (1, 2)


# labels


def test_density_chart_refuses_a_bool_block_label():
    # (True, 2) == (1, 2), the pattern's one kept label
    with pytest.raises(ValueError, match=r"^block label must be a pair of distinct integers >= 1, got \(True, 2\)$"):
        DensityChart(PAIR, EigenChart(PAIR, (0.5,)), [BlockParam((True, 2), 0.1, 0.2)])


def test_density_chart_refuses_a_numpy_int_block_label():
    with pytest.raises(ValueError, match="^block label must be a pair of distinct integers >= 1"):
        DensityChart(PAIR, EigenChart(PAIR, (0.5,)), [BlockParam((np.int64(1), np.int64(2)), 0.1, 0.2)])


@pytest.mark.parametrize(
    "label", [(1, 1), (0, 1), (2, -1), (1.0, 2), [1, 2], (1, 2, 3), (1,), 12, None], ids=repr
)
def test_block_param_refuses_a_label_that_is_not_two_distinct_positive_ints(label):
    with pytest.raises(ValueError, match="^block label must be"):
        BlockParam(label, 0.1, 0.2)
    with pytest.raises(ValueError, match="^block label must be"):
        BlockParam((1, 2), 0.1, 0.2)._replace(block=label)


# commutant diagonal


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", None, 1j], ids=repr)
def test_commutant_spec_refuses_a_phase_that_is_not_a_finite_real(bad):
    blocks = [BlockParam((1, 2), 0.5, 0.6)]
    with pytest.raises(ValueError, match=r"^phases\[0\]: expected a finite number, got "):
        CommutantSpec(SPEC_PATTERN, blocks, [bad, 0.0, 0.0])
    spec = CommutantSpec(SPEC_PATTERN, blocks, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^phases\[2\]: expected a finite number, got "):
        spec._replace(phases=(0.0, 0.0, bad))


def test_commutant_spec_takes_any_finite_real_phase():
    spec = CommutantSpec(SPEC_PATTERN, [BlockParam((1, 2), 0.5, 0.6)], [np.float64(0.1), 0, -7.5])
    assert spec.phases == (0.1, 0, -7.5)


# flat chart vectors


@pytest.mark.parametrize("pos", [2, 3, 7], ids=["delta", "theta", "trailing"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, np.False_, np.int64(1)], ids=repr)
def test_a_chart_parameter_that_is_not_a_finite_number_is_named_by_its_position(bad, pos):
    params = [0.25] * 9  # n = 3: blocks (3, 1), (2, 3), (1, 2), then three trailing phases
    params[pos] = bad
    with pytest.raises(ValueError, match=rf"^params\[{pos}\]: expected a finite number, got {re.escape(repr(bad))}$"):
        make_opor_chart(3, params)


@pytest.mark.parametrize("n", [True, np.int64(2), 0, -2], ids=repr)
def test_chart_dimension_must_be_a_python_int(n):
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        make_opor_chart(n, [0.0] * int(n) ** 2)


# every rendered word


@pytest.fixture(name="rendered")
def rendered_fixture(monkeypatch):
    """The words ``opor_word`` returns, recorded wherever it is called from."""
    words = []

    def recording(*args):
        words.append(opor_word(*args))
        return words[-1]

    for name in ("words", "builder", "decompose"):  # rhochart.decompose is the function
        monkeypatch.setattr(import_module(f"rhochart.{name}"), "opor_word", recording)
    return words


def at_edge(value, rng):
    return float(rng.choice(EDGE_ANGLES[:2])) if rng.random() < 0.5 else value


def kept_words():
    """Density-build's four pattern kinds, about half of each chart's angles at 0 or pi/2."""
    rng = np.random.default_rng(5)
    for n in SIZES:
        for pattern in density_build_patterns(n):
            for _ in range(3):
                c = random_density_chart(pattern, rng)
                edged = [BlockParam(bp.block, at_edge(bp.delta, rng), at_edge(bp.theta, rng)) for bp in c.unitary_params]
                kept_word(c._replace(unitary_params=edged))


def commutant_words():
    rng = np.random.default_rng(6)
    for n in SIZES:
        for pattern in density_build_patterns(n):
            build_commutant(random_commutant_spec(pattern, rng))


def decomposed_words():
    rng = np.random.default_rng(7)
    for n in (2,) + SIZES:
        for _ in range(3):
            decompose(haar_unitary(n, rng))
            decompose(phased_permutation(n, rng))


def normalized_words():
    for w in edge_corpus():
        normalize(w, WordForm.ONE_PHASE_ONE_ROTATION)


def chart_words():
    rng = np.random.default_rng(8)
    for n in (1, 2) + SIZES:
        make_opor_chart(n, rng.uniform(0.0, 2 * math.pi, n * n))
        make_opor_chart(n, rng.choice(EDGE_ANGLES[:2], n * n))


@pytest.mark.parametrize(
    "render",
    [kept_words, commutant_words, decomposed_words, normalized_words, chart_words],
    ids=["kept_word", "build_commutant", "decompose", "normalize-opor", "make_opor_chart"],
)
def test_every_rendered_word_passes_the_checked_constructors(render, rendered):
    render()
    assert rendered
    for w in rendered:
        assert type(w) is Word and all(type(a) in (PhaseAtom, RotationAtom) for a in w.atoms), w
        assert Word(w.n, [type(a)(*a) for a in w.atoms]) == w, w
        assert word_from_json(json.loads(json.dumps(word_to_json(w)))) == w, w
