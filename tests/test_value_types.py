"""The contract of the package's tuple value types: the degeneracy pattern, the
atoms and words, the eigen and density charts, the commutant spec and the block
parameter.  Each is a validated ``namedtuple`` subclass: it keeps its repr and
its equality and hash by value, refuses assignment, round-trips through pickle
and deepcopy, and checks a ``_replace`` as it checks construction.  None takes a
bool, a numpy integer or a float32 as a number, so every value with a JSON form
decodes back from it."""

import copy
import json
import math
import pickle
import re

import numpy as np
import pytest

from rhochart.builder import BlockParam, CommutantSpec, DensityChart
from rhochart.charts import EigenChart
from rhochart.degeneracy import DegeneracyPattern, canonical_order
from rhochart.words import PhaseAtom, RotationAtom, Word, word_from_json, word_to_json

PATTERN = DegeneracyPattern((2, 1))  # blocks (3, 1), (2, 3) kept, (1, 2) in-class
EIGEN = EigenChart(PATTERN, (0.5,))
KEPT = (BlockParam((3, 1), 0.1, 0.2), BlockParam((2, 3), 0.3, 0.4))
P = "DegeneracyPattern(multiplicities=(2, 1))"

#: (constructor call, its repr, a ``_replace`` its checks refuse)
CASES = {
    "DegeneracyPattern": (lambda: DegeneracyPattern((2, 1)), P, {"multiplicities": (2, 0)}),
    "RotationAtom": (lambda: RotationAtom(1, 2, 0.3), "RotationAtom(i=1, j=2, theta=0.3)", {"i": 5}),
    "PhaseAtom": (lambda: PhaseAtom({1: 0.3}), "PhaseAtom(deltas={1: 0.3})", {"deltas": {0: 0.3}}),
    "Word": (
        lambda: Word(3, [RotationAtom(1, 3, 0.4)]),
        "Word(n=3, atoms=(RotationAtom(i=1, j=3, theta=0.4),))",
        {"n": 2},
    ),
    "EigenChart": (lambda: EigenChart(PATTERN, [0.5]), f"EigenChart(pattern={P}, angles=(0.5,))", {"angles": (2.0,)}),
    "BlockParam": (
        lambda: BlockParam((3, 1), 0.1, 0.2),
        "BlockParam(block=(3, 1), delta=0.1, theta=0.2)",
        {"theta": 2.0},
    ),
    "DensityChart": (
        lambda: DensityChart(PATTERN, EIGEN, list(KEPT)),
        f"DensityChart(pattern={P}, eigen=EigenChart(pattern={P}, angles=(0.5,)), unitary_params="
        "(BlockParam(block=(3, 1), delta=0.1, theta=0.2), BlockParam(block=(2, 3), delta=0.3, theta=0.4)))",
        {"unitary_params": KEPT[:1]},
    ),
    "CommutantSpec": (
        lambda: CommutantSpec(PATTERN, [BlockParam((1, 2), 0.5, 0.6)], [0.1, 0.2, 0.3]),
        f"CommutantSpec(pattern={P}, block_params=(BlockParam(block=(1, 2), delta=0.5, theta=0.6),), "
        "phases=(0.1, 0.2, 0.3))",
        {"phases": (0.1,)},
    ),
}


@pytest.fixture(params=list(CASES), name="case")
def case_fixture(request):
    return CASES[request.param]


def test_repr_is_the_field_listing(case):
    make, text, _ = case
    assert repr(make()) == str(make()) == text


def test_equality_and_hash_are_by_value(case):
    make, _, _ = case
    a, b = make(), make()
    assert a == b and not a != b and a is not b
    if isinstance(a, PhaseAtom):
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_a_value_is_the_tuple_of_its_fields(case):
    make, _, _ = case
    v = make()
    *fields, = v
    assert v == tuple(v) and fields == [getattr(v, f) for f in v._fields]
    assert not any(isinstance(field, list) for field in fields)  # a list given is kept as a tuple


def test_fields_and_new_attributes_cannot_be_assigned(case):
    make, _, _ = case
    v = make()
    for name in (*v._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, None)
    assert v == make()


def test_pickle_and_deepcopy_give_an_equal_value(case):
    make, text, _ = case
    v = make()
    for twin in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
        assert type(twin) is type(v) and twin == v and repr(twin) == text


def test_replace_is_checked_like_construction(case):
    make, _, bad = case
    v = make()
    assert v._replace() == v and type(v._replace()) is type(v)
    with pytest.raises(ValueError):
        v._replace(**bad)
    with pytest.raises(ValueError):
        v._make([bad.get(f, getattr(v, f)) for f in v._fields])


def test_a_pattern_keeps_its_derived_values_off_its_fields():
    p = DegeneracyPattern([1, 2])
    assert p._fields == ("multiplicities",) and p.multiplicities == (1, 2)
    assert (p.n, p.classes) == (3, ((1,), (2, 3)))
    for name in ("n", "classes", "_class", "_order"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    with pytest.raises(AttributeError):
        del p.n
    fresh = pickle.dumps(p)
    canonical_order(p)
    assert pickle.dumps(p) == fresh  # pickled by its multiplicities alone
    assert canonical_order(pickle.loads(fresh)) == canonical_order(p)



#: values a decoder never returns as a number: json.dumps writes a bool as one and
#: refuses a numpy integer or float32
NOT_NUMBERS = (True, False, np.True_, np.False_, np.int64(1), np.float32(0.5))

#: every number a value type holds, as the construction of one value with ``flag`` there
SITES = {
    "RotationAtom.theta": lambda flag: RotationAtom(1, 2, flag),
    "RotationAtom._replace": lambda flag: RotationAtom(1, 2, 0.3)._replace(theta=flag),
    "PhaseAtom.deltas": lambda flag: PhaseAtom({1: 0.3, 2: flag}),
    "BlockParam.delta": lambda flag: BlockParam((3, 1), flag, 0.2),
    "BlockParam.theta": lambda flag: BlockParam((3, 1), 0.1, flag),
    "EigenChart.angles": lambda flag: EigenChart(PATTERN, (flag,)),
    "DensityChart._from_fields": lambda flag: DensityChart._from_fields([2, 1], [flag], []),
    "CommutantSpec.phases": lambda flag: CommutantSpec(PATTERN, [BlockParam((1, 2), 0.5, 0.6)], (0.1, flag, 0.3)),
}


@pytest.mark.parametrize("flag", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("site", list(SITES))
def test_no_value_type_takes_a_value_a_decoder_never_returns(site, flag):
    # worded as the decoders refuse one: 0 <= True <= pi/2, and math.isfinite(True) holds
    with pytest.raises(ValueError, match=rf"expected a finite number, got {re.escape(repr(flag))}$"):
        SITES[site](flag)


#: numbers the value types take: Python ints and floats, a signed zero, numpy's float64
NUMBERS = (0, 1, 0.0, -0.0, 0.3, math.pi / 2, np.float64(0.7))


def with_json(x):
    """(construction, encoder, decoder) of the two value types with a JSON form, with ``x``
    in every number: the word holds both atoms, and the density chart the pattern, the
    eigen chart and the block parameters."""
    word = lambda: Word(3, [RotationAtom(1, 3, x), PhaseAtom({1: x, 3: -x}), RotationAtom(2, 3, x - 4)])
    params = lambda: [BlockParam((3, 1), x, x), BlockParam((2, 3), 6.0, x)]
    chart = lambda: DensityChart(PATTERN, EigenChart(PATTERN, (x,)), params())
    return [(word, word_to_json, word_from_json), (chart, DensityChart.to_json, DensityChart.from_json)]


@pytest.mark.parametrize("x", NUMBERS + NOT_NUMBERS, ids=repr)
def test_every_value_that_constructs_decodes_back_from_its_json(x):
    built = 0
    for make, encode, decode in with_json(x):
        try:
            value = make()
        except ValueError:
            continue
        back = decode(json.loads(json.dumps(encode(value), allow_nan=False)))
        assert type(back) is type(value) and back == value
        built += 1
    assert built == (0 if any(x is flag for flag in NOT_NUMBERS) else 2)  # 0 == False
