import itertools
import pickle

import numpy as np
import pytest
from conftest import all_multiplicity_lists, random_pattern, reference_canonical_order
from hypothesis import given
from hypothesis import strategies as st

from rhochart import degeneracy
from rhochart.cli import main
from rhochart.degeneracy import (
    DegeneracyPattern,
    all_partitions,
    canonical_order,
    degrees_of_degeneracy,
    internal_params,
    orbit_dim,
    oriented_pair,
    redundant_params,
)


def pat(*mults):
    return DegeneracyPattern.from_multiplicities(list(mults))


# golden counting values

def test_degrees_of_degeneracy_golden():
    assert degrees_of_degeneracy(pat(2, 1, 1)) == 1
    assert degrees_of_degeneracy(pat(3, 1)) == 3
    assert degrees_of_degeneracy(pat(1, 1, 1, 1)) == 0


def test_redundant_params_golden():
    assert redundant_params(pat(2, 1, 1)) == 2
    assert redundant_params(pat(2, 2)) == 4
    assert redundant_params(pat(1, 1, 1, 1)) == 0


def test_internal_params_golden():
    assert internal_params(pat(2, 1, 1)) == 7
    assert internal_params(pat(3, 1)) == 3
    assert internal_params(pat(1, 1, 1, 1)) == 9


def test_orbit_dim_examples():
    assert orbit_dim(pat(1, 1, 1)) == 6
    assert orbit_dim(pat(2, 1)) == 4
    assert orbit_dim(pat(3)) == 0
    assert orbit_dim(pat(2, 1, 1)) == 10


mult_lists = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)


@given(mult_lists)
def test_counting_identities(mults):
    p = DegeneracyPattern.from_multiplicities(mults)
    assert internal_params(p) + redundant_params(p) == (p.n - 1) ** 2
    assert redundant_params(p) == 2 * degrees_of_degeneracy(p)
    assert orbit_dim(p) == p.n**2 - p.n - redundant_params(p)


def test_counting_identities_partition_sweep():
    for n in range(2, 7):
        for mults in all_partitions(n):
            p = DegeneracyPattern.from_multiplicities(list(mults))
            assert internal_params(p) + redundant_params(p) == (n - 1) ** 2
            assert redundant_params(p) == 2 * degrees_of_degeneracy(p)


def test_parameter_counts_agree_with_the_orbit_dimension():
    # internal_params is defined from redundant_params; orbit_dim from sum(m^2)
    for mults in all_multiplicity_lists(8):
        p = pat(*mults)
        assert internal_params(p) == orbit_dim(p) - (p.n - 1), mults
        assert redundant_params(p) == sum(m * m for m in mults) - p.n, mults


def test_all_partitions_counts():
    # partition numbers p(2)..p(6) = 2, 3, 5, 7, 11
    assert [len(list(all_partitions(n))) for n in range(2, 7)] == [2, 3, 5, 7, 11]


# pattern type behaviour

def test_pattern_validation():
    with pytest.raises(ValueError):
        DegeneracyPattern.from_multiplicities([0, 3])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pat(1.5), "^multiplicities must be positive$"),
        (lambda: pat(2.0, 1), "^multiplicities must be positive$"),
        (lambda: pat(True, 2), "^multiplicities must be positive$"),
        (lambda: pat(), "^multiplicities must be positive$"),
        (lambda: pat(2, -1), "^multiplicities must be positive$"),
        (lambda: oriented_pair(2, 2, 3), r"need 1 <= i < j <= n, got \(2, 2\) for n=3"),
    ],
    ids=["fraction", "integral-float", "bool", "empty", "negative", "pair-not-increasing"],
)
def test_pattern_errors_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# canonical block order

def test_oriented_pair():
    assert oriented_pair(1, 3, 3) == (3, 1)
    assert oriented_pair(1, 2, 3) == (1, 2)
    assert oriented_pair(2, 3, 3) == (2, 3)
    assert oriented_pair(1, 2, 2) == (1, 2)
    assert oriented_pair(1, 4, 4) == (4, 1)
    assert oriented_pair(1, 3, 4) == (1, 3)


def test_canonical_order_n3_golden():
    assert canonical_order(pat(2, 1)) == ((3, 1), (2, 3), (1, 2))
    assert canonical_order(DegeneracyPattern.from_multiplicities([1, 2])) == (
        (3, 1),
        (1, 2),
        (2, 3),
    )
    assert canonical_order(pat(1, 1, 1)) == ((3, 1), (2, 3), (1, 2))


def test_canonical_order_matches_the_reference_on_every_small_pattern():
    # every ordered multiplicity list of n <= 8: one per set of cut points in 1..n-1
    # (n = 1 and 2 have no wrap label); the order made on first use is the one kept
    compositions = 0
    for n, k in itertools.product(range(1, 9), range(8)):
        for cuts in itertools.combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            p = pat(*(b - a for a, b in zip(bounds, bounds[1:])))
            order = canonical_order(p)
            assert order == reference_canonical_order(p) and canonical_order(p) is order, p
            compositions += 1
    assert compositions == 2**8 - 1


def test_canonical_order_matches_the_reference_on_scattered_patterns():
    # up to n = 256, the CLI's largest dimension
    rng = np.random.default_rng(17)
    patterns = [DegeneracyPattern.singletons(256)] + [
        random_pattern(int(n), rng) for n in [256, *rng.integers(2, 257, size=39)]
    ]
    for p in patterns:
        assert canonical_order(p) == reference_canonical_order(p), p.multiplicities


def test_a_pattern_that_stores_its_order_keeps_its_value():
    for mults in [(1,), (1, 1), (2, 1), (1, 2, 1), (4, 4), (1,) * 9]:
        fresh, used = DegeneracyPattern(mults), DegeneracyPattern(mults)
        canonical_order(used)
        for p in (used, pickle.loads(pickle.dumps(used))):
            assert (p == fresh, hash(p), repr(p)) == (True, hash(fresh), repr(fresh))
            assert canonical_order(p) == canonical_order(fresh)


def test_building_and_counting_a_pattern_leave_its_order_unmade(monkeypatch, capsys):
    def refuse(i, j, n):
        raise AssertionError("the block order was computed")

    monkeypatch.setattr(degeneracy, "oriented_pair", refuse)  # every order is built from its labels
    p = DegeneracyPattern.singletons(256)
    counts = [f(p) for f in (degrees_of_degeneracy, redundant_params, internal_params, orbit_dim)]
    assert counts == [0, 0, 255**2, 256**2 - 256]
    assert main(["count", "--pattern", ",".join(["1"] * 256)]) == 0
    assert '"orbit_dim": 65280' in capsys.readouterr().out


@given(mult_lists)
def test_canonical_order_properties(mults):
    p = DegeneracyPattern.from_multiplicities(mults)
    order = canonical_order(p)
    assert len(order) == p.n * (p.n - 1) // 2
    assert len(set(frozenset(lab) for lab in order)) == len(order)
    seen_intra = False
    for a, b in order:
        if p._class[a] == p._class[b]:
            seen_intra = True
        else:
            assert not seen_intra, "inter-class pair after an in-class pair"
