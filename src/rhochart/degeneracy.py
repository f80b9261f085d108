"""Eigenvalue-degeneracy patterns and the parameter-counting formulas.

A pattern is a multiplicity list: its classes of equal eigenvalues are runs of
consecutive indices in {1..n}, in the order of the spectrum (the class of the
first eigenvalue comes first).  Any other placement of equal eigenvalues gives
the same density matrices, since U absorbs a permutation of D.  Counting
operations return how many unitary parameters survive, or become redundant,
for a given pattern.

A :class:`DegeneracyPattern` is a tuple, as the word and chart value types are:
it unpacks to its one field and compares equal to ``(multiplicities,)``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Sequence


class DegeneracyPattern(namedtuple("DegeneracyPattern", "multiplicities")):
    """Eigenvalue-equality classes given by their multiplicities: class k is the
    k-th run of consecutive indices in 1..n.

    ``n``, the index runs ``classes`` and the index -> class table are set on
    construction; :func:`canonical_order` keeps the block order on the pattern
    on first use.  None of them is a field: they live in the instance dict, so
    equality, hash, repr and pickling read the multiplicities alone.  Nothing
    can be assigned to a pattern."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, multiplicities: Sequence[int]):
        mults = tuple(multiplicities)
        if not mults or any(type(m) is not int or m < 1 for m in mults):  # bool is not int
            raise ValueError("multiplicities must be positive")
        classes, table = [], [None]  # table: class position of each index, slot 0 unused
        for pos, m in enumerate(mults):
            classes.append(tuple(range(len(table), len(table) + m)))
            table += [pos] * m
        self = tuple.__new__(cls, (mults,))
        self.__dict__.update(n=len(table) - 1, classes=tuple(classes), _class=table)
        return self

    def __setattr__(self, name, *value):  # also __delattr__, which gets no value
        raise AttributeError(f"a DegeneracyPattern is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(self)

    @classmethod
    def from_multiplicities(cls, mults: Sequence[int]) -> "DegeneracyPattern":
        """Pattern of a multiplicity list such as [2, 1, 1]."""
        return cls(tuple(mults))

    @classmethod
    def singletons(cls, n: int) -> "DegeneracyPattern":
        if type(n) is not int:  # [1] * n takes a bool or an np.int64
            raise ValueError(f"n must be a positive integer, got {n!r}")
        return cls.from_multiplicities([1] * n)

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def degrees_of_degeneracy(p: DegeneracyPattern) -> int:
    """Number of equal-eigenvalue pairs: sum of C(multiplicity, 2)."""
    return sum(m * (m - 1) // 2 for m in p.multiplicities)


def redundant_params(p: DegeneracyPattern) -> int:
    """Unitary parameters made redundant by the pattern: sum of m*(m-1)."""
    return sum(m * (m - 1) for m in p.multiplicities)


def internal_params(p: DegeneracyPattern) -> int:
    """Independent internal unitary parameters: (n-1)^2 minus the redundancies."""
    return (p.n - 1) ** 2 - redundant_params(p)


def orbit_dim(p: DegeneracyPattern) -> int:
    """Dimension of the set of density matrices sharing the pattern's spectrum.

    Equals n^2 - sum(m^2), i.e. the unitary parameter count after dropping the
    n trailing phases and the redundant in-class block parameters.
    """
    return p.n**2 - sum(m * m for m in p.multiplicities)


def oriented_pair(i: int, j: int, n: int) -> tuple[int, int]:
    """Canonical label of the rotation pair {i, j} in dimension n.

    The label's first element is the index that carries the block's single
    phase.  The wrap-around pair {1, n} carries it on n; every other pair
    carries it on the smaller index.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) for n={n}")
    if n >= 3 and (i, j) == (1, n):
        return (n, 1)
    return (i, j)


def canonical_order(p: DegeneracyPattern) -> tuple[tuple[int, int], ...]:
    """All n(n-1)/2 oriented pair labels in the chart's block order.

    Every pair joining two different classes comes before every in-class
    pair, so the in-class blocks sit next to the eigenvalue matrix where
    they commute away.  Within each group, labels are sorted in descending
    lexicographic order, which is deterministic and reproduces the familiar
    (3,1), (2,3), (1,2) sequence for n = 3.  The order is computed on first
    use and kept on the pattern.
    """
    order = p.__dict__.get("_order")
    if order is None:
        cls = p._class
        pairs = [(i, j) for i in range(1, p.n + 1) for j in range(i + 1, p.n + 1)]
        inter = [oriented_pair(i, j, p.n) for i, j in pairs if cls[i] != cls[j]]
        intra = [oriented_pair(i, j, p.n) for i, j in pairs if cls[i] == cls[j]]
        order = tuple(sorted(inter, reverse=True) + sorted(intra, reverse=True))
        p.__dict__["_order"] = order
    return order


def all_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every integer partition of n as a non-increasing tuple."""

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n, ())
