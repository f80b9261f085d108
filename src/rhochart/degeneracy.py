"""Eigenvalue-degeneracy patterns and the parameter-counting formulas.

A pattern partitions the index set {1..n} into classes of equal eigenvalues,
listed in the ordering convention of the spectrum (the class of the first
eigenvalue comes first).  Counting operations return how many unitary
parameters survive, or become redundant, for a given pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class DegeneracyPattern:
    """Ordered partition of {1..n} into eigenvalue-equality classes."""

    n: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        table = [None] * (self.n + 1)
        for pos, cls in enumerate(self.classes):
            if not cls:
                raise ValueError("empty class")
            for idx in cls:
                if not 1 <= idx <= self.n:
                    raise ValueError(f"index {idx} outside 1..{self.n}")
                if table[idx] is not None:
                    raise ValueError(f"index {idx} appears in two classes")
                table[idx] = pos
        if None in table[1:]:
            raise ValueError("classes must cover every index exactly once")
        # class position of each index (slot 0 unused); derived, so not a field
        object.__setattr__(self, "_class", table)

    @classmethod
    def from_multiplicities(cls, mults: Sequence[int]) -> "DegeneracyPattern":
        """Contiguous classes from a multiplicity list such as [2, 1, 1]."""
        if not mults or any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        classes = []
        start = 1
        for m in mults:
            classes.append(tuple(range(start, start + m)))
            start += m
        return cls(n=start - 1, classes=tuple(classes))

    @classmethod
    def singletons(cls, n: int) -> "DegeneracyPattern":
        return cls.from_multiplicities([1] * n)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.classes)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def same_class(self, i: int, j: int) -> bool:
        for index in (i, j):
            if not 1 <= index <= self.n:
                raise ValueError(f"index {index} outside 1..{self.n}")
        return self._class[i] == self._class[j]


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
    (3,1), (2,3), (1,2) sequence for n = 3.
    """
    cls = p._class
    pairs = [(i, j) for i in range(1, p.n + 1) for j in range(i + 1, p.n + 1)]
    inter = [oriented_pair(i, j, p.n) for i, j in pairs if cls[i] != cls[j]]
    intra = [oriented_pair(i, j, p.n) for i, j in pairs if cls[i] == cls[j]]
    return tuple(sorted(inter, reverse=True) + sorted(intra, reverse=True))


def all_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every integer partition of n as a non-increasing tuple."""

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n, ())
