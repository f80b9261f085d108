"""Shared generators and dense references for the test suite (all explicitly seeded)."""

import math

import numpy as np

from rhochart.degeneracy import DegeneracyPattern
from rhochart.words import PhaseAtom, RotationAtom, Word

TWO_PI = 2.0 * np.pi


# dense references: one n x n matrix per atom, multiplied in listed order


def dense_rotation(n, i, j, theta):
    m = np.eye(n, dtype=np.complex128)
    c, s = math.cos(theta), math.sin(theta)
    m[i - 1, i - 1] = c
    m[j - 1, j - 1] = c
    m[i - 1, j - 1] = s
    m[j - 1, i - 1] = -s
    return m


def dense_phase(n, deltas):
    d = np.ones(n, dtype=np.complex128)
    for idx, val in deltas.items():
        d[idx - 1] = np.exp(1j * val)
    return np.diag(d)


def dense_product(word):
    """Reference for ``evaluate``: the product of dense atom matrices."""
    u = np.eye(word.n, dtype=np.complex128)
    for atom in word.atoms:
        if isinstance(atom, RotationAtom):
            u = u @ dense_rotation(word.n, atom.i, atom.j, atom.theta)
        else:
            u = u @ dense_phase(word.n, atom.deltas)
    return u


def all_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def random_word(n, rng, max_atoms=20, unique_pairs=True) -> Word:
    """Random mixed word; rotation pairs drawn without replacement by default."""
    pairs = all_pairs(n)
    rng.shuffle(pairs)
    available = list(pairs)
    atoms = []
    n_atoms = int(rng.integers(1, max_atoms + 1))
    for _ in range(n_atoms):
        use_rotation = rng.random() < 0.5 and (available or not unique_pairs)
        if use_rotation:
            if unique_pairs:
                i, j = available.pop()
            else:
                i, j = pairs[int(rng.integers(0, len(pairs)))]
            atoms.append(RotationAtom(i, j, float(rng.uniform(-np.pi, np.pi))))
        else:
            support = [k + 1 for k in range(n) if rng.random() < 0.6]
            deltas = {k: float(rng.uniform(0.0, TWO_PI)) for k in support}
            atoms.append(PhaseAtom(deltas))
    return Word(n=n, atoms=tuple(atoms))


def diagonal_pair_sequence(n):
    """All pairs swept superdiagonal by superdiagonal: (1,2), (2,3), ..., (1,n)."""
    out = []
    for d in range(1, n):
        for i in range(1, n - d + 1):
            out.append((i, i + d))
    return out


def random_interleaved_word(n, rng) -> Word:
    """Full diagonal phases between every rotation: the most general
    phase-interleaved representation over all pairs."""
    atoms = [PhaseAtom({k + 1: float(v) for k, v in enumerate(rng.uniform(0, TWO_PI, n))})]
    for i, j in diagonal_pair_sequence(n):
        atoms.append(RotationAtom(i, j, float(rng.uniform(0.0, np.pi / 2))))
        atoms.append(PhaseAtom({k + 1: float(v) for k, v in enumerate(rng.uniform(0, TWO_PI, n))}))
    return Word(n=n, atoms=tuple(atoms))


def random_pattern(n, rng) -> DegeneracyPattern:
    """Random ordered multiplicity composition of n."""
    mults = []
    remaining = n
    while remaining:
        m = int(rng.integers(1, remaining + 1))
        mults.append(m)
        remaining -= m
    return DegeneracyPattern.from_multiplicities(mults)
