"""Hypersphere charts for eigenvalue matrices.

Squared polar coordinates on a k-sphere give k class masses that are
non-negative and sum to one by construction; each mass is then shared
equally by the indices of its class.  Degenerate spectra therefore use a
lower-dimensional sphere, with one angle per class boundary.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

import numpy as np

from .degeneracy import DegeneracyPattern
from .jsonio import HALF_PI, _number

FIT_TOL = 1e-9


class EigenChart(namedtuple("EigenChart", "pattern angles")):
    """Angles on [0, pi/2]^(k-1) selecting a spectrum for ``pattern``; a validated tuple."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, pattern: DegeneracyPattern, angles: Iterable[float]):
        angles, k = tuple(angles), pattern.num_classes
        if len(angles) != k - 1:
            raise ValueError(f"expected {k - 1} angles for {k} classes, got {len(angles)}")
        for a in angles:
            _angle(a)
        return tuple.__new__(cls, (pattern, angles))


def _angle(a: float) -> float:
    """``a``, refused unless it is a number in [0, pi/2]."""
    if not 0.0 <= _number(a) <= HALF_PI:
        raise ValueError(f"angle {a} outside [0, pi/2]")
    return a


def class_masses(c: EigenChart) -> list[float]:
    """Squared polar components, one per class; non-negative, summing to 1.

    cos^2 is computed as 1 - sin^2 so the telescoping sum stays within a few
    ulp of one.
    """
    k = c.pattern.num_classes
    sin2 = [math.sin(a) ** 2 for a in c.angles]
    masses = [0.0] * k
    tail = 1.0  # product of sin^2 over the angles not yet consumed
    for m in range(k - 1, 0, -1):
        masses[m] = (1.0 - sin2[m - 1]) * tail
        tail *= sin2[m - 1]
    masses[0] = tail
    return masses


def spread(pattern: DegeneracyPattern, masses) -> list[float]:
    """Per-index values in index order, each class's mass shared equally by its
    indices; entries inside one class are bitwise equal.  Classes past the end of
    ``masses`` get 0."""
    values = [0.0] * pattern.n
    for mass, cls in zip(masses, pattern.classes):
        share = mass / len(cls)
        for idx in cls:
            values[idx - 1] = share
    return values


def eigenvalues(c: EigenChart) -> list[float]:
    """Spectrum in index order."""
    return spread(c.pattern, class_masses(c))


def eigen_matrix(c: EigenChart) -> np.ndarray:
    return np.diag(np.asarray(eigenvalues(c), dtype=np.complex128))


def fit_chart(values, pattern: DegeneracyPattern) -> EigenChart:
    """Inverse of :func:`eigenvalues` on the canonical angle range.

    ``values`` must be non-negative, sum to one and be constant within each
    class of ``pattern``, each within ``FIT_TOL``.
    """
    values = [float(v) for v in values]
    if len(values) != pattern.n:
        raise ValueError(f"expected {pattern.n} values, got {len(values)}")
    if any(v < -FIT_TOL for v in values):
        raise ValueError("negative eigenvalue")
    if abs(sum(values) - 1.0) > FIT_TOL:
        raise ValueError(f"trace {sum(values)} is not 1")
    masses = []
    for cls in pattern.classes:
        members = [values[idx - 1] for idx in cls]
        if max(members) - min(members) > FIT_TOL:
            raise ValueError(f"values not constant on class {cls}")
        masses.append(sum(members))

    k = pattern.num_classes
    angles = []
    partial = masses[0]
    for m in range(1, k):
        # partial = mass of the first m classes = sin^2 of the next angle,
        # relative to the not-yet-normalized remainder
        angles.append(math.atan2(math.sqrt(max(partial, 0.0)), math.sqrt(max(masses[m], 0.0))))
        partial += masses[m]
    return EigenChart(pattern=pattern, angles=tuple(angles))
