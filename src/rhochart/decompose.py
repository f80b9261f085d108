"""Factor a unitary into the one phase-one rotation chart.

Works by successive elimination: for each block label of the all-singleton
canonical order, a single inverse block (a complex Givens rotation whose
phase absorbs the argument of the targeted entry) is applied on the left to
zero one upper off-diagonal entry.  Earlier zeros are preserved by the order,
so the residue is diagonal and becomes the trailing phase matrix.  The
recovered blocks are exactly the chart's, so this is the constructive
inverse of ``make_opor_chart``.

The elimination is the column kernel of ``words.evaluate`` run on u^dagger:
left-applying the inverse block R^T P* to t is right-applying P R to t^dagger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .degeneracy import DegeneracyPattern, canonical_order
from .words import Word, _wrap, evaluate, opor_word, phase_column, rotate_columns

#: entries below this modulus count as already eliminated
ELIM_EPS = 1e-14


class NotUnitaryError(ValueError):
    """Input matrix is too far from unitary to decompose."""


@dataclass(frozen=True)
class DecompositionResult:
    """Chart word reproducing the input, plus the reconstruction error."""

    word: Word
    residual: float


def decompose(u: np.ndarray, tol: float = numerics.DEFAULT_TOL) -> DecompositionResult:
    """Factor ``u`` into phase-rotation blocks and a trailing diagonal.

    ``u`` must satisfy ``is_unitary(u, tol)``; inputs farther away are
    rejected rather than projected.  All recovered angles land in
    [0, pi/2] and phases in [0, 2*pi).  At block angles 0 or pi/2 the block
    phase is not determined by the matrix; it is set to 0.
    """
    u = numerics.as_matrix(u)
    if not numerics.is_unitary(u, tol):
        raise NotUnitaryError(f"input is not unitary within {tol}")
    n = u.shape[0]
    v = numerics.adjoint(u)  # t = v^dagger is the matrix being reduced
    blocks = []
    for a, b in canonical_order(DegeneracyPattern.singletons(n)):
        i, j = min(a, b), max(a, b)
        tij = v[j - 1, i - 1].conjugate()
        tjj = v[j - 1, j - 1].conjugate()
        if abs(tij) < ELIM_EPS:
            delta, theta = 0.0, 0.0
        else:
            theta = math.atan2(abs(tij), abs(tjj))
            if abs(tjj) < ELIM_EPS:
                delta = 0.0
            else:
                x, y = float(np.angle(tij)), float(np.angle(tjj))
                delta = _wrap(x - y if a == i else y - x, abs(x) + abs(y))
        blocks.append(((a, b), delta, theta))
        phase_column(v, a, delta)
        rotate_columns(v, i, j, theta)
    trailing = [_wrap(-x, abs(x)) for x in (float(np.angle(v[k, k])) for k in range(n))]
    word = opor_word(n, blocks, trailing)
    residual = numerics.max_abs_diff(u, evaluate(word))
    return DecompositionResult(word=word, residual=residual)
