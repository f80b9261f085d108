"""Factor a unitary into the one phase-one rotation chart.

Works by successive elimination: for each block label of the all-singleton
canonical order, a single inverse block (a complex Givens rotation whose
phase absorbs the argument of the targeted entry) is applied on the left to
zero one upper off-diagonal entry.  Earlier zeros are preserved by the order,
so the residue is diagonal and becomes the trailing phase matrix.  The
recovered blocks are exactly the chart's, so this is the constructive
inverse of ``make_opor_chart``.

The elimination, :func:`_eliminate`, runs a ``(rotate, phase)`` pair on conj(u):
left-applying the inverse block R^T P* to t is left-applying R^T P to conj(t).
:func:`decompose` runs it on ``words.row_kernel``, the row kernel of ``words.evaluate``,
and the CLI's numpy-free engine (:mod:`rhochart.pure`) on ``words.list_kernel``.
Loading this module loads neither numpy nor ``dataclasses``: :func:`decompose` loads
:mod:`rhochart.numerics`, which holds its :class:`~rhochart.numerics.DecompositionResult`,
on its first call, and the numpy-free engine takes only :func:`_eliminate` and
:class:`NotUnitaryError` from here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .degeneracy import DegeneracyPattern, canonical_order
from .jsonio import DEFAULT_TOL
from .words import Word, _wrap, evaluate, opor_word, row_kernel

if TYPE_CHECKING:
    import numpy as np

    from .numerics import DecompositionResult

#: entries below this modulus count as already eliminated
ELIM_EPS = 1e-14


class NotUnitaryError(ValueError):
    """Input matrix is too far from unitary to decompose."""


def _eliminate(n: int, entry, rotate, phase) -> Word:
    """The chart word of the unitary whose conjugate v is reduced in place by ``(rotate,
    phase)``; ``entry(r, c)`` reads v's 0-based entry as a Python complex.  Every phase
    is read by ``math.atan2``; a unitary's entries are bounded, so ``abs`` cannot overflow."""
    blocks = []
    for a, b in canonical_order(DegeneracyPattern.singletons(n)):
        i, j = min(a, b), max(a, b)
        tij = entry(i - 1, j - 1).conjugate()
        tjj = entry(j - 1, j - 1).conjugate()
        if abs(tij) < ELIM_EPS:
            delta, theta = 0.0, 0.0
        else:
            theta = math.atan2(abs(tij), abs(tjj))
            if abs(tjj) < ELIM_EPS:
                delta = 0.0
            else:
                x, y = math.atan2(tij.imag, tij.real), math.atan2(tjj.imag, tjj.real)
                delta = _wrap(x - y if a == i else y - x, abs(x) + abs(y))
        blocks.append(((a, b), delta, theta))
        phase(a, delta)
        rotate(i, j, theta)
    diagonal = (entry(k, k) for k in range(n))
    trailing = [_wrap(-x, abs(x)) for x in (math.atan2(z.imag, z.real) for z in diagonal)]
    return opor_word(n, blocks, trailing)


def decompose(u: np.ndarray, tol: float = DEFAULT_TOL) -> DecompositionResult:
    """Factor ``u`` into phase-rotation blocks and a trailing diagonal.

    ``u`` must satisfy ``is_unitary(u, tol)``; inputs farther away are
    rejected rather than projected.  All recovered angles land in
    [0, pi/2] and phases in [0, 2*pi).  At block angles 0 or pi/2 the block
    phase is not determined by the matrix; it is set to 0.
    """
    import numpy as np

    from . import numerics

    u = numerics.as_matrix(u)
    if not numerics.is_unitary(u, tol):
        raise NotUnitaryError(f"input is not unitary within {tol}")
    v = np.ascontiguousarray(u.conj())  # t = conj(v) is the matrix being reduced
    word = _eliminate(u.shape[0], v.item, *row_kernel(v))
    residual = numerics.max_abs_diff(u, evaluate(word))
    return numerics.DecompositionResult(word=word, residual=residual)
