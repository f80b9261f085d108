"""Dense-matrix helpers, density validation, the matrix JSON format for arrays, and
the numpy library's two result types.

All matrices are square ``numpy`` arrays of dtype ``complex128``, row-major.
Equality is always tolerance-based via :func:`max_abs_diff`.  Word products run
on the row kernel of :mod:`rhochart.words`, not here.  The matrix's row codec lives in
numpy-free :mod:`rhochart.jsonio`, and its two array adapters here:
:func:`matrix_from_json` is ``jsonio.matrix_rows`` through :func:`as_matrix`, and
:func:`matrix_to_json` is ``jsonio.matrix_json`` behind the same finite-entry check.
The density report's pass and null rules are ``jsonio``'s too, so a ``verify`` above
``cli.PURE_DIM_MAX`` loads this module and nothing else that needs numpy.
:class:`DensityReport` and :class:`DecompositionResult` are the package's only
dataclasses, so this is the one module that imports ``dataclasses``; the numpy-free
engine, :mod:`rhochart.pure`, returns plain values and never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# numpy-free; the benchmark reads DEFAULT_TOL here
from .jsonio import DEFAULT_TOL, matrix_json, matrix_rows, passes, report_json


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a square complex matrix with finite entries."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # a complex entry is finite when both its parts are
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.asarray(a, dtype=np.complex128)).T


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest modulus of an entry of ``a - b``; the package equality metric."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True when ``a @ a^dagger`` is the identity within ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = as_matrix(a)
    # finite entries can still overflow the product; inf or NaN there is not the identity
    with np.errstate(over="ignore", invalid="ignore"):
        return max_abs_diff(a @ adjoint(a), np.eye(a.shape[0])) <= tol


@dataclass(frozen=True)
class DensityReport:
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float
    tol: float
    passed: bool

    def to_json(self) -> dict:
        return report_json(self.hermiticity_error, self.trace_error, self.min_eigenvalue, self.tol, self.passed)


@dataclass(frozen=True)
class DecompositionResult:
    """Chart word reproducing the input, plus the reconstruction error."""

    word: "Word"  # a rhochart.words.Word, named only: this module loads no word algebra
    residual: float


def validate_density(m: np.ndarray, tol: float = DEFAULT_TOL) -> DensityReport:
    """Check the defining conditions: hermiticity, unit trace, no negative
    eigenvalue beyond ``tol``.  A check that overflows to inf or NaN fails."""
    m = as_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):
        adj, tr = adjoint(m), complex(np.trace(m))
        herm = max_abs_diff(m, adj)
        trace = abs(tr.real - 1.0) + abs(tr.imag)
        sym = (m + adj) / 2.0
    min_eig = float(np.min(np.linalg.eigvalsh(sym))) if np.isfinite(sym).all() else math.nan
    return DensityReport(herm, trace, min_eig, tol, passes(herm, trace, min_eig, tol))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from a QR-orthonormalized complex Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def matrix_to_json(m: np.ndarray) -> dict:
    """:func:`rhochart.jsonio.matrix_json` of a square matrix with finite entries."""
    return matrix_json(as_matrix(m))


def matrix_from_json(obj: dict) -> np.ndarray:
    """:func:`rhochart.jsonio.matrix_rows` as a square complex matrix: every field is
    checked before any array exists."""
    return as_matrix(matrix_rows(obj))
