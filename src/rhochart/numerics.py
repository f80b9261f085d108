"""Dense complex matrix helpers shared by the rest of the package.

All matrices are square ``numpy`` arrays of dtype ``complex128``, row-major.
Sizes reach n = 32, where an O(n^3) product per atom would dominate, so word
products run on the in-place column kernel of :mod:`rhochart.words` instead.
Equality is always tolerance-based via :func:`max_abs_diff`.
"""

from __future__ import annotations

import numpy as np

#: library-wide default comparison tolerance, overridable per call
DEFAULT_TOL = 1e-10


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a square complex matrix with finite entries."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


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
    return max_abs_diff(a @ adjoint(a), identity(a.shape[0])) <= tol


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from a QR-orthonormalized complex Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def matrix_to_json(m: np.ndarray) -> dict:
    """Encode as ``{"dim": n, "entries": [[re, im], ...]}``, row-major."""
    m = as_matrix(m)
    n = m.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"dim": n, "entries": entries}


def _json_number(value, field: str, kind=(int, float)):
    """``value`` if JSON read it as ``kind`` (a bool is neither); numbers come back as floats."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{field}: {value!r} is not {'an integer' if kind is int else 'a number'}")
    return value if kind is int else float(value)


def matrix_from_json(obj: dict) -> np.ndarray:
    n, entries = _json_number(obj["dim"], "dim", int), obj["entries"]
    if n < 1:
        raise ValueError("dim must be a positive integer")
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    flat = [complex(_json_number(re, "entries"), _json_number(im, "entries")) for re, im in entries]
    return as_matrix(np.array(flat, dtype=np.complex128).reshape(n, n))
