"""Dense complex matrix helpers shared by the rest of the package.

All matrices are square ``numpy`` arrays of dtype ``complex128``, row-major.
Sizes reach n = 256, where an O(n^3) product per atom would dominate, so word
products run on the in-place column kernel of :mod:`rhochart.words` instead.
Equality is always tolerance-based via :func:`max_abs_diff`.
"""

from __future__ import annotations

import sys

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
    return max_abs_diff(a @ adjoint(a), np.eye(a.shape[0])) <= tol


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


def _json(value, path: str, kind):
    """``value`` read at JSON ``path`` as ``kind``: int, float, list, dict, ``[kind]`` (a list
    of ``kind``) or a tuple of kinds (a list of exactly those).  A bool is never a number; a
    float is an int or float finite as a float, returned as a float.  Anything else is a
    ``ValueError`` naming ``path``, the one way a decoder rejects its input."""
    if isinstance(kind, (list, tuple)):
        items = _json(value, path, list)
        kinds = kind * len(items) if isinstance(kind, list) else kind
        if len(items) != len(kinds):
            raise ValueError(f"{path}: expected {len(kinds)} values, got {len(items)}")
        return [_json(v, f"{path}[{k}]", t) for k, (v, t) in enumerate(zip(items, kinds))]
    if isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool):
        if kind is not float:
            return value
        if abs(value) <= sys.float_info.max:  # exact for an int; false for nan
            return float(value)
    text = repr(value) if value is None or isinstance(value, (int, float, str)) else ""
    shown = text if 0 < len(text) <= 40 else type(value).__name__
    names = {int: "an integer", float: "a finite number", list: "a list", dict: "an object"}
    raise ValueError(f"{path}: expected {names[kind]}, got {shown}")


def matrix_from_json(obj: dict) -> np.ndarray:
    obj = _json(obj, "input", dict)
    n, entries = _json(obj.get("dim"), "dim", int), _json(obj.get("entries"), "entries", list)
    if n < 1:
        raise ValueError(f"dim: expected a positive integer, got {n}")
    if len(entries) != n * n:
        raise ValueError(f"entries: expected {n * n} [re, im] pairs, got {len(entries)}")
    flat = [complex(*_json(pair, f"entries[{k}]", (float, float))) for k, pair in enumerate(entries)]
    return as_matrix(np.array(flat, dtype=np.complex128).reshape(n, n))
