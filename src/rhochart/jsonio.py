"""The JSON reading rules every decoder shares, and the package's constants.

:func:`_number` is the one finite-number rule, for every number a decoder reads or a
value type holds: nan and +-inf are refused in its one wording.  Nothing here loads
numpy, and this module imports no other of the package: a request whose JSON a decoder
refuses never pays for either.
The matrix's row codec is here: :func:`matrix_rows` decodes a matrix to Python rows, and
:func:`matrix_json` encodes rows or an array alike.  Its two array adapters,
``matrix_from_json`` and ``matrix_to_json``, live in :mod:`rhochart.numerics`.  The word
and chart decoders load no numpy either.
"""

from __future__ import annotations

import math
import sys

#: library-wide default comparison tolerance, overridable per call
DEFAULT_TOL = 1e-10
TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2
_MAX = sys.float_info.max


def _json(value, path: str, kind):
    """``value`` read at JSON ``path`` as ``kind``: int, float, list, dict, ``[kind]`` (a list
    of ``kind``) or a tuple of kinds (a list of exactly those).  A bool is never a number; a
    float is a number :func:`_number` takes, returned as a float.  Anything else is a
    ``ValueError`` naming ``path``, the one way a decoder rejects its input."""
    if isinstance(kind, (list, tuple)):
        items = _json(value, path, list)
        kinds = kind * len(items) if isinstance(kind, list) else kind
        if len(items) != len(kinds):
            raise ValueError(f"{path}: expected {len(kinds)} values, got {len(items)}")
        return [_json(v, f"{path}[{k}]", t) for k, (v, t) in enumerate(zip(items, kinds))]
    if isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool):
        return float(_number(value, path)) if kind is float else value
    text = repr(value) if value is None or isinstance(value, (int, float, str)) else ""
    names = {int: "an integer", float: "a finite number", list: "a list", dict: "an object"}
    raise ValueError(f"{path}: expected {names[kind]}, got {_shown(value, text)}")


def _shown(value, text: str) -> str:
    """``text``, a refused value's repr, or its type's name if that is empty or over 40 characters."""
    return text if 0 < len(text) <= 40 else type(value).__name__


def _number(value, path: str = ""):
    """``value``, refused unless it is a Python int or a float (numpy's float64 is a float)
    in [-MAX, MAX], MAX the largest float.  nan, +-inf, an int past float range, a bool, a
    numpy integer or a float32 has no JSON form that decodes back to it, so no value holds one."""
    if (isinstance(value, float) or type(value) is int) and -_MAX <= value <= _MAX:  # false for nan
        return value
    raise ValueError(f"{path}{': ' if path else ''}expected a finite number, got {_shown(value, repr(value))}")


def passes(herm: float, trace: float, min_eig: float, tol: float) -> bool:
    """The density conditions: hermiticity and trace within ``tol`` and no eigenvalue
    below ``-tol``; a check that is nan fails."""
    return herm <= tol and trace <= tol and min_eig >= -tol


def report_json(herm: float, trace: float, min_eig: float, tol: float, passed: bool) -> dict:
    """A density report as strict JSON: a check that is not finite reads null."""
    report = {"hermiticity_error": herm, "trace_error": trace, "min_eigenvalue": min_eig, "tol": tol}
    report = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in report.items()}
    return {**report, "passed": passed}


def _built(path: str, make, *args):
    """``make(*args)``, a ``ValueError`` prefixed with the JSON ``path`` its arguments came from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def matrix_rows(obj: dict) -> list[list[complex]]:
    """Decode ``{"dim": n, "entries": [[re, im], ...]}``, row-major, to n rows of
    Python complex; every field is checked, and nothing loads numpy."""
    obj = _json(obj, "input", dict)
    n, entries = _json(obj.get("dim"), "dim", int), _json(obj.get("entries"), "entries", list)
    if n < 1:
        raise ValueError(f"dim: expected a positive integer, got {n}")
    if len(entries) != n * n:
        raise ValueError(f"entries: expected {n * n} [re, im] pairs, got {len(entries)}")
    flat = [complex(*_json(pair, f"entries[{k}]", (float, float))) for k, pair in enumerate(entries)]
    return [flat[r : r + n] for r in range(0, n * n, n)]


def matrix_json(m) -> dict:
    """Encode rows of Python complex, or an array through ``.tolist()``, as
    ``{"dim": n, "entries": [[re, im], ...]}``, row-major; an array's ``.tolist()`` is
    its rows of Python complex, so ``json.dumps`` writes the same bytes for both."""
    rows = m.tolist() if hasattr(m, "tolist") else m
    return {"dim": len(rows), "entries": [[z.real, z.imag] for row in rows for z in row]}
