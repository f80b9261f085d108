"""The JSON reading rules every decoder shares, and the package's angle constants.

Nothing here loads numpy: a request whose JSON a decoder refuses never pays for
it.  :func:`matrix_from_json` checks every field first and loads the dense-matrix
layer only for a well-formed matrix, and :func:`chart_fields` reads a density
chart's fields, whose values the chart types then check.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2


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


def _number(value, path: str = ""):
    """``value``, refused unless it is a Python int or float (numpy's float64 is a float),
    the kinds :func:`_json` returns: a bool, a numpy integer or a float32 has no JSON form
    that decodes back to it, so no value type holds one."""
    if type(value) is not int and not isinstance(value, float):
        raise ValueError(f"{path}{': ' if path else ''}expected a finite number, got {value!r}")
    return value


def _built(path: str, make, *args):
    """``make(*args)``, a ``ValueError`` prefixed with the JSON ``path`` its arguments came from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def chart_fields(obj: dict) -> tuple[list, list, list]:
    """A density chart's ``(pattern, eigen_angles, unitary_params)``, each field read
    with its type and shape checked, a parameter as ``(block, delta, theta)``."""
    obj = _json(obj, "input", dict)
    mults = _json(obj.get("pattern"), "pattern", [int])
    angles = _json(obj.get("eigen_angles"), "eigen_angles", [float])
    params = []
    for pos, e in enumerate(_json(obj.get("unitary_params"), "unitary_params", [dict])):
        at = f"unitary_params[{pos}]"
        block = tuple(_json(e.get("block"), f"{at}.block", (int, int)))
        params.append((block, *(_json(e.get(k), f"{at}.{k}", float) for k in ("delta", "theta"))))
    return mults, angles, params


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode ``{"dim": n, "entries": [[re, im], ...]}``, row-major, to a square
    complex matrix; every field is checked before numpy loads."""
    obj = _json(obj, "input", dict)
    n, entries = _json(obj.get("dim"), "dim", int), _json(obj.get("entries"), "entries", list)
    if n < 1:
        raise ValueError(f"dim: expected a positive integer, got {n}")
    if len(entries) != n * n:
        raise ValueError(f"entries: expected {n * n} [re, im] pairs, got {len(entries)}")
    flat = [complex(*_json(pair, f"entries[{k}]", (float, float))) for k, pair in enumerate(entries)]
    import numpy as np

    from .numerics import as_matrix

    return as_matrix(np.array(flat, dtype=np.complex128).reshape(n, n))
