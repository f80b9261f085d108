"""Minimal-parameter charts for density matrices with degenerate spectra.

Builds n-dimensional density matrices from the smallest possible coordinate
set: hypersphere angles for the spectrum plus one (phase, rotation) pair per
unitary block that actually moves the state.  Includes the word algebra for
rewriting between equivalent angular representations, a constructive
decomposition of arbitrary unitaries, and a JSON CLI.

Importing the package loads none of its modules: each exported name, and
each module read as an attribute, loads on first use (PEP 562).  So
``import rhochart`` and the counting formulas of :mod:`rhochart.degeneracy`
never load numpy.  Nor do the word algebra and chart values of :mod:`rhochart.words`
and :mod:`rhochart.charts`, short of :func:`evaluate` and :func:`eigen_matrix`, and
the JSON reading rules of :mod:`rhochart.jsonio`; numpy loads with the first array.
"""

import sys
import types
from importlib import import_module

#: exported names by home module
_EXPORTS = {
    "builder": ("build_commutant", "build_density", "jacobian_rank", "kept_word"),
    "charts": (
        "BlockParam", "CommutantSpec", "DensityChart", "EigenChart", "eigen_matrix", "eigenvalues",
        "fit_chart",
    ),
    "decompose": ("NotUnitaryError", "decompose"),
    "degeneracy": (
        "DegeneracyPattern", "all_partitions", "canonical_order", "degrees_of_degeneracy",
        "internal_params", "orbit_dim", "redundant_params",
    ),
    "jsonio": (),
    "numerics": (
        "DEFAULT_TOL", "DecompositionResult", "DensityReport", "adjoint", "haar_unitary", "is_unitary",
        "matrix_from_json", "matrix_to_json", "max_abs_diff", "validate_density",
    ),
    "pure": (),
    "words": (
        "PhaseAtom", "RotationAtom", "Word", "WordForm", "count_phases", "evaluate",
        "make_opor_chart", "normalize", "word_from_json", "word_to_json",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name or a submodule, loaded on first use (PEP 562)."""
    if name in _HOME:
        globals()[name] = value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
        return value
    if name in _EXPORTS:  # a submodule, bound on the package once it loads
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package, whose ``decompose`` is the function: loading the submodule of
    that name binds it on the package, and this property ignores that binding."""

    @property
    def decompose(self):
        return __getattr__("decompose")

    @decompose.setter
    def decompose(self, submodule):
        pass


sys.modules[__name__].__class__ = _Package
