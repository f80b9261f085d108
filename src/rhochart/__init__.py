"""Minimal-parameter charts for density matrices with degenerate spectra.

Builds n-dimensional density matrices from the smallest possible coordinate
set: hypersphere angles for the spectrum plus one (phase, rotation) pair per
unitary block that actually moves the state.  Includes the word algebra for
rewriting between equivalent angular representations, a constructive
decomposition of arbitrary unitaries, and a JSON CLI.

Importing the package loads none of its modules: each exported name, and
each module read as an attribute, loads on first use (PEP 562).  So
``import rhochart`` and the counting formulas of :mod:`rhochart.degeneracy`
never load numpy.
"""

import sys
import types
from importlib import import_module

#: exported names by home module
_EXPORTS = {
    "builder": (
        "BlockParam", "CommutantSpec", "DensityChart", "DensityReport", "build_commutant",
        "build_density", "jacobian_rank", "kept_word", "prune_equivalence", "validate_density",
    ),
    "charts": ("EigenChart", "eigen_matrix", "eigenvalues", "fit_chart"),
    "decompose": ("DecompositionResult", "NotUnitaryError", "decompose"),
    "degeneracy": (
        "DegeneracyPattern", "all_partitions", "canonical_order", "degrees_of_degeneracy",
        "internal_params", "orbit_dim", "redundant_params",
    ),
    "numerics": (
        "DEFAULT_TOL", "adjoint", "haar_unitary", "is_unitary", "matrix_from_json",
        "matrix_to_json", "max_abs_diff",
    ),
    "words": (
        "PhaseAtom", "RotationAtom", "Word", "WordForm", "count_phases", "evaluate",
        "make_opor_chart", "make_phase_adjoint_chart", "normalize", "rewrite_merge_phases",
        "rewrite_pass_through", "word_from_json", "word_to_json",
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
