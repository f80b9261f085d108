"""Minimal-parameter charts for density matrices with degenerate spectra.

Builds n-dimensional density matrices from the smallest possible coordinate
set: hypersphere angles for the spectrum plus one (phase, rotation) pair per
unitary block that actually moves the state.  Includes the word algebra for
rewriting between equivalent angular representations, a constructive
decomposition of arbitrary unitaries, and a JSON CLI.
"""

from .builder import (
    BlockParam,
    CommutantSpec,
    DensityChart,
    DensityReport,
    build_commutant,
    build_density,
    jacobian_rank,
    kept_word,
    prune_equivalence,
    validate_density,
)
from .charts import EigenChart, eigen_matrix, eigenvalues, fit_chart
from .decompose import DecompositionResult, NotUnitaryError, decompose
from .degeneracy import (
    DegeneracyPattern,
    all_partitions,
    canonical_order,
    degrees_of_degeneracy,
    internal_params,
    orbit_dim,
    redundant_params,
)
from .numerics import (
    DEFAULT_TOL,
    adjoint,
    haar_unitary,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    max_abs_diff,
)
from .words import (
    PhaseAtom,
    RotationAtom,
    UnreachableFormError,
    Word,
    WordForm,
    count_phases,
    evaluate,
    make_opor_chart,
    make_phase_adjoint_chart,
    normalize,
    range_reduce,
    rewrite_merge_phases,
    rewrite_pass_through,
    word_from_json,
    word_to_json,
)

__version__ = "0.1.0"
