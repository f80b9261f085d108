"""Assemble density matrices from minimal charts and their commutants.

A density chart holds a degeneracy pattern, eigenvalue angles and one
(phase, angle) pair per rotation block that joins two different eigenvalue
classes.  Blocks inside a class commute with the eigenvalue matrix and are
pruned, together with the trailing diagonal, so the chart carries exactly
``orbit_dim(pattern)`` unitary parameters.  A finite-difference Jacobian
rank check is provided as the numerical oracle for that count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .charts import EigenChart, class_masses, eigen_matrix, eigenvalues, fit_chart
from .degeneracy import DegeneracyPattern, canonical_order, orbit_dim
from .words import HALF_PI, TWO_PI, Word, _split_chart_params, evaluate, opor_word

#: finite-difference step and relative SVD threshold for the rank oracle
FD_STEP = 1e-6
SVD_THRESHOLD = 1e-7

#: minimum class-mass separation for a chart to count as interior
MASS_GAP = 1e-6


@dataclass(frozen=True)
class BlockParam:
    """(phase, angle) of one chart block, tagged with its oriented pair label."""

    block: tuple[int, int]
    delta: float
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.delta < TWO_PI) or not (0.0 <= self.theta <= HALF_PI):
            raise ValueError(
                f"block {self.block}: delta must lie in [0, 2*pi), theta in [0, pi/2]"
            )


def kept_blocks(pattern: DegeneracyPattern) -> tuple[tuple[int, int], ...]:
    """Chart blocks that survive pruning: the pairs joining distinct classes."""
    return tuple(
        lab for lab in canonical_order(pattern) if not pattern.same_class(lab[0], lab[1])
    )


def dropped_blocks(pattern: DegeneracyPattern) -> tuple[tuple[int, int], ...]:
    return tuple(lab for lab in canonical_order(pattern) if pattern.same_class(lab[0], lab[1]))


@dataclass(frozen=True)
class DensityChart:
    """Minimal coordinates of a density matrix with the given spectrum type."""

    pattern: DegeneracyPattern
    eigen: EigenChart
    unitary_params: tuple[BlockParam, ...]

    def __post_init__(self):
        if self.eigen.pattern != self.pattern:
            raise ValueError("eigen chart pattern differs from the density pattern")
        expected = kept_blocks(self.pattern)
        got = tuple(bp.block for bp in self.unitary_params)
        if got != expected:
            raise ValueError(f"expected blocks {expected}, got {got}")
        if 2 * len(self.unitary_params) != orbit_dim(self.pattern):
            raise ValueError("unitary parameter count does not match the orbit dimension")

    def to_json(self) -> dict:
        return {
            "pattern": list(self.pattern.multiplicities),
            "eigen_angles": list(self.eigen.angles),
            "unitary_params": [
                {"block": list(bp.block), "delta": bp.delta, "theta": bp.theta}
                for bp in self.unitary_params
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DensityChart":
        pattern = DegeneracyPattern.from_multiplicities(obj["pattern"])
        eigen = EigenChart(pattern=pattern, angles=tuple(obj["eigen_angles"]))
        params = tuple(
            BlockParam(block=tuple(e["block"]), delta=float(e["delta"]), theta=float(e["theta"]))
            for e in obj["unitary_params"]
        )
        return cls(pattern=pattern, eigen=eigen, unitary_params=params)


@dataclass(frozen=True)
class CommutantSpec:
    """Parameters of a unitary commuting with every pattern-respecting diagonal.

    Holds one (phase, angle) pair per in-class rotation block plus a full
    diagonal of n phases; redundant_params(pattern) + n values in total.
    """

    pattern: DegeneracyPattern
    block_params: tuple[BlockParam, ...]
    phases: tuple[float, ...]

    def __post_init__(self):
        expected = dropped_blocks(self.pattern)
        got = tuple(bp.block for bp in self.block_params)
        if got != expected:
            raise ValueError(f"expected in-class blocks {expected}, got {got}")
        for bp in self.block_params:
            a, b = bp.block
            if not self.pattern.same_class(a, b):
                raise ValueError(f"block {bp.block} crosses a class boundary")
        if len(self.phases) != self.pattern.n:
            raise ValueError(f"expected {self.pattern.n} diagonal phases")

    @property
    def param_count(self) -> int:
        return 2 * len(self.block_params) + len(self.phases)


def _blocks(params) -> list:
    return [(bp.block, bp.delta, bp.theta) for bp in params]


def kept_word(c: DensityChart) -> Word:
    """The pruned unitary word: in-class blocks and trailing diagonal removed."""
    return opor_word(c.pattern.n, _blocks(c.unitary_params))


def commutant_word(s: CommutantSpec) -> Word:
    return opor_word(s.pattern.n, _blocks(s.block_params), s.phases)


def build_density(c: DensityChart) -> np.ndarray:
    """rho = U D U^dagger with U the pruned chart word and D the eigen matrix."""
    u = evaluate(kept_word(c))
    d = eigen_matrix(c.eigen)
    return u @ d @ numerics.adjoint(u)


def build_commutant(s: CommutantSpec) -> np.ndarray:
    """Unitary commuting with every diagonal that respects the pattern."""
    return evaluate(commutant_word(s))


def split_full_params(full_params, pattern: DegeneracyPattern):
    """Partition a full n^2 chart parameter vector into kept and dropped parts.

    ``full_params`` lays out one (delta, theta) pair per block of
    ``canonical_order(pattern)`` followed by n trailing phases.  Returns
    (kept BlockParams, dropped BlockParams, trailing phases).
    """
    blocks, trailing = _split_chart_params(pattern, full_params)
    kept, dropped = [], []
    for lab, delta, theta in blocks:
        bp = BlockParam(block=lab, delta=delta, theta=theta)
        (dropped if pattern.same_class(*lab) else kept).append(bp)
    return tuple(kept), tuple(dropped), tuple(trailing)


def prune_equivalence(full_params, pattern: DegeneracyPattern, eigen_angles=None) -> DensityChart:
    """Delete the in-class block parameters and the trailing diagonal.

    The deleted parameters generate a commutant of the eigen matrix, so the
    resulting chart describes the same density matrix family with
    ``orbit_dim(pattern)`` unitary parameters.  ``eigen_angles`` selects the
    spectrum; when omitted, a generic interior spectrum with distinct class
    masses is used.
    """
    kept, _, _ = split_full_params(full_params, pattern)
    if eigen_angles is None:
        # generic interior spectrum: class masses proportional to 1, 2, ..., k
        k = pattern.num_classes
        masses = [2.0 * (m + 1) / (k * (k + 1)) for m in range(k)]
        spectrum = [0.0] * pattern.n
        for mass, cls in zip(masses, pattern.classes):
            for idx in cls:
                spectrum[idx - 1] = mass / len(cls)
        eigen = fit_chart(spectrum, pattern)
    else:
        eigen = EigenChart(pattern=pattern, angles=tuple(eigen_angles))
    return DensityChart(pattern=pattern, eigen=eigen, unitary_params=kept)


# ---------------------------------------------------------------------------
# numerical rank oracle


def _chart_with(c: DensityChart, unitary_values, eigen_values) -> DensityChart:
    params = tuple(
        BlockParam(block=bp.block, delta=float(d) % TWO_PI, theta=float(t))
        for bp, (d, t) in zip(c.unitary_params, zip(unitary_values[::2], unitary_values[1::2]))
    )
    eigen = EigenChart(pattern=c.pattern, angles=tuple(float(a) for a in eigen_values))
    return DensityChart(pattern=c.pattern, eigen=eigen, unitary_params=params)


def _require_interior(c: DensityChart, step: float):
    for bp in c.unitary_params:
        if not (step < bp.theta < HALF_PI - step):
            raise ValueError(f"block {bp.block}: theta {bp.theta} is not interior")
        if not (step < bp.delta < TWO_PI - step):
            raise ValueError(f"block {bp.block}: delta {bp.delta} is not interior")
    for a in c.eigen.angles:
        if not (step < a < HALF_PI - step):
            raise ValueError(f"eigen angle {a} is not interior")
    masses = class_masses(c.eigen)
    for p in range(len(masses)):
        for q in range(p + 1, len(masses)):
            if abs(masses[p] - masses[q]) < MASS_GAP:
                raise ValueError("class masses too close; pattern would be accidentally larger")


def jacobian_rank(
    c: DensityChart,
    include_eigen: bool = False,
    step: float = FD_STEP,
    svd_threshold: float = SVD_THRESHOLD,
) -> int:
    """Numerical rank of d(rho)/d(params) at the chart point.

    Central differences with the given step; rank counts singular values
    above ``svd_threshold`` relative to the largest.  The chart must be
    interior: angles strictly inside their ranges and class masses separated,
    otherwise the rank would not reflect the declared pattern.
    """
    _require_interior(c, step)
    base_u = []
    for bp in c.unitary_params:
        base_u.extend([bp.delta, bp.theta])
    base_e = list(c.eigen.angles)
    num_u = len(base_u)
    num_params = num_u + (len(base_e) if include_eigen else 0)
    if num_params == 0:
        return 0

    def rho_flat(vec) -> np.ndarray:
        u = vec[:num_u]
        e = vec[num_u:] if include_eigen else base_e
        rho = build_density(_chart_with(c, u, e))
        return np.concatenate([rho.real.reshape(-1), rho.imag.reshape(-1)])

    point = np.array(base_u + (base_e if include_eigen else []), dtype=float)
    columns = []
    for p in range(num_params):
        plus = point.copy()
        minus = point.copy()
        plus[p] += step
        minus[p] -= step
        columns.append((rho_flat(plus) - rho_flat(minus)) / (2.0 * step))
    jac = np.stack(columns, axis=1)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > svd_threshold * sv[0]))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class DensityReport:
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float
    tol: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "hermiticity_error": self.hermiticity_error,
            "trace_error": self.trace_error,
            "min_eigenvalue": self.min_eigenvalue,
            "tol": self.tol,
            "passed": self.passed,
        }


def validate_density(m: np.ndarray, tol: float = numerics.DEFAULT_TOL) -> DensityReport:
    """Check the defining conditions: hermiticity, unit trace, no negative
    eigenvalue beyond ``tol``."""
    m = numerics.as_matrix(m)
    herm = numerics.max_abs_diff(m, numerics.adjoint(m))
    trace = abs(float(np.trace(m).real) - 1.0) + abs(float(np.trace(m).imag))
    sym = (m + numerics.adjoint(m)) / 2.0
    min_eig = float(np.min(np.linalg.eigvalsh(sym)))
    passed = herm <= tol and trace <= tol and min_eig >= -tol
    return DensityReport(
        hermiticity_error=herm,
        trace_error=trace,
        min_eigenvalue=min_eig,
        tol=tol,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# seeded sampling helpers (tests and CLI)


def random_density_chart(
    pattern: DegeneracyPattern,
    rng: np.random.Generator,
    interior: bool = False,
) -> DensityChart:
    """Chart with angles uniform over their canonical ranges.

    With ``interior=True``, angles keep a margin from the range boundaries
    and the eigen angles are redrawn until all class masses are separated.
    """
    margin = 1e-2 if interior else 0.0
    blocks = tuple(
        BlockParam(
            block=lab,
            delta=float(rng.uniform(margin, TWO_PI - margin)),
            theta=float(rng.uniform(margin, HALF_PI - margin)),
        )
        for lab in kept_blocks(pattern)
    )
    k = pattern.num_classes
    while True:
        eigen = EigenChart(
            pattern=pattern,
            angles=tuple(float(a) for a in rng.uniform(margin, HALF_PI - margin, size=k - 1)),
        )
        if not interior:
            break
        masses = class_masses(eigen)
        gaps = [
            abs(masses[p] - masses[q])
            for p in range(k)
            for q in range(p + 1, k)
        ]
        if not gaps or min(gaps) >= 10 * MASS_GAP:
            break
    return DensityChart(pattern=pattern, eigen=eigen, unitary_params=blocks)


def random_commutant_spec(pattern: DegeneracyPattern, rng: np.random.Generator) -> CommutantSpec:
    blocks = tuple(
        BlockParam(
            block=lab,
            delta=float(rng.uniform(0.0, TWO_PI)),
            theta=float(rng.uniform(0.0, HALF_PI)),
        )
        for lab in dropped_blocks(pattern)
    )
    phases = tuple(float(p) for p in rng.uniform(0.0, TWO_PI, size=pattern.n))
    return CommutantSpec(pattern=pattern, block_params=blocks, phases=phases)


def random_full_params(pattern: DegeneracyPattern, rng: np.random.Generator) -> list[float]:
    """Random n^2 parameter vector for the complete chart word of ``pattern``."""
    n = pattern.n
    params = []
    for _ in canonical_order(pattern):
        params.append(float(rng.uniform(0.0, TWO_PI)))
        params.append(float(rng.uniform(0.0, HALF_PI)))
    params.extend(float(p) for p in rng.uniform(0.0, TWO_PI, size=n))
    return params
