"""Assemble density matrices from minimal charts and their commutants.

A density chart holds a degeneracy pattern, eigenvalue angles and one
(phase, angle) pair per rotation block that joins two different eigenvalue
classes.  Blocks inside a class commute with the eigenvalue matrix and are
pruned, together with the trailing diagonal, so the chart carries exactly
``orbit_dim(pattern)`` unitary parameters.  The numerical oracle for that
count is the rank of the exact Jacobian of rho, read in the eigenframe of rho
as one square system over the chart's blocks after one sweep over the word.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics
from .charts import EigenChart, class_masses, eigen_matrix, eigenvalues, fit_chart, spread
from .degeneracy import DegeneracyPattern, canonical_order, orbit_dim
from .numerics import _json
from .words import HALF_PI, TWO_PI, Word, _split_chart_params, evaluate, opor_word
from .words import phase_column, rotate_columns

#: rank oracle: relative SVD threshold, and least distance of an angle from its range ends
SVD_THRESHOLD = 1e-7
INTERIOR_MARGIN = 1e-6

#: minimum class-mass separation for a chart to count as interior
MASS_GAP = 1e-6


class BlockParam(namedtuple("BlockParam", "block delta theta")):
    """(phase, angle) of one chart block, tagged with its oriented pair label;
    as a tuple it is the word algebra's ``(label, delta, theta)`` block."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks ranges too

    def __new__(cls, block, delta, theta):
        if not (0.0 <= delta < TWO_PI) or not (0.0 <= theta <= HALF_PI):
            raise ValueError(f"block {block}: delta must lie in [0, 2*pi), theta in [0, pi/2]")
        return super().__new__(cls, block, delta, theta)


def kept_blocks(pattern: DegeneracyPattern) -> tuple[tuple[int, int], ...]:
    """Chart blocks that survive pruning: the cross-class pairs leading ``canonical_order``."""
    return canonical_order(pattern)[: orbit_dim(pattern) // 2]


def dropped_blocks(pattern: DegeneracyPattern) -> tuple[tuple[int, int], ...]:
    return canonical_order(pattern)[orbit_dim(pattern) // 2 :]


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

    def to_json(self) -> dict:
        if DegeneracyPattern.from_multiplicities(self.pattern.multiplicities) != self.pattern:
            raise ValueError(
                f"classes {self.pattern.classes} are not contiguous; JSON keeps multiplicities"
            )
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
        obj = _json(obj, "input", dict)
        pattern = DegeneracyPattern.from_multiplicities(_json(obj.get("pattern"), "pattern", [int]))
        angles = tuple(_json(obj.get("eigen_angles"), "eigen_angles", [float]))
        params = []
        for pos, e in enumerate(_json(obj.get("unitary_params"), "unitary_params", [dict])):
            at = f"unitary_params[{pos}]"
            block = tuple(_json(e.get("block"), f"{at}.block", (int, int)))
            delta, theta = (_json(e.get(k), f"{at}.{k}", float) for k in ("delta", "theta"))
            params.append(BlockParam(block, delta, theta))
        return cls(pattern, EigenChart(pattern, angles), tuple(params))


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
        if len(self.phases) != self.pattern.n:
            raise ValueError(f"expected {self.pattern.n} diagonal phases")


def kept_word(c: DensityChart) -> Word:
    """The pruned unitary word: in-class blocks and trailing diagonal removed."""
    return opor_word(c.pattern.n, c.unitary_params)


def build_density(c: DensityChart) -> np.ndarray:
    """rho = U D U^dagger with U the pruned chart word and D the eigen matrix."""
    u = evaluate(kept_word(c))
    d = eigen_matrix(c.eigen)
    return u @ d @ numerics.adjoint(u)


def build_commutant(s: CommutantSpec) -> np.ndarray:
    """Unitary commuting with every diagonal that respects the pattern."""
    return evaluate(opor_word(s.pattern.n, s.block_params, s.phases))


def split_full_params(full_params, pattern: DegeneracyPattern):
    """Partition a full n^2 chart parameter vector into kept and dropped parts.

    ``full_params`` lays out one (delta, theta) pair per block of
    ``canonical_order(pattern)`` followed by n trailing phases.  Returns
    (kept BlockParams, dropped BlockParams, trailing phases).
    """
    blocks, trailing = _split_chart_params(pattern, full_params)
    params = tuple(BlockParam(*block) for block in blocks)
    cut = orbit_dim(pattern) // 2
    return params[:cut], params[cut:], tuple(trailing)


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
        eigen = fit_chart(spread(pattern, masses), pattern)
    else:
        eigen = EigenChart(pattern=pattern, angles=tuple(eigen_angles))
    return DensityChart(pattern=pattern, eigen=eigen, unitary_params=kept)


# ---------------------------------------------------------------------------
# numerical rank oracle


def _require_interior(c: DensityChart):
    for bp in c.unitary_params:
        if not (INTERIOR_MARGIN < bp.theta < HALF_PI - INTERIOR_MARGIN):
            raise ValueError(f"block {bp.block}: theta {bp.theta} is not interior")
        if not (INTERIOR_MARGIN < bp.delta < TWO_PI - INTERIOR_MARGIN):
            raise ValueError(f"block {bp.block}: delta {bp.delta} is not interior")
    for a in c.eigen.angles:
        if not (INTERIOR_MARGIN < a < HALF_PI - INTERIOR_MARGIN):
            raise ValueError(f"eigen angle {a} is not interior")
    if _mass_gap(c.eigen) < MASS_GAP:
        raise ValueError("class masses too close; pattern would be accidentally larger")


def _mass_gap(eigen: EigenChart) -> float:
    """Least separation of two class masses (infinite for one class)."""
    masses = sorted(class_masses(eigen))
    return min((q - p for p, q in zip(masses, masses[1:])), default=math.inf)


def _jacobian(c: DensityChart, include_eigen: bool) -> np.ndarray:
    """Exact U^dagger d(rho)/d(params) U for rho = U D U^dagger: columns in chart
    order then the eigen angles; rows sqrt(2) times the real, then the imaginary
    parts over the chart's pairs k < l, then (with the eigen angles) the diagonal.

    A parameter moves rho by [X, rho], X = x y^dagger - y x^dagger with x, y
    columns of the word prefix W: x = i w_a / 2, y = w_a (either side of a block's
    phase on a); x = w_i, y = w_j after its rotation on (i, j).  At the end W = U,
    and entry (k, l) is Y_kl (lambda_l - lambda_k), Y = U^dagger X U: 0 in a class.
    """
    n, p = c.pattern.n, 2 * len(c.unitary_params)
    w, xy = np.eye(n, dtype=np.complex128), np.empty((2, n, p), dtype=np.complex128)
    for col, bp in zip(range(0, p, 2), c.unitary_params):
        a = bp.block[0]
        phase_column(w, a, bp.delta)
        xy[:, :, col] = 0.5j * w[:, a - 1], w[:, a - 1]
        i, j = sorted(bp.block)
        rotate_columns(w, i, j, bp.theta)
        xy[:, :, col + 1] = w[:, i - 1], w[:, j - 1]
    k, l = np.array([sorted(bp.block) for bp in c.unitary_params], dtype=int).reshape(-1, 2).T - 1
    (vx, vy), lam = numerics.adjoint(w) @ xy, np.asarray(eigenvalues(c.eigen))
    ykl = np.sqrt(2) * (lam[l] - lam[k])[:, None] * (vx[k] * vy.conj()[l] - vy[k] * vx.conj()[l])
    masses = class_masses(c.eigen)
    jac = np.zeros((p + n * include_eigen, p + (len(masses) - 1) * include_eigen))
    jac[: p // 2, :p], jac[p // 2 : p, :p] = ykl.real, ykl.imag
    for t, a in enumerate(c.eigen.angles if include_eigen else ()):
        # mass_m = cos^2(a_{m-1}) prod_{t >= m} sin^2(a_t), so d mass_m / d a_t
        # is mass_m * 2 cot(a_t) for m <= t, mass_m * -2 tan(a_t) for m = t + 1
        tan = math.tan(a)
        dmass = [2.0 * mass / tan for mass in masses[: t + 1]] + [-2.0 * tan * masses[t + 1]]
        dmass += [0.0] * (len(masses) - len(dmass))
        jac[p:, p + t] = spread(c.pattern, dmass)
    return jac


def jacobian_rank(c: DensityChart, include_eigen: bool = False) -> int:
    """Numerical rank of the exact d(rho)/d(params): singular values above
    ``SVD_THRESHOLD`` relative to the largest.  Its eigenframe rows are an
    orthogonal change of rho's real and imaginary rows, zero rows dropped.  The
    chart must be interior, angles ``INTERIOR_MARGIN`` inside their ranges and
    class masses separated, or the rank would not reflect the declared pattern.

    No threshold can certify ``orbit_dim`` beyond small n: the singular values
    decay without a gap, as the Euler-angle volume element, a product of
    powers of sin and cos of the block angles, suggests.  On generic singleton
    charts the smallest relative singular value is 5.9e-13 to 1.5e-7 at
    n = 16, depending on how close the block angles are to their range ends,
    and 2.9e-15 at n = 32, so the rank returned there can fall short.
    """
    _require_interior(c)
    sv = np.linalg.svd(_jacobian(c, include_eigen), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > SVD_THRESHOLD * sv[0]))


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
        return asdict(self)


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


def _draw_block(rng: np.random.Generator, margin: float = 0.0) -> tuple[float, float]:
    """(delta, theta) of one block, uniform over its range less ``margin`` at each end."""
    delta = float(rng.uniform(margin, TWO_PI - margin))  # first: seeded charts depend on the order
    return delta, float(rng.uniform(margin, HALF_PI - margin))


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
    blocks = tuple(BlockParam(lab, *_draw_block(rng, margin)) for lab in kept_blocks(pattern))
    k = pattern.num_classes
    while True:
        eigen = EigenChart(
            pattern=pattern,
            angles=tuple(float(a) for a in rng.uniform(margin, HALF_PI - margin, size=k - 1)),
        )
        if not interior or _mass_gap(eigen) >= 10 * MASS_GAP:
            break
    return DensityChart(pattern=pattern, eigen=eigen, unitary_params=blocks)


def random_commutant_spec(pattern: DegeneracyPattern, rng: np.random.Generator) -> CommutantSpec:
    blocks = tuple(BlockParam(lab, *_draw_block(rng)) for lab in dropped_blocks(pattern))
    phases = tuple(float(p) for p in rng.uniform(0.0, TWO_PI, size=pattern.n))
    return CommutantSpec(pattern=pattern, block_params=blocks, phases=phases)


def random_full_params(pattern: DegeneracyPattern, rng: np.random.Generator) -> list[float]:
    """Random n^2 parameter vector for the complete chart word of ``pattern``."""
    params = [x for _ in canonical_order(pattern) for x in _draw_block(rng)]
    params.extend(float(p) for p in rng.uniform(0.0, TWO_PI, size=pattern.n))
    return params
