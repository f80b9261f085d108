"""Assemble density matrices from minimal charts and their commutants.

A density chart holds a degeneracy pattern, eigenvalue angles and one
(phase, angle) pair per rotation block that joins two different eigenvalue
classes.  Blocks inside a class commute with the eigenvalue matrix and are
pruned, together with the trailing diagonal, so the chart carries exactly
``orbit_dim(pattern)`` unitary parameters.  The numerical oracle for that
count is the rank of the exact Jacobian of rho, read in the eigenframe of rho
as one square system over the chart's blocks after one sweep over the word.

Charts, commutant specs and block parameters are validated tuples, like the
value types of :mod:`rhochart.words`; a chart keeps each sequence as a tuple.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from typing import Iterable

import numpy as np

from . import numerics
from .charts import EigenChart, _angle, class_masses, eigen_matrix, eigenvalues, fit_chart, spread
from .degeneracy import DegeneracyPattern, canonical_order, orbit_dim
from .jsonio import HALF_PI, TWO_PI, _built, _no_bool, chart_fields
from .numerics import DensityReport, validate_density  # the benchmark times builder.validate_density
from .words import Word, _split_chart_params, evaluate, opor_word, row_kernel

#: rank oracle: relative SVD threshold, and least distance of an angle from its range ends
SVD_THRESHOLD = 1e-7
INTERIOR_MARGIN = 1e-6

#: minimum class-mass separation for a chart to count as interior
MASS_GAP = 1e-6


class BlockParam(namedtuple("BlockParam", "block delta theta")):
    """(phase, angle) of one chart block, tagged with its oriented pair label;
    as a tuple it is the word algebra's ``(label, delta, theta)`` block, checked
    here so that ``opor_word`` need not check it again."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks ranges too

    def __new__(cls, block, delta, theta):
        a, b = block if isinstance(block, tuple) and len(block) == 2 else (0, 0)
        if type(a) is not int or type(b) is not int or a == b or min(a, b) < 1:  # a bool is not an index
            raise ValueError(f"block label must be a pair of distinct integers >= 1, got {block!r}")
        if not (0.0 <= delta < TWO_PI) or not (0.0 <= theta <= HALF_PI):
            raise ValueError(f"block {block}: delta must lie in [0, 2*pi), theta in [0, pi/2]")
        if type(delta) is not float or type(theta) is not float:  # seeded charts skip the calls
            _no_bool(delta, "delta"), _no_bool(theta, "theta")
        return tuple.__new__(cls, (block, delta, theta))


def kept_blocks(pattern: DegeneracyPattern) -> tuple[tuple[int, int], ...]:
    """Chart blocks that survive pruning: the cross-class pairs leading ``canonical_order``."""
    return canonical_order(pattern)[: orbit_dim(pattern) // 2]


def dropped_blocks(pattern: DegeneracyPattern) -> tuple[tuple[int, int], ...]:
    return canonical_order(pattern)[orbit_dim(pattern) // 2 :]


class DensityChart(namedtuple("DensityChart", "pattern eigen unitary_params")):
    """Minimal coordinates of a density matrix with the given spectrum type."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, pattern: DegeneracyPattern, eigen: EigenChart, unitary_params: Iterable[BlockParam]):
        unitary_params = tuple(unitary_params)
        if eigen.pattern != pattern:
            raise ValueError("eigen chart pattern differs from the density pattern")
        expected = kept_blocks(pattern)
        got = tuple(bp.block for bp in unitary_params)
        if got != expected:
            raise ValueError(f"expected blocks {expected}, got {got}")
        return tuple.__new__(cls, (pattern, eigen, unitary_params))

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
        return cls._from_fields(*chart_fields(obj))

    @classmethod
    def _from_fields(cls, mults, angles, params) -> "DensityChart":
        """The chart of :func:`jsonio.chart_fields`' fields, a value its type refuses
        named by the JSON path it was read from."""
        pattern = _built("pattern", DegeneracyPattern.from_multiplicities, mults)
        angles = tuple(_built(f"eigen_angles[{k}]", _angle, a) for k, a in enumerate(angles))
        eigen = _built("eigen_angles", EigenChart, pattern, angles)
        params = tuple(_built(f"unitary_params[{k}]", BlockParam, *p) for k, p in enumerate(params))
        return _built("unitary_params", cls, pattern, eigen, params)


class CommutantSpec(namedtuple("CommutantSpec", "pattern block_params phases")):
    """Parameters of a unitary commuting with every pattern-respecting diagonal.

    Holds one (phase, angle) pair per in-class rotation block plus a full
    diagonal of n finite real phases; redundant_params(pattern) + n values in total.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, pattern: DegeneracyPattern, block_params: Iterable[BlockParam], phases: Iterable[float]):
        block_params, phases = tuple(block_params), tuple(phases)
        expected = dropped_blocks(pattern)
        got = tuple(bp.block for bp in block_params)
        if got != expected:
            raise ValueError(f"expected in-class blocks {expected}, got {got}")
        if len(phases) != pattern.n:
            raise ValueError(f"expected {pattern.n} diagonal phases")
        for k, phase in enumerate(phases):
            if not isinstance(_no_bool(phase, f"phases[{k}]"), numbers.Real) or not math.isfinite(phase):
                raise ValueError(f"phases[{k}]: expected a finite real, got {phase!r}")
        return tuple.__new__(cls, (pattern, block_params, phases))


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
    """Refuse a block or eigen angle within ``INTERIOR_MARGIN`` of its range ends,
    or two class masses closer than ``MASS_GAP``; block phases are not restricted."""
    for bp in c.unitary_params:
        if not (INTERIOR_MARGIN < bp.theta < HALF_PI - INTERIOR_MARGIN):
            raise ValueError(f"block {bp.block}: theta {bp.theta} is not interior")
    for a in c.eigen.angles:
        if not (INTERIOR_MARGIN < a < HALF_PI - INTERIOR_MARGIN):
            raise ValueError(f"eigen angle {a} is not interior")
    masses = sorted(class_masses(c.eigen))
    if any(q - p < MASS_GAP for p, q in zip(masses, masses[1:])):
        raise ValueError("class masses too close; pattern would be accidentally larger")


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
    w, xy = np.eye(n, dtype=np.complex128), np.empty((2, p, n), dtype=np.complex128)
    rotate, phase = row_kernel(w)  # w holds W^T: the prefix's columns are its rows
    for col, bp in zip(range(0, p, 2), c.unitary_params):
        a = bp.block[0]
        phase(a, bp.delta)
        xy[:, col] = 0.5j * w[a - 1], w[a - 1]
        i, j = sorted(bp.block)
        rotate(i, j, bp.theta)
        xy[:, col + 1] = w[i - 1], w[j - 1]
    k, l = np.array([sorted(bp.block) for bp in c.unitary_params], dtype=int).reshape(-1, 2).T - 1
    (vx, vy), lam = w.conj() @ xy.transpose(0, 2, 1), np.asarray(eigenvalues(c.eigen))
    ykl = np.sqrt(2) * (lam[l] - lam[k])[:, None] * (vx[k] * vy.conj()[l] - vy[k] * vx.conj()[l])
    masses = class_masses(c.eigen)
    jac = np.zeros((p + n * include_eigen, p + (len(masses) - 1) * include_eigen))
    jac[: p // 2, :p], jac[p // 2 : p, :p] = ykl.real, ykl.imag
    for t, a in enumerate(c.eigen.angles if include_eigen else ()):
        # mass_m = cos^2(a_{m-1}) prod_{t >= m} sin^2(a_t), so d mass_m / d a_t
        # is mass_m * 2 cot(a_t) for m <= t, mass_m * -2 tan(a_t) for m = t + 1
        tan = math.tan(a)
        dmass = [2.0 * mass / tan for mass in masses[: t + 1]] + [-2.0 * tan * masses[t + 1]]
        jac[p:, p + t] = spread(c.pattern, dmass)
    return jac


def jacobian_rank(c: DensityChart, include_eigen: bool = False) -> int:
    """Numerical rank of the exact d(rho)/d(params): singular values above
    ``SVD_THRESHOLD`` relative to the largest.  Its eigenframe rows are an
    orthogonal change of rho's real and imaginary rows, zero rows dropped.  The
    chart must be interior, block and eigen angles ``INTERIOR_MARGIN`` inside
    their ranges and class masses ``MASS_GAP`` apart, or the rank would not
    reflect the declared pattern.  Block phases are free: on singletons, |det| of
    the square system is prod_b sin theta_b cos^{e_b} theta_b 2 (lambda_l - lambda_k)^2
    over blocks b on k < l, with e_b = 2 (earlier blocks with the same l) + 1.

    No threshold can certify ``orbit_dim`` beyond small n: the singular values
    decay without a gap, as the Euler-angle volume element, a product of
    powers of sin and cos of the block angles, suggests.  On generic singleton
    charts the smallest relative singular value is 5.9e-13 to 1.5e-7 at
    n = 16, depending on how close the block angles are to their range ends,
    and 2.9e-15 at n = 32, so the rank returned there can fall short.
    """
    _require_interior(c)
    sv = np.linalg.svd(_jacobian(c, include_eigen), compute_uv=False)
    return int(np.sum(sv > SVD_THRESHOLD * sv.max(initial=0.0)))


# ---------------------------------------------------------------------------
# seeded sampling helpers (tests and CLI)


def _draw(rng: np.random.Generator, blocks: int, margin: float = 0.0, phases: int = 0) -> list[float]:
    """One uniform draw in the order seeded outputs depend on: delta then theta
    of each of ``blocks`` blocks in turn, then ``phases`` phases in [0, 2 pi).
    Block angles keep ``margin`` from each end of their range.  numpy fills an
    array of bounds element by element with the scalar formula, so the values
    are those of one scalar draw per angle in this order."""
    low = [margin] * (2 * blocks) + [0.0] * phases
    high = [TWO_PI - margin, HALF_PI - margin] * blocks + [TWO_PI] * phases
    return rng.uniform(low, high).tolist()


def random_density_chart(
    pattern: DegeneracyPattern,
    rng: np.random.Generator,
    interior: bool = False,
) -> DensityChart:
    """Chart with angles uniform over their canonical ranges.

    Draw order: delta then theta of each kept block, then the eigen draws.  With
    ``interior=True``, block angles keep a 1e-2 margin, and the k class masses
    are drawn at once, uniform on the simplex above a floor that keeps them 2e-4
    from 0 and 10 ``MASS_GAP`` apart; ``fit_chart`` inverts them, in random class
    order, to eigen angles more than 0.014 inside [0, pi/2].
    """
    labels = kept_blocks(pattern)
    x = _draw(rng, len(labels), 1e-2 if interior else 0.0)
    blocks = tuple(map(BlockParam, labels, x[0::2], x[1::2]))
    k = pattern.num_classes
    if interior:
        least = 2e-4 + 10 * MASS_GAP * np.arange(k)
        masses = np.sort(rng.dirichlet(np.ones(k))) * (1.0 - least.sum()) + least
        eigen = fit_chart(spread(pattern, rng.permutation(masses)), pattern)
    else:
        eigen = EigenChart(pattern, tuple(rng.uniform(0, HALF_PI, size=k - 1).tolist()))
    return DensityChart(pattern=pattern, eigen=eigen, unitary_params=blocks)


def random_commutant_spec(pattern: DegeneracyPattern, rng: np.random.Generator) -> CommutantSpec:
    """Commutant with angles uniform over their ranges.  Draw order: delta then
    theta of each in-class block, then the n diagonal phases."""
    labels = dropped_blocks(pattern)
    x = _draw(rng, len(labels), phases=pattern.n)
    blocks = tuple(map(BlockParam, labels, x[0::2], x[1::2]))  # stops at the last label
    return CommutantSpec(pattern=pattern, block_params=blocks, phases=tuple(x[2 * len(labels) :]))


def random_full_params(pattern: DegeneracyPattern, rng: np.random.Generator) -> list[float]:
    """Random n^2 parameter vector for the complete chart word of ``pattern``.
    Draw order: delta then theta of each block of ``canonical_order``, then the n
    trailing phases."""
    return _draw(rng, len(canonical_order(pattern)), phases=pattern.n)
