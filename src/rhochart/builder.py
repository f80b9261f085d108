"""Arrays from the chart values of :mod:`rhochart.charts`: rho = U D U^dagger of a
density chart, the commutant of a spec, and the numerical oracle for
``orbit_dim``.  That oracle is the rank of the exact Jacobian of rho, read in the
eigenframe of rho as one square system over the chart's blocks after one sweep
over the word.  The seeded samplers live in :mod:`rhochart.charts`.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .charts import MASS_GAP, CommutantSpec, DensityChart, class_masses, eigen_matrix, eigenvalues, spread
from .charts import fit_chart  # the benchmark's tracer rebinds fit_chart here
from .charts import random_commutant_spec, random_density_chart  # the benchmark samples as builder.<name>
from .degeneracy import canonical_order  # the benchmark's tracer rebinds canonical_order here
from .jsonio import HALF_PI
from .numerics import validate_density  # the benchmark times builder.validate_density
from .words import Word, evaluate, opor_word, row_kernel

#: rank oracle: relative SVD threshold, and least distance of an angle from its range ends
SVD_THRESHOLD = 1e-7
INTERIOR_MARGIN = 1e-6


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

    The rank is not certified beyond small n.  The singular values decay
    without a gap, as the Euler-angle volume element, a product of powers of sin
    and cos of the block angles, suggests, so no threshold separates them from
    zero: the rank returned can fall short of ``orbit_dim`` on an accepted chart.
    ``test_jacobian_rank_is_orbit_dim_on_an_ill_conditioned_accepted_chart``
    pins one such (3, 2) chart as a strict xfail.
    """
    _require_interior(c)
    sv = np.linalg.svd(_jacobian(c, include_eigen), compute_uv=False)
    return int(np.sum(sv > SVD_THRESHOLD * sv.max(initial=0.0)))
