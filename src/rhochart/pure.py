"""The CLI's numpy-free engine: ``build``, ``decompose``, ``verify`` and ``commutant``
of a small matrix, on rows of Python complex.

``cli._engine`` picks the engine from n alone: this module at n <= ``cli.PURE_DIM_MAX``,
and above it the numpy library (:func:`rhochart.build_density`,
:func:`rhochart.decompose`, :func:`rhochart.validate_density`,
:func:`rhochart.build_commutant`) under this module's four names,
:func:`build_density`, :func:`density_report`, :func:`decompose` and
:func:`build_commutant`.  The two agree to rounding, and both return the report as
its JSON dict and a decomposition as the pair ``(word, residual)``; the matrix they
build is encoded by the one encoder, ``jsonio.matrix_json``.  Loading this module
loads only :mod:`rhochart.jsonio`, whose pass and null rules both engines report by;
:func:`build_density`, :func:`decompose` and :func:`build_commutant` load the word
algebra, whose one atom walk serves both engines, on their first call.
No request on this engine loads numpy or ``dataclasses``.

``abs`` of a Python complex raises ``OverflowError`` past the largest float, so a
modulus here is ``math.hypot``, which returns inf; the shared elimination's ``abs``
sees only entries of a matrix that passed the unitarity test.
"""

from __future__ import annotations

import math

from .jsonio import passes, report_json

#: Jacobi leaves an off-diagonal entry h in place once |h| <= _EPS sqrt(|a_pp a_qq|),
#: the relative test of Demmel & Veselic (SIAM J. Matrix Anal. Appl. 13, 1204
#: (1992)), _EPS the unit roundoff; a sweep that rotates nothing, or the _SWEEPS-th, ends it
_EPS = 2.0**-53
_SWEEPS = 60


def _mod(z: complex) -> float:
    return math.hypot(z.real, z.imag)


def density_report(m: list[list[complex]], tol: float) -> dict:
    """:func:`rhochart.validate_density`'s report of ``m`` as JSON: the hermiticity and
    trace errors, and the least eigenvalue of (m + m^dagger) / 2, nan when that
    matrix overflows."""
    n = len(m)
    herm, a = 0.0, [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x, y = m[i][j], m[j][i].conjugate()
            herm = max(herm, _mod(x - y))
            a[i][j] = x + y  # twice the Hermitian part's entry
    tr = 0j
    for k in range(n):
        tr += m[k][k]
    trace = abs(tr.real - 1.0) + abs(tr.imag)
    big = max(max(abs(z.real), abs(z.imag)) for z in (a[i][j] for i in range(n) for j in range(i, n)))
    min_eig = math.nan
    if math.isfinite(big):
        # scaled by 2**-e, exact short of underflow, to parts below 1: no Jacobi step overflows
        e = min(max(math.frexp(big)[1], -1021), 1023)
        down = 2.0**-e / 2
        for i in range(n):
            for j in range(i, n):
                z = a[i][j]
                a[i][j] = complex(z.real * down, z.imag * down)
                a[j][i] = a[i][j].conjugate()
        min_eig = _least_eigenvalue(a) * 2.0**e
    return report_json(herm, trace, min_eig, tol, passes(herm, trace, min_eig, tol))


def _least_eigenvalue(a: list[list[complex]]) -> float:
    """Least eigenvalue of the Hermitian ``a``, rows of Python complex, by cyclic complex
    Jacobi; ``a`` is reduced in place.  Each rotation G, with G_pp = G_qq = c,
    G_pq = s e^(i phi) and G_qp = -s e^(-i phi), h = |h| e^(i phi) the entry (p, q),
    zeroes that entry of G^dagger a G (Golub & Van Loan, Matrix Computations, 8.5)."""
    n = len(a)
    d = [a[k][k].real for k in range(n)]
    for _ in range(_SWEEPS):
        rotated = False
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                h = ap[q]
                g = math.hypot(h.real, h.imag)
                if g <= _EPS * math.sqrt(abs(d[p] * d[q])):
                    continue
                rotated = True
                tau = (d[q] - d[p]) / (2.0 * g)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                se = complex(t * c * h.real / g, t * c * h.imag / g)  # s e^(i phi)
                sc = se.conjugate()
                d[p] -= t * g
                d[q] += t * g
                aq = a[q]
                ap[q] = aq[p] = 0j
                for k in range(n):
                    if k != p and k != q:
                        ak = a[k]
                        x, y = ak[p], ak[q]
                        ak[p], ak[q] = c * x - sc * y, se * x + c * y
                        ap[k], aq[k] = ak[p].conjugate(), ak[q].conjugate()
        if not rotated:
            break
    return min(d)


def build_density(chart) -> list[list[complex]]:
    """rho = U D U^dagger of a density chart, U on ``words._rows``: rho_jl is
    sum_k lambda_k u_jk conj(u_lk), summed on the upper triangle and mirrored, so rho
    is exactly Hermitian with a real diagonal."""
    from .charts import eigenvalues
    from .words import _rows, opor_word

    n = chart.pattern.n
    v = _rows(opor_word(n, chart.unitary_params))  # v = U^T: row k is U's column k
    lam = eigenvalues(chart.eigen)
    rho = [[0j] * n for _ in range(n)]
    for j in range(n):
        for l in range(j, n):
            acc = 0j
            for k in range(n):
                acc += lam[k] * (v[k][j] * v[k][l].conjugate())
            rho[l][j], rho[j][l] = acc.conjugate(), acc  # (j, j) keeps acc, whose imaginary part is 0
    return rho


def _is_unitary(u: list[list[complex]], tol: float) -> bool:
    """True when every entry of u u^dagger is within ``tol`` of the identity's; an
    entry that overflows to inf or nan fails."""
    for i, x in enumerate(u):
        for j in range(i, len(u)):
            acc = 0j
            for a, b in zip(x, u[j]):
                acc += a * b.conjugate()
            if not _mod(acc - (i == j)) <= tol:
                return False
    return True


def decompose(u: list[list[complex]], tol: float):
    """:func:`rhochart.decompose` of rows as the pair ``(word, residual)``: the same
    elimination on ``words.list_kernel``, and the residual on ``words._rows``."""
    from .decompose import NotUnitaryError, _eliminate
    from .words import _rows, list_kernel

    if not _is_unitary(u, tol):
        raise NotUnitaryError(f"input is not unitary within {tol}")
    v = [[z.conjugate() for z in row] for row in u]  # t = conj(v) is the matrix being reduced
    word = _eliminate(len(u), lambda r, c: v[r][c], *list_kernel(v))
    got = _rows(word)  # U^T
    residual = max(_mod(z - got[c][r]) for r, row in enumerate(u) for c, z in enumerate(row))
    return word, residual


def build_commutant(spec) -> list[list[complex]]:
    """:func:`rhochart.build_commutant` of a commutant spec: its word on ``words._rows``,
    transposed."""
    from .words import _rows, opor_word

    v = _rows(opor_word(spec.pattern.n, spec.block_params, spec.phases))  # U^T
    return [list(column) for column in zip(*v)]
