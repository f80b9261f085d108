"""Shared generators and dense references for the test suite (all explicitly seeded)."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from rhochart.builder import build_density
from rhochart.charts import BlockParam, DensityChart, EigenChart, class_masses, spread
from rhochart.decompose import ELIM_EPS
from rhochart.degeneracy import DegeneracyPattern, canonical_order, oriented_pair
from rhochart.numerics import DecompositionResult, adjoint, max_abs_diff
from rhochart.words import PhaseAtom, RotationAtom, Word, WordForm, _turn, _wrap
from rhochart.words import _conjugated, _diagonal, _sweep, opor_word

TWO_PI = 2.0 * np.pi
ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, stdin=b"", closed_fd=None):
    """``python -W error::RuntimeWarning args`` in a fresh interpreter from the checkout
    root, with its ``src/`` as the only ``PYTHONPATH``; stdout and stderr as bytes.
    With ``closed_fd`` (0, 1 or 2) a shell closes that descriptor before python starts."""
    command = [sys.executable, "-W", "error::RuntimeWarning", *args]
    if closed_fd is not None:
        command = ["sh", "-c", f'exec "$@" {closed_fd}>&-', "sh", *command]
    return subprocess.run(
        command,
        input=stdin,
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
        check=False,
    )


# dense references: one n x n matrix per atom, multiplied in listed order


def dense_rotation(n, i, j, theta):
    m = np.eye(n, dtype=np.complex128)
    c, s = math.cos(theta), math.sin(theta)
    m[i - 1, i - 1] = c
    m[j - 1, j - 1] = c
    m[i - 1, j - 1] = s
    m[j - 1, i - 1] = -s
    return m


def dense_phase(n, deltas):
    d = np.ones(n, dtype=np.complex128)
    for idx, val in deltas.items():
        d[idx - 1] = np.exp(1j * val)
    return np.diag(d)


def dense_product(word):
    """Reference for ``evaluate``: the product of dense atom matrices."""
    u = np.eye(word.n, dtype=np.complex128)
    for atom in word.atoms:
        if isinstance(atom, RotationAtom):
            u = u @ dense_rotation(word.n, atom.i, atom.j, atom.theta)
        else:
            u = u @ dense_phase(word.n, atom.deltas)
    return u


# column-kernel references for the row kernel of ``evaluate`` and ``decompose``:
# the earlier bodies, which mix strided columns of U with complex products


def rotate_columns(u, i, j, theta):
    """In place ``u <- u @ R``, R the rotation atom (i, j, theta); 1-based i < j."""
    c, s = math.cos(theta), math.sin(theta)
    col_i, col_j = u[:, i - 1], u[:, j - 1]
    u[:, i - 1], u[:, j - 1] = c * col_i - s * col_j, s * col_i + c * col_j


def phase_column(u, k, delta):
    """In place ``u <- u @ P``, P the phase exp(i * delta) on 1-based index k."""
    u[:, k - 1] *= complex(math.cos(delta), math.sin(delta))


def scalar_row_kernel(v):
    """Reference for ``words.row_kernel``: the same ``(rotate, phase)`` on ``v``, each
    step the same ufuncs in the same order, but with Python-scalar coefficients and
    its rows indexed afresh on every call."""
    re = v.view(np.float64)

    def rotate(i, j, theta):
        c, s = math.cos(theta), math.sin(theta)
        row_i, row_j = re[i - 1], re[j - 1]
        s_i, s_j = row_i * s, row_j * s
        row_i *= c
        row_i -= s_j
        row_j *= c
        row_j += s_i

    def phase(k, delta):
        row = v[k - 1]
        row *= complex(math.cos(delta), math.sin(delta))

    return rotate, phase


def reference_evaluate(w):
    """Reference for ``evaluate``: the product of the atoms on columns of U."""
    u = np.eye(w.n, dtype=np.complex128)
    for atom in w.atoms:
        if isinstance(atom, RotationAtom):
            rotate_columns(u, atom.i, atom.j, atom.theta)
        else:
            for k, delta in atom.deltas.items():
                phase_column(u, k, delta)
    return u


def reference_decompose(u):
    """Reference for ``decompose`` of a unitary ``u``: the elimination on
    columns of u^dagger, t = v^dagger being the matrix reduced."""
    n = u.shape[0]
    v = adjoint(u)
    blocks = []
    for a, b in canonical_order(DegeneracyPattern.singletons(n)):
        i, j = min(a, b), max(a, b)
        tij = v[j - 1, i - 1].conjugate()
        tjj = v[j - 1, j - 1].conjugate()
        if abs(tij) < ELIM_EPS:
            delta, theta = 0.0, 0.0
        else:
            theta = math.atan2(abs(tij), abs(tjj))
            if abs(tjj) < ELIM_EPS:
                delta = 0.0
            else:
                x, y = math.atan2(tij.imag, tij.real), math.atan2(tjj.imag, tjj.real)
                delta = _wrap(x - y if a == i else y - x, abs(x) + abs(y))
        blocks.append(((a, b), delta, theta))
        phase_column(v, a, delta)
        rotate_columns(v, i, j, theta)
    trailing = [_wrap(-x, abs(x)) for x in (math.atan2(v[k, k].imag, v[k, k].real) for k in range(n))]
    word = opor_word(n, blocks, trailing)
    return DecompositionResult(word=word, residual=max_abs_diff(u, reference_evaluate(word)))


# finite-difference reference for the exact rank-oracle Jacobian

FD_STEP = 1e-6


def _chart_with(c, unitary_values, eigen_values):
    params = tuple(
        BlockParam(block=bp.block, delta=_wrap(float(d), abs(float(d))), theta=float(t))
        for bp, (d, t) in zip(c.unitary_params, zip(unitary_values[::2], unitary_values[1::2]))
    )
    eigen = EigenChart(pattern=c.pattern, angles=tuple(float(a) for a in eigen_values))
    return DensityChart(pattern=c.pattern, eigen=eigen, unitary_params=params)


def fd_jacobian(c, include_eigen=False):
    """Central differences of ``build_density`` over (delta, theta) per block,
    then the eigen angles; rows are the real then imaginary parts of rho."""
    base_u = [v for bp in c.unitary_params for v in (bp.delta, bp.theta)]
    base_e = list(c.eigen.angles)
    num_u = len(base_u)
    point = np.array(base_u + (base_e if include_eigen else []), dtype=float)

    def rho_flat(vec):
        e = vec[num_u:] if include_eigen else base_e
        rho = build_density(_chart_with(c, vec[:num_u], e))
        return np.concatenate([rho.real.reshape(-1), rho.imag.reshape(-1)])

    columns = []
    for p in range(point.size):
        plus, minus = point.copy(), point.copy()
        plus[p] += FD_STEP
        minus[p] -= FD_STEP
        columns.append((rho_flat(plus) - rho_flat(minus)) / (2.0 * FD_STEP))
    return np.stack(columns, axis=1) if columns else np.zeros((2 * c.pattern.n**2, 0))


def rho_frame_jacobian(c, include_eigen=False):
    """Reference for the eigenframe ``_jacobian``: exact d(rho)/d(params) with
    rows the real then imaginary parts of rho itself.

    After a block's phase on index a the word prefix W gives X = i w_a w_a^dagger,
    after its rotation on (i, j) X = w_i w_j^dagger - w_j w_i^dagger (dR/dtheta =
    R J = J R, so either prefix serves); the column is X rho - rho X.  At the
    end W = U, and an eigen angle moves rho along U diag(d lambda) U^dagger.
    """
    n = c.pattern.n
    rho = build_density(c)
    w = np.eye(n, dtype=np.complex128)
    gens = []
    for bp in c.unitary_params:
        a = bp.block[0]
        phase_column(w, a, bp.delta)
        gens.append(1j * np.outer(w[:, a - 1], w[:, a - 1].conj()))
        i, j = sorted(bp.block)
        rotate_columns(w, i, j, bp.theta)
        x = np.outer(w[:, i - 1], w[:, j - 1].conj())
        gens.append(x - x.conj().T)
    columns = [x @ rho - rho @ x for x in gens]
    if include_eigen:
        # mass_m = cos^2(a_{m-1}) prod_{t >= m} sin^2(a_t), so d mass_m / d a_t
        # is mass_m * 2 cot(a_t) for m <= t, mass_m * -2 tan(a_t) for m = t + 1
        masses = class_masses(c.eigen)
        for t, a in enumerate(c.eigen.angles):
            tan = math.tan(a)
            dmass = [2.0 * mass / tan for mass in masses[: t + 1]] + [-2.0 * tan * masses[t + 1]]
            dmass += [0.0] * (len(masses) - len(dmass))
            dlam = np.asarray(spread(c.pattern, dmass))
            columns.append((w * dlam) @ adjoint(w))
    jac = np.array(columns, dtype=np.complex128).reshape(len(columns), n * n).T
    return np.concatenate([jac.real, jac.imag])


# atom-walking reference for the one-parse ``classify_form`` and ``count_phases``


def _turned(deltas):
    """``deltas`` with each angle reduced by ``_turn``, as every rewrite takes a term."""
    return {idx: _turn(val) for idx, val in deltas.items()}


def _is_single_phase_on(atom, rot):
    return (
        isinstance(atom, PhaseAtom)
        and isinstance(rot, RotationAtom)
        and len(atom.deltas) == 1
        and next(iter(atom.deltas)) in (rot.i, rot.j)
    )


def _is_opor(w):
    atoms = w.atoms
    if len(atoms) % 2 != 1:
        return False
    if not isinstance(atoms[-1], PhaseAtom):
        return False
    for k in range(0, len(atoms) - 1, 2):
        if not _is_single_phase_on(atoms[k], atoms[k + 1]):
            return False
    return True


def _is_phase_adjoint(w):
    atoms = w.atoms
    if len(atoms) % 3 != 1 or len(atoms) < 4:
        return False
    if not isinstance(atoms[-1], PhaseAtom):
        return False
    for k in range(0, len(atoms) - 1, 3):
        left, rot, right = atoms[k], atoms[k + 1], atoms[k + 2]
        if not (_is_single_phase_on(left, rot) and _is_single_phase_on(right, rot)):
            return False
        (li, lv), (ri, rv) = (next(iter(_turned(p.deltas).items())) for p in (left, right))
        if li != ri or _wrap(lv + rv, abs(lv) + abs(rv)) != 0.0:
            return False
    return True


def _inner_atoms(w):
    """The atoms of ``w`` without its leading and trailing diagonals."""
    atoms = w.atoms
    if atoms and isinstance(atoms[0], PhaseAtom):
        atoms = atoms[1:]
    if atoms and isinstance(atoms[-1], PhaseAtom):
        atoms = atoms[:-1]
    return atoms


def _is_km(w):
    saw_rotation = False
    previous_was_phase = False
    for atom in _inner_atoms(w):
        if isinstance(atom, RotationAtom):
            saw_rotation = True
            previous_was_phase = False
        else:
            if previous_was_phase or len(atom.deltas) != 1:
                return False
            previous_was_phase = True
    return saw_rotation and not previous_was_phase


def reference_classify_form(w):
    if _is_opor(w):
        return WordForm.ONE_PHASE_ONE_ROTATION
    if _is_phase_adjoint(w):
        return WordForm.PHASE_ADJOINT
    if _is_km(w):
        return WordForm.KM
    return WordForm.GENERAL


def reference_count_phases(w):
    if all(isinstance(a, RotationAtom) for a in w.atoms):
        return (0, 0)
    form = reference_classify_form(w)
    rotations = sum(isinstance(a, RotationAtom) for a in w.atoms)
    if form in (WordForm.ONE_PHASE_ONE_ROTATION, WordForm.PHASE_ADJOINT):
        return (max(rotations - 1, 0), (1 if rotations else 0) + w.n)
    if form is WordForm.KM:
        internal = sum(1 for a in _inner_atoms(w) if isinstance(a, PhaseAtom))
        return (internal, 2 * w.n - 1)
    raise ValueError("word is not in a recognized form")


def all_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def random_word(n, rng, max_atoms=20, unique_pairs=True) -> Word:
    """Random mixed word; rotation pairs drawn without replacement by default."""
    pairs = all_pairs(n)
    rng.shuffle(pairs)
    available = list(pairs)
    atoms = []
    n_atoms = int(rng.integers(1, max_atoms + 1))
    for _ in range(n_atoms):
        use_rotation = rng.random() < 0.5 and (available or not unique_pairs)
        if use_rotation:
            if unique_pairs:
                i, j = available.pop()
            else:
                i, j = pairs[int(rng.integers(0, len(pairs)))]
            atoms.append(RotationAtom(i, j, float(rng.uniform(-np.pi, np.pi))))
        else:
            support = [k + 1 for k in range(n) if rng.random() < 0.6]
            deltas = {k: float(rng.uniform(0.0, TWO_PI)) for k in support}
            atoms.append(PhaseAtom(deltas))
    return Word(n=n, atoms=tuple(atoms))


EDGE_ANGLES = (0.0, math.pi / 2, math.pi, -math.pi / 2)


def at_edges(w, rng) -> Word:
    """``w`` with about half of its angles, phases and thetas alike, moved to
    0, pi/2, pi or -pi/2."""

    def move(v):
        return float(rng.choice(EDGE_ANGLES)) if rng.random() < 0.5 else v

    atoms = [
        RotationAtom(a.i, a.j, move(a.theta))
        if isinstance(a, RotationAtom)
        else PhaseAtom({k: move(v) for k, v in a.deltas.items()})
        for a in w.atoms
    ]
    return Word(n=w.n, atoms=tuple(atoms))


def edge_corpus():
    """3000 seeded words at n = 2..8 with about half their angles at an edge,
    unique and repeated rotation pairs alternately."""
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        for k in range(1000):
            yield at_edges(random_word(int(rng.integers(2, 9)), rng, unique_pairs=bool(k % 2)), rng)


def diagonal_pair_sequence(n):
    """All pairs swept superdiagonal by superdiagonal: (1,2), (2,3), ..., (1,n)."""
    out = []
    for d in range(1, n):
        for i in range(1, n - d + 1):
            out.append((i, i + d))
    return out


def random_interleaved_word(n, rng) -> Word:
    """Full diagonal phases between every rotation: the most general
    phase-interleaved representation over all pairs."""
    atoms = [PhaseAtom({k + 1: float(v) for k, v in enumerate(rng.uniform(0, TWO_PI, n))})]
    for i, j in diagonal_pair_sequence(n):
        atoms.append(RotationAtom(i, j, float(rng.uniform(0.0, np.pi / 2))))
        atoms.append(PhaseAtom({k + 1: float(v) for k, v in enumerate(rng.uniform(0, TWO_PI, n))}))
    return Word(n=n, atoms=tuple(atoms))


def random_pattern(n, rng) -> DegeneracyPattern:
    """Random ordered multiplicity composition of n."""
    mults = []
    remaining = n
    while remaining:
        m = int(rng.integers(1, remaining + 1))
        mults.append(m)
        remaining -= m
    return DegeneracyPattern.from_multiplicities(mults)


def density_build_patterns(n):
    """The density-build benchmark's kinds: singletons, one pair, (n - 1, 1), two halves."""
    mults = ((1,) * n, (2,) + (1,) * (n - 2), (n - 1, 1), ((n + 1) // 2, n // 2))
    return [DegeneracyPattern.from_multiplicities(m) for m in mults]


def phased_permutation(n, rng):
    """A permutation matrix whose nonzero entries are exact units 1, -1, i, -i
    or random phases, about half of each."""
    units = np.array([1, -1, 1j, -1j])
    entries = np.where(
        rng.random(n) < 0.5, units[rng.integers(0, 4, n)], np.exp(1j * rng.uniform(0, TWO_PI, n))
    )
    u = np.zeros((n, n), dtype=np.complex128)
    u[np.arange(n), rng.permutation(n)] = entries
    return u


def all_multiplicity_lists(max_n):
    """Every ordered multiplicity list of n = 1..max_n, 2**max_n - 1 of them:
    one per set of cut points in 1..n-1."""
    for n in range(1, max_n + 1):
        for k in range(n):
            for cuts in itertools.combinations(range(1, n), k):
                bounds = (0, *cuts, n)
                yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def reference_canonical_order(p: DegeneracyPattern):
    """Reference for ``canonical_order``: the earlier body, which finds the class
    of both indices by a scan over the classes for every pair, O(n^3), where the
    library reads the pattern's index -> class table."""

    def class_of(index):
        for pos, cls in enumerate(p.classes):
            if index in cls:
                return pos
        raise ValueError(f"index {index} outside 1..{p.n}")

    inter: list[tuple[int, int]] = []
    intra: list[tuple[int, int]] = []
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            label = oriented_pair(i, j, p.n)
            (intra if class_of(i) == class_of(j) else inter).append(label)
    inter.sort(reverse=True)
    intra.sort(reverse=True)
    return tuple(inter + intra)


def reference_normalize_km(w: Word) -> Word:
    """Reference for km ``normalize``: the earlier body, which tracks index
    groups with a weighted union-find (parent links, one potential per root,
    and a path sum per lookup) where the library relabels a merged group.
    It emits the left outer diagonal even for a word with no rotation."""
    n = w.n
    dressed, q = _conjugated(n, *_sweep(w))

    parent = list(range(n))
    pot = [0.0] * n  # offset of the left outer diagonal relative to the root

    def find(x):
        acc = 0.0
        while parent[x] != x:
            acc += pot[x]
            x = parent[x]
        return x, acc

    off = [0.0] * n  # inner-phase increments applied so far
    rotations = []  # (rotation, wrapped inner phase on its index i or None)
    for (a, b), psi, theta in dressed:
        i, j = min(a, b), max(a, b)
        if a != i:
            psi = -psi  # the union-find works on the i - j difference
        ri, pi = find(i - 1)
        rj, pj = find(j - 1)
        inner = None
        if ri != rj:
            parent[ri] = rj
            pot[ri] = psi - off[i - 1] + off[j - 1] - pi + pj
        else:
            inc = psi - ((pi + off[i - 1]) - (pj + off[j - 1]))
            inner = _wrap(inc, abs(psi) + abs(pi) + abs(off[i - 1]) + abs(pj) + abs(off[j - 1]))
            off[i - 1] += inc
        rotations.append((RotationAtom(i, j, theta), inner))

    left = [find(x)[1] for x in range(n)]
    atoms = [_diagonal(_wrap(x, abs(x)) for x in left)]
    for rot, inner in rotations:
        if inner:
            atoms.append(PhaseAtom({rot.i: inner}))
        atoms.append(rot)
    mag = [abs(q[x]) + abs(left[x]) + abs(off[x]) for x in range(n)]
    atoms.append(_diagonal(_wrap(q[x] - (left[x] + off[x]), mag[x]) for x in range(n)))
    return Word(n=n, atoms=tuple(atoms))
