"""Symbolic phase/rotation words and the rewrites that relate them.

A word is an ordered sequence of atoms over dimension n.  A rotation atom
embeds the block [[cos, sin], [-sin, cos]] at a pair of indices; a phase atom
is a diagonal of unit-modulus entries.  Words evaluate to unitary matrices,
and three angular normal forms are supported:

* one phase-one rotation ("opor"): each rotation carries exactly one phase
  immediately to its left, on the pair's designated index, and a single full
  diagonal closes the word.  A full chart in this form has n^2 parameters.
* phase-adjoint: each rotation is conjugated by a single-index phase,
  followed by one full diagonal.
* km: all phases are pushed into the two outermost diagonals except for
  (n-1)(n-2)/2 single-index phases that cannot be removed by rephasing.

All three are one product of phase-dressed rotations; they differ only in
where each block's phase is written.  The common intermediate is the block
form: ``(label, delta, theta)`` blocks, ``label`` the oriented pair (a, b)
whose index a carries the phase, plus n trailing phases.  :func:`_sweep`
brings a unique-pair word into it; :func:`opor_word` renders it as P_a R,
:func:`_phase_adjoint_word` as P_a R P_a^dagger, and km reads each block's
conjugation phase, the a - b difference of the running block-phase sum.

Rewrites never change the evaluation.  The basic moves are merging adjacent
diagonals and passing a diagonal through a rotation: on the rotation's
support, diag(a, b) R = diag(a/b, 1) R diag(b, b), so a common phase commutes
and a phase difference stays behind on one side.  Normalization composes
these moves in closed form and is exact up to floating-point phase sums.

One angle rule: every phase a rewrite emits is reduced by :func:`_wrap` into
[0, 2*pi), and it is 0 when it lies within a few ulps of 0 or 2*pi, measured
against the summed magnitude of the terms that produced it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .degeneracy import DegeneracyPattern, canonical_order, oriented_pair
from .numerics import _json

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2

# Width of _wrap's zero band, in ulps of max(mag, 2*pi).  On 3320 seeded opor
# charts (n = 2..32, half their phases 0, with and without 2*pi*m offsets),
# 8 is the least power of two at which km reached directly and through the
# phase-adjoint form agree and opor -> phase-adjoint -> opor keeps every 0;
# 4 left 3 residue phases, and a fixed 16 ulps of 2*pi left 128 km mismatches.
_WRAP_ULPS = 8


def _wrap(angle: float, mag: float) -> float:
    """``angle`` reduced into [0, 2*pi), and 0 within ``_WRAP_ULPS`` ulps of
    max(mag, 2*pi) of 0 or 2*pi, ``mag`` being the summed magnitude of the
    terms that produced ``angle``: there it is the residue of a sum that
    cancels.  No other code reduces an angle mod 2*pi or decides it is 0."""
    wrapped = angle % TWO_PI
    band = _WRAP_ULPS * math.ulp(max(mag, TWO_PI))
    return 0.0 if wrapped < band or TWO_PI - wrapped < band else wrapped


class UnreachableFormError(ValueError):
    """Raised when a word cannot be rewritten into the requested form."""


class FormError(ValueError):
    """Raised when an operation needs a recognized syntactic form."""


class WordForm(enum.Enum):
    ONE_PHASE_ONE_ROTATION = "opor"
    PHASE_ADJOINT = "phase_adjoint"
    KM = "km"
    GENERAL = "general"


@dataclass(frozen=True)
class RotationAtom:
    """Rotation by ``theta`` acting on rows/columns ``i < j``."""

    i: int
    j: int
    theta: float

    def __post_init__(self):
        if type(self.i) is not int or type(self.j) is not int or not 1 <= self.i < self.j:
            raise ValueError(f"rotation needs integers 1 <= i < j, got ({self.i!r}, {self.j!r})")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")


@dataclass(frozen=True, eq=False)
class PhaseAtom:
    """Diagonal of exp(i * delta_k); indices absent from ``deltas`` get phase 0."""

    deltas: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "deltas", dict(self.deltas))
        for idx, val in self.deltas.items():
            if type(idx) is not int or idx < 1:  # a bool is not an index
                raise ValueError(f"bad phase index {idx!r}")
            if not math.isfinite(val):
                raise ValueError("phase angles must be finite")

    def __eq__(self, other):
        # absent index means phase 0, so zero entries do not distinguish atoms
        if not isinstance(other, PhaseAtom):
            return NotImplemented
        mine = {k: v for k, v in self.deltas.items() if v != 0.0}
        theirs = {k: v for k, v in other.deltas.items() if v != 0.0}
        return mine == theirs


Atom = Union[RotationAtom, PhaseAtom]


@dataclass(frozen=True)
class Word:
    """Ordered atom sequence over dimension ``n``; evaluates left to right."""

    n: int
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for atom in self.atoms:
            if isinstance(atom, RotationAtom):
                if atom.j > self.n:
                    raise ValueError(f"rotation {atom} exceeds dimension {self.n}")
            elif isinstance(atom, PhaseAtom):
                if atom.deltas and max(atom.deltas) > self.n:
                    raise ValueError(f"phase {atom} exceeds dimension {self.n}")
            else:
                raise TypeError(f"not an atom: {atom!r}")

    def rotation_pairs(self) -> list[tuple[int, int]]:
        return [(a.i, a.j) for a in self.atoms if isinstance(a, RotationAtom)]


# ---------------------------------------------------------------------------
# evaluation: an in-place column kernel.  Right-multiplying by a rotation
# mixes columns i and j, by a phase scales one column, so an atom costs O(n)
# where a dense product costs O(n^3).  ``decompose`` eliminates through it too.


def rotate_columns(u: np.ndarray, i: int, j: int, theta: float) -> None:
    """In place ``u <- u @ R``, R the rotation atom (i, j, theta); 1-based i < j."""
    c, s = math.cos(theta), math.sin(theta)
    col_i, col_j = u[:, i - 1], u[:, j - 1]
    u[:, i - 1], u[:, j - 1] = c * col_i - s * col_j, s * col_i + c * col_j


def phase_column(u: np.ndarray, k: int, delta: float) -> None:
    """In place ``u <- u @ P``, P the phase exp(i * delta) on 1-based index k."""
    u[:, k - 1] *= complex(math.cos(delta), math.sin(delta))


def evaluate(w: Word) -> np.ndarray:
    """Product of the atoms in listed order (identity when empty)."""
    u = np.eye(w.n, dtype=np.complex128)
    for atom in w.atoms:
        if isinstance(atom, RotationAtom):
            rotate_columns(u, atom.i, atom.j, atom.theta)
        else:
            for k, delta in atom.deltas.items():
                phase_column(u, k, delta)
    return u


# ---------------------------------------------------------------------------
# chart constructors


def _split_chart_params(pattern: DegeneracyPattern, params):
    """Blocks ``(label, delta, theta)`` in ``canonical_order(pattern)`` and the
    n trailing phases of a flat n^2 chart parameter vector."""
    params = [float(p) for p in params]
    n = pattern.n
    if len(params) != n * n:
        raise ValueError(f"expected {n * n} parameters, got {len(params)}")
    order = canonical_order(pattern)
    blocks = [(lab, params[2 * k], params[2 * k + 1]) for k, lab in enumerate(order)]
    return blocks, params[2 * len(order) :]


def _diagonal(phases) -> PhaseAtom:
    return PhaseAtom(dict(enumerate(phases, start=1)))


def opor_word(n: int, blocks, trailing=None) -> Word:
    """Render blocks ``(label, delta, theta)`` as P_a(delta) R_ab(theta) ...,
    closed by the diagonal of ``trailing`` when given."""
    atoms: list[Atom] = []
    for (a, b), delta, theta in blocks:
        atoms.append(PhaseAtom({a: delta}))
        atoms.append(RotationAtom(min(a, b), max(a, b), theta))
    if trailing is not None:
        atoms.append(_diagonal(trailing))
    return Word(n=n, atoms=tuple(atoms))


def _phase_adjoint_word(n: int, blocks, trailing) -> Word:
    """Render blocks ``(label, psi, theta)`` as P_a(psi) R_ab(theta) P_a(-psi) ...,
    closed by the diagonal of ``trailing``; each -psi is wrapped."""
    atoms: list[Atom] = []
    for (a, b), psi, theta in blocks:
        atoms.append(PhaseAtom({a: psi}))
        atoms.append(RotationAtom(min(a, b), max(a, b), theta))
        atoms.append(PhaseAtom({a: _wrap(-psi, abs(psi))}))
    atoms.append(_diagonal(trailing))
    return Word(n=n, atoms=tuple(atoms))


def make_opor_chart(n: int, params) -> Word:
    """Full one phase-one rotation chart word from a flat parameter vector.

    ``params`` holds one (delta, theta) pair per block, ordered like
    :func:`canonical_order` for the all-singleton pattern, followed by the n
    trailing diagonal phases.  Total length n^2.
    """
    return opor_word(n, *_split_chart_params(DegeneracyPattern.singletons(n), params))


def make_phase_adjoint_chart(n: int, params) -> Word:
    """Chart of phase-conjugated rotations: each block's rotation is dressed
    as P R P^dagger on the pair's designated index, with a trailing diagonal.

    Same flat parameter layout as :func:`make_opor_chart` (n^2 values, of
    which n(n+1)/2 are phases).
    """
    return _phase_adjoint_word(n, *_split_chart_params(DegeneracyPattern.singletons(n), params))


# ---------------------------------------------------------------------------
# local rewrites


def rewrite_merge_phases(w: Word) -> Word:
    """Merge adjacent diagonals and push support-disjoint diagonals rightward
    past rotations, in one left-to-right pass.  The last output atom, when a
    phase, is the diagonal still moving right: the next phase merges into it
    and a rotation whose support misses it goes in front of it.  Evaluation is
    unchanged.  Merged angles are summed and wrapped, and a diagonal that
    merged with nothing is wrapped at the end; zero angles and empty
    diagonals are dropped.
    """
    atoms: list[Atom] = []
    for atom in w.atoms:
        diag = atoms[-1] if atoms and isinstance(atoms[-1], PhaseAtom) else None
        if diag is None:
            atoms.append(atom)
        elif isinstance(atom, RotationAtom):
            disjoint = {atom.i, atom.j}.isdisjoint(diag.deltas)
            atoms.insert(len(atoms) - 1 if disjoint else len(atoms), atom)
        else:
            terms = {idx: [val] for idx, val in diag.deltas.items()}
            for idx, val in atom.deltas.items():
                terms.setdefault(idx, []).append(val)
            merged = _wrapped(terms)
            atoms[-1:] = [merged] if merged.deltas else []
    out = (a if isinstance(a, RotationAtom) else _wrapped({k: [v] for k, v in a.deltas.items()})
           for a in atoms)
    return Word(n=w.n, atoms=tuple(a for a in out if isinstance(a, RotationAtom) or a.deltas))


def _wrapped(terms) -> PhaseAtom:
    """Phase atom of each index's wrapped sum of ``terms``, zero sums dropped."""
    sums = {k: _wrap(math.fsum(ts), math.fsum(map(abs, ts))) for k, ts in terms.items()}
    return PhaseAtom({k: v for k, v in sums.items() if v})


def _pass_residual(phase: PhaseAtom, rot: RotationAtom) -> tuple[PhaseAtom, PhaseAtom]:
    """Split ``phase`` against ``rot``: residual single + diagonal that passes.

    The residual sits on the pair's smaller index.  On the rotation's support
    the passing diagonal carries the larger index's phase on both rows;
    off-support entries pass unchanged.  Angles are wrapped and zero angles
    dropped, so either atom may come back empty.
    """
    i, j = rot.i, rot.j
    dj = phase.deltas.get(j, 0.0)
    passed = {k: [v] for k, v in phase.deltas.items() if k not in (i, j)}
    passed[i] = passed[j] = [dj]
    return _wrapped({i: [phase.deltas.get(i, 0.0), -dj]}), _wrapped(passed)


def rewrite_pass_through(w: Word, at: int, direction: str = "right") -> Word:
    """Pass the phase atom at position ``at`` through the neighbouring rotation.

    ``direction="right"`` requires a rotation at ``at + 1``: the common phase
    of the rotation's two rows emerges on its right and the difference stays
    behind on the pair's smaller index.  ``direction="left"`` is the mirror
    move for a rotation at ``at - 1``, from R diag(a, b) = diag(b, b) R
    diag(a/b, 1).  A phase atom left with no angle is omitted.
    """
    atoms = list(w.atoms)
    if not 0 <= at < len(atoms) or not isinstance(atoms[at], PhaseAtom):
        raise ValueError(f"no phase atom at position {at}")
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    r = at + 1 if direction == "right" else at - 1
    if not 0 <= r < len(atoms) or not isinstance(atoms[r], RotationAtom):
        raise ValueError(f"no rotation to the {direction} of position {at}")
    residual, passed = _pass_residual(atoms[at], atoms[r])
    out = [a for a in (residual, atoms[r], passed) if not isinstance(a, PhaseAtom) or a.deltas]
    if direction == "left":
        out.reverse()
    atoms[min(at, r) : max(at, r) + 1] = out
    return Word(n=w.n, atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# normal forms


def _check_unique_pairs(w: Word):
    pairs = w.rotation_pairs()
    if len(pairs) != len(set(pairs)):
        raise UnreachableFormError(
            "word repeats a rotation pair; only evaluation is supported for such words"
        )


def _reduce_angle(rot: RotationAtom) -> tuple[Atom, Atom, Atom]:
    """R(theta) as F_left R(theta') F_right, with theta' in [0, pi/2] and the
    flips F phases of pi on the rotation's rows that absorb the signs."""
    i, j = rot.i, rot.j
    th = _wrap(rot.theta, abs(rot.theta))
    if th <= HALF_PI:
        left, theta, right = {}, th, {}
    elif th <= math.pi:
        left, theta, right = {i: math.pi}, math.pi - th, {j: math.pi}
    elif th <= 1.5 * math.pi:
        left, theta, right = {i: math.pi, j: math.pi}, th - math.pi, {}
    else:
        left, theta, right = {j: math.pi}, TWO_PI - th, {j: math.pi}
    return PhaseAtom(left), RotationAtom(i, j, theta), PhaseAtom(right)


def _sweep(w: Word):
    """Push all phases rightward into block form: (blocks, trailing phases).

    The running diagonal accumulates every phase seen so far; at each
    rotation it splits into a single residual on the block's designated
    index plus a diagonal that keeps moving right.  ``mag`` sums the
    magnitudes of the terms behind each entry of the running diagonal.
    """
    phi, mag = [0.0] * w.n, [0.0] * w.n
    blocks = []
    for atom in w.atoms:
        if isinstance(atom, PhaseAtom):
            for idx, val in atom.deltas.items():
                phi[idx - 1] += val
                mag[idx - 1] += abs(val)
            continue
        a, b = oriented_pair(atom.i, atom.j, w.n)
        residual = _wrap(phi[a - 1] - phi[b - 1], mag[a - 1] + mag[b - 1])
        phi[a - 1], mag[a - 1] = phi[b - 1], mag[b - 1]
        blocks.append(((a, b), residual, atom.theta))
    return blocks, [_wrap(p, m) for p, m in zip(phi, mag)]


def _conjugated(n: int, blocks, trailing):
    """Block form with conjugation phases: each block's phase becomes the
    a - b difference of the running sum of block phases, up to and including
    its own, and the trailing phases absorb the whole sum.  All wrapped; every
    term arrives wrapped, so a running sum is its own magnitude."""
    phi = [0.0] * n
    dressed = []
    for (a, b), delta, theta in blocks:
        phi[a - 1] += delta
        dressed.append(((a, b), _wrap(phi[a - 1] - phi[b - 1], phi[a - 1] + phi[b - 1]), theta))
    return dressed, [_wrap(p + t, p + t) for p, t in zip(phi, trailing)]


def _normalize_km(w: Word) -> Word:
    """Rewrite into km form: outer diagonals plus unavoidable inner phases.

    Between consecutive rotations the running diagonal may change on a
    single index only.  A rotation whose pair links two index groups not yet
    tied together can have its conjugation phase absorbed into the left outer
    diagonal (the groups' relative offset is still free); once a pair closes
    a cycle the offset is pinned and one inner phase remains.  A weighted
    union-find tracks the pinned offsets, so a full chart keeps exactly
    (n-1)(n-2)/2 inner phases.
    """
    n = w.n
    dressed, q = _conjugated(n, *_sweep(w))

    parent = list(range(n))
    pot = [0.0] * n  # offset of the left outer diagonal relative to the root

    def find(x: int) -> tuple[int, float]:
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
    atoms: list[Atom] = [_diagonal(_wrap(x, abs(x)) for x in left)]
    for rot, inner in rotations:
        if inner:
            atoms.append(PhaseAtom({rot.i: inner}))
        atoms.append(rot)
    mag = [abs(q[x]) + abs(left[x]) + abs(off[x]) for x in range(n)]
    atoms.append(_diagonal(_wrap(q[x] - (left[x] + off[x]), mag[x]) for x in range(n)))
    return Word(n=n, atoms=tuple(atoms))


def normalize(w: Word, target: WordForm) -> Word:
    """Rewrite ``w`` into the target form with identical evaluation.

    Requires each rotation pair to occur at most once; rotation order is
    kept as given, never silently reordered.
    """
    if target is WordForm.GENERAL or not w.atoms:
        return w
    _check_unique_pairs(w)
    if target is WordForm.ONE_PHASE_ONE_ROTATION:
        return opor_word(w.n, *_sweep(w))
    if target is WordForm.PHASE_ADJOINT:
        return _phase_adjoint_word(w.n, *_conjugated(w.n, *_sweep(w)))
    if target is WordForm.KM:
        return _normalize_km(w)
    raise ValueError(f"unknown target form {target!r}")


def range_reduce(w: Word) -> Word:
    """Fold a one phase-one rotation word into canonical parameter ranges.

    Angles land in [0, pi/2] and phases in [0, 2*pi); sign flips are absorbed
    by neighbouring phases, so the evaluation is unchanged.  Idempotent.
    """
    if classify_form(w) is not WordForm.ONE_PHASE_ONE_ROTATION and w.atoms:
        raise FormError("range_reduce expects a one phase-one rotation word")
    if not w.atoms:
        return w
    flipped = [_reduce_angle(a) if isinstance(a, RotationAtom) else (a,) for a in w.atoms]
    return opor_word(w.n, *_sweep(Word(n=w.n, atoms=tuple(x for f in flipped for x in f))))


# ---------------------------------------------------------------------------
# form recognition and phase counting


def _single_on(phase: PhaseAtom, rot: RotationAtom) -> bool:
    return len(phase.deltas) == 1 and next(iter(phase.deltas)) in (rot.i, rot.j)


def _conjugates(left: PhaseAtom, rot: RotationAtom, right: PhaseAtom) -> bool:
    """``left rot right`` is P_a(x) R P_a(-x) on one of the rotation's indices."""
    if not (_single_on(left, rot) and _single_on(right, rot)):
        return False
    (li, lv), (ri, rv) = next(iter(left.deltas.items())), next(iter(right.deltas.items()))
    return li == ri and _wrap(lv + rv, abs(lv) + abs(rv)) == 0.0


def _parse_form(w: Word) -> tuple[WordForm, int, int]:
    """Read the form of ``w`` and its (internal, external) phase counts off one
    split into rotations and the phase runs between them: ``gaps[k]`` is the
    run before rotation k and ``gaps[-1]`` the run after the last rotation.

    opor runs all have length 1, each before a rotation a single phase on its
    pair; phase-adjoint runs have lengths [1, 2, ..., 2], each rotation between
    a single phase and its inverse; km's leading run holds at most the outer
    diagonal and one inner phase, every later run at most one atom, and every
    inner phase is single-index.  GENERAL counts are (0, 0).
    """
    rots: list[RotationAtom] = []
    gaps: list[list[PhaseAtom]] = [[]]
    for atom in w.atoms:
        if isinstance(atom, RotationAtom):
            rots.append(atom)
            gaps.append([])
        else:
            gaps[-1].append(atom)
    r, lengths = len(rots), [len(g) for g in gaps]
    if lengths == [1] * (r + 1) and all(_single_on(g[0], rot) for g, rot in zip(gaps, rots)):
        return WordForm.ONE_PHASE_ONE_ROTATION, max(r - 1, 0), (1 if r else 0) + w.n
    if r and lengths == [1] + [2] * r and all(
        _conjugates(gaps[k][-1], rot, gaps[k + 1][0]) for k, rot in enumerate(rots)
    ):
        return WordForm.PHASE_ADJOINT, r - 1, 1 + w.n
    inner = gaps[0][1:] + [p for g in gaps[1:-1] for p in g]
    if r and lengths[0] <= 2 and max(lengths[1:]) <= 1 and all(len(p.deltas) == 1 for p in inner):
        return WordForm.KM, len(inner), 2 * w.n - 1
    return WordForm.GENERAL, 0, 0


def classify_form(w: Word) -> WordForm:
    return _parse_form(w)[0]


def count_phases(w: Word) -> tuple[int, int]:
    """(internal, external) independent phase counts for a recognized form.

    Internal phases sit strictly between rotations and survive every
    supported rewrite; external ones live in the outermost diagonals.  For
    the km form the two outer diagonals share one global phase, hence
    2n - 1 external parameters.  A word with no phase atom, the empty word
    included, counts (0, 0) whatever its form.
    """
    if all(isinstance(a, RotationAtom) for a in w.atoms):
        return (0, 0)
    form, internal, external = _parse_form(w)
    if form is WordForm.GENERAL:
        raise FormError("word is not in a recognized form")
    return (internal, external)


# ---------------------------------------------------------------------------
# JSON encoding: {"n": 3, "atoms": [{"rot": [1, 3], "theta": 0.4},
#                                   {"phase": {"3": 1.2}}, ...]}


def word_to_json(w: Word) -> dict:
    atoms = []
    for atom in w.atoms:
        if isinstance(atom, RotationAtom):
            atoms.append({"rot": [atom.i, atom.j], "theta": atom.theta})
        else:
            atoms.append({"phase": {str(k): v for k, v in sorted(atom.deltas.items())}})
    return {"n": w.n, "atoms": atoms}


def word_from_json(obj: dict) -> Word:
    obj = _json(obj, "input", dict)
    n, atoms = _json(obj.get("n"), "n", int), []
    if n < 1:
        raise ValueError(f"n: expected a positive integer, got {n}")
    for pos, entry in enumerate(_json(obj.get("atoms"), "atoms", [dict])):
        at = f"atoms[{pos}]"
        if ("rot" in entry) == ("phase" in entry):
            raise ValueError(f"{at}: expected exactly one of 'rot' and 'phase'")
        if "rot" in entry:
            i, j = sorted(_json(entry["rot"], f"{at}.rot", (int, int)))
            if not 1 <= i < j <= n:
                raise ValueError(f"{at}.rot: expected two different indices in 1..{n}")
            atoms.append(RotationAtom(i, j, _json(entry.get("theta"), f"{at}.theta", float)))
        else:
            deltas = {}
            for k, v in _json(entry["phase"], f"{at}.phase", dict).items():
                if not (k.isdecimal() and str(int(k)) == k):  # the keys word_to_json writes
                    raise ValueError(f"{at}.phase: expected index keys such as '3', got {k!r}")
                if not 1 <= int(k) <= n:
                    raise ValueError(f"{at}.phase.{k}: expected an index in 1..{n}")
                deltas[int(k)] = _json(v, f"{at}.phase.{k}", float)
            atoms.append(PhaseAtom(deltas))
    return Word(n=n, atoms=tuple(atoms))
