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
brings any word into it with every angle in [0, pi/2], its signs moved into
phases of pi; :func:`opor_word` renders it as P_a R, :func:`_phase_adjoint_word`
as P_a R P_a^dagger, and km reads each block's conjugation phase, the a - b
difference of the running block-phase sum.

Normalization never changes the evaluation.  It rests on one identity: on a
rotation's support, diag(a, b) R = diag(a/b, 1) R diag(b, b), so a common phase
passes through the rotation and only the difference stays behind, on one index.
:func:`_sweep` applies it at every rotation in closed form, merging diagonals as
it goes, and is exact up to floating-point phase sums.

One angle rule: every phase term a rewrite sums enters through :func:`_turn`,
and every phase it emits leaves through :func:`_wrap`, into [0, 2*pi) and 0 within
a few ulps of 0 or 2*pi, measured against its terms' summed magnitude.

Loading this module loads no numpy: decoding, rewriting, normal forms, form
recognition and encoding run on the standard library, and :func:`evaluate`
loads numpy on its first call.  Its :func:`row_kernel` has a pure-Python twin,
:func:`list_kernel`, which :func:`_rows` runs for :func:`_gap`, the CLI's check
of a small rewrite, and the CLI's small ``build`` and ``decompose`` run too.

Atoms and words are validated tuples: each checks its fields on construction
(``_replace`` included), refuses assignment, and unpacks and compares like the
plain tuple of its fields.  The block form is checked where it enters: by
``charts.BlockParam`` and the chart and commutant label checks, by
:func:`make_opor_chart`, or by the rewrite or elimination that computes it.
:func:`opor_word` builds its atoms and word from it without checking again.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .degeneracy import DegeneracyPattern, canonical_order, oriented_pair
from .jsonio import _MAX, HALF_PI, TWO_PI, _json, _number

if TYPE_CHECKING:
    import numpy as np

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
    cancels.  No other code decides a phase is 0; :func:`_turn` alone also
    reduces one, a term of a full turn or more, before any rewrite sums it."""
    wrapped = angle % TWO_PI
    band = _WRAP_ULPS * math.ulp(max(mag, TWO_PI))
    return 0.0 if wrapped < band or TWO_PI - wrapped < band else wrapped


class WordForm(enum.Enum):
    ONE_PHASE_ONE_ROTATION = "opor"
    PHASE_ADJOINT = "phase_adjoint"
    KM = "km"
    GENERAL = "general"


class RotationAtom(namedtuple("RotationAtom", "i j theta")):
    """Rotation by ``theta`` acting on rows/columns ``i < j``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, i: int, j: int, theta: float):
        if type(i) is not int or type(j) is not int or not 1 <= i < j:
            raise ValueError(f"rotation needs integers 1 <= i < j, got ({i!r}, {j!r})")
        _number(theta, "theta")
        return tuple.__new__(cls, (i, j, theta))


class PhaseAtom(namedtuple("PhaseAtom", "deltas")):
    """Diagonal of exp(i * delta_k); indices absent from ``deltas`` get phase 0.
    Atoms compare by ``deltas``, so an explicit 0 is not the same as an absent index."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, deltas: Mapping[int, float]):
        deltas = dict(deltas)
        for idx, val in deltas.items():
            if type(idx) is not int or idx < 1:  # a bool is not an index
                raise ValueError(f"bad phase index {idx!r}")
            if type(val) is not float or not -_MAX <= val <= _MAX:  # so a finite float builds no path
                _number(val, f"deltas[{idx}]")
        return tuple.__new__(cls, (deltas,))


Atom = Union[RotationAtom, PhaseAtom]


class Word(namedtuple("Word", "n atoms")):
    """Ordered atom sequence over dimension ``n``; evaluates left to right."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, atoms: Iterable[Atom]):
        if type(n) is not int or n < 1:  # a bool is not a dimension
            raise ValueError(f"n must be a positive integer, got {n!r}")
        atoms = tuple(atoms)
        for atom in atoms:
            if isinstance(atom, RotationAtom):
                if atom.j > n:
                    raise ValueError(f"rotation {atom} exceeds dimension {n}")
            elif isinstance(atom, PhaseAtom):
                if atom.deltas and max(atom.deltas) > n:
                    raise ValueError(f"phase {atom} exceeds dimension {n}")
            else:
                raise TypeError(f"not an atom: {atom!r}")
        return tuple.__new__(cls, (n, atoms))


# ---------------------------------------------------------------------------
# evaluation: an in-place row kernel on V = U^T (U <- U A is V <- A^T V).  A
# rotation mixes two rows of V's float64 view as reals, a phase scales one row:
# O(n) per atom.  ``evaluate``, ``decompose`` and the rank oracle share it; its
# coefficients sit in 0-d registers, which numpy's ufuncs need not promote (README).


def row_kernel(v: np.ndarray):
    """``(rotate, phase)`` in place on the C-contiguous complex ``v``, with rows and registers
    of their own: ``rotate(i, j, theta)`` is ``V <- R^T V``, R the rotation (i, j, theta),
    and ``phase(k, delta)`` is ``V <- P V``, P the phase exp(i * delta) on 1-based k."""
    import numpy as np  # here, not at the top: the rest of the word algebra runs without it

    re, rows = list(v.view(np.float64)), list(v)
    c, s, p = np.zeros(()), np.zeros(()), np.zeros((), np.complex128)
    cos, sin = math.cos, math.sin

    def rotate(i: int, j: int, theta: float) -> None:
        c[()], s[()] = cos(theta), sin(theta)
        row_i, row_j = re[i - 1], re[j - 1]
        s_i, s_j = row_i * s, row_j * s
        row_i *= c
        row_i -= s_j
        row_j *= c
        row_j += s_i

    def phase(k: int, delta: float) -> None:
        p[()] = complex(cos(delta), sin(delta))
        rows[k - 1] *= p

    return rotate, phase


def evaluate(w: Word) -> np.ndarray:
    """Product of the atoms in listed order (identity when empty), C-contiguous; its
    values are the complex column product's, but an exact zero may carry either sign."""
    import numpy as np

    v = np.eye(w.n, dtype=np.complex128)
    rotate, phase = row_kernel(v)
    for atom in w.atoms:
        if type(atom) is RotationAtom:
            rotate(*atom)
        else:
            for k, delta in atom.deltas.items():
                phase(k, delta)
    return v.T.copy()


def list_kernel(rows: list[list[complex]]):
    """:func:`row_kernel`'s ``(rotate, phase)`` on ``rows``, lists of Python complex, each
    step replacing the rows it changes: the one pure-Python rotation and phase step."""
    cos, sin = math.cos, math.sin

    def rotate(i: int, j: int, theta: float) -> None:
        c, s = cos(theta), sin(theta)
        x, y = rows[i - 1], rows[j - 1]
        rows[i - 1] = [c * a - s * b for a, b in zip(x, y)]
        rows[j - 1] = [c * b + s * a for a, b in zip(x, y)]

    def phase(k: int, delta: float) -> None:
        p = complex(cos(delta), sin(delta))
        rows[k - 1] = [p * a for a in rows[k - 1]]

    return rotate, phase


def _rows(w: Word) -> list[list[complex]]:
    """V = U^T of ``w`` as rows of Python complex, by :func:`evaluate`'s steps in
    the same order.  Rotation-only words give its values bit for bit (an exact
    zero may differ in sign); a phase product may differ in the last bit, where
    numpy's complex multiply fuses."""
    rows = [[complex(r == c) for c in range(w.n)] for r in range(w.n)]
    rotate, phase = list_kernel(rows)
    for atom in w.atoms:
        if type(atom) is RotationAtom:
            rotate(*atom)
        else:
            for k, delta in atom.deltas.items():
                phase(k, delta)
    return rows


def _gap(w1: Word, w2: Word) -> float:
    """``max_abs_diff(evaluate(w1), evaluate(w2))`` of two words over one n, on
    :func:`_rows`: a rewrite's check without numpy."""
    return max(abs(a - b) for x, y in zip(_rows(w1), _rows(w2)) for a, b in zip(x, y))


# ---------------------------------------------------------------------------
# chart constructors


def _diagonal(phases) -> PhaseAtom:
    return PhaseAtom(dict(enumerate(phases, start=1)))


def opor_word(n: int, blocks, trailing=None) -> Word:
    """Render blocks ``(label, delta, theta)`` as P_a(delta) R_ab(theta) ...,
    closed by the diagonal of ``trailing`` when given.

    The blocks are not checked again, so they must already hold: ``n`` a positive
    int, each label a pair of distinct Python ints in 1..n, every value finite,
    and ``trailing``, when given, n values (its one diagonal is checked)."""
    new = tuple.__new__
    atoms: list[Atom] = []
    for (a, b), delta, theta in blocks:
        atoms.append(new(PhaseAtom, ({a: delta},)))
        atoms.append(new(RotationAtom, (a, b, theta) if a < b else (b, a, theta)))
    if trailing is not None:
        atoms.append(_diagonal(trailing))
    return new(Word, (n, tuple(atoms)))


def _phase_adjoint_word(n: int, blocks, trailing) -> Word:
    """Render blocks ``(label, psi, theta)``, each psi wrapped, as
    P_a(psi) R_ab(theta) P_a(-psi) ..., closed by the diagonal of ``trailing``."""
    atoms: list[Atom] = []
    for (a, b), psi, theta in blocks:
        atoms.append(PhaseAtom({a: psi}))
        atoms.append(RotationAtom(min(a, b), max(a, b), theta))
        atoms.append(PhaseAtom({a: _wrap(-psi, psi)}))
    atoms.append(_diagonal(trailing))
    return Word(n=n, atoms=tuple(atoms))


def make_opor_chart(n: int, params) -> Word:
    """Full one phase-one rotation chart word from a flat parameter vector.

    ``params`` holds one (delta, theta) pair per block, ordered like
    :func:`canonical_order` for the all-singleton pattern, followed by the n
    trailing diagonal phases: n^2 finite ints or floats, held as floats.
    """
    order = canonical_order(DegeneracyPattern.singletons(n))
    params = [float(_number(p, f"params[{k}]")) for k, p in enumerate(params)]
    if len(params) != n * n:
        raise ValueError(f"expected {n * n} parameters, got {len(params)}")
    blocks = [(lab, params[2 * k], params[2 * k + 1]) for k, lab in enumerate(order)]
    return opor_word(n, blocks, params[2 * len(order) :])


# ---------------------------------------------------------------------------
# normal forms


def _turn(x: float) -> float:
    """``x`` when |x| < 2*pi; otherwise the same angle in [-pi, pi], reduced
    through sin and cos, whose argument reduction is exact (Payne & Hanek, 1983);
    ``x % fl(2*pi)`` drifts by about 4e-17 |x|, since fl(2*pi) is not 2*pi."""
    return math.atan2(math.sin(x), math.cos(x)) if abs(x) >= TWO_PI else x


def _reduce_angle(i: int, j: int, theta: float):
    """R_ij(theta) as F_left R(theta') F_right: (left rows, theta', right rows),
    theta' in [0, pi/2] and each flip F a phase of pi on its rows.  An angle in
    range is kept bit for bit; a full turn or more is first reduced by :func:`_turn`."""
    theta = _turn(theta)
    th = theta if 0.0 <= theta <= HALF_PI else _wrap(theta, abs(theta))
    if th <= HALF_PI:
        return (), th, ()
    if th <= math.pi:
        return (i,), math.pi - th, (j,)
    if th <= 1.5 * math.pi:
        return (i, j), th - math.pi, ()
    return (j,), TWO_PI - th, (j,)


def _sweep(w: Word):
    """Push all phases rightward into block form: (blocks, trailing phases).

    The running diagonal accumulates every phase seen so far; at each
    rotation it splits into a single residual on the block's designated
    index plus a diagonal that keeps moving right; the flips of
    :func:`_reduce_angle` join it before and after the block.  ``mag`` sums
    the magnitudes of the terms behind each entry of the running diagonal.
    """
    phi, mag = [0.0] * w.n, [0.0] * w.n
    blocks = []
    for atom in w.atoms:
        if isinstance(atom, PhaseAtom):
            for idx, val in atom.deltas.items():
                val = _turn(val)
                phi[idx - 1] += val
                mag[idx - 1] += abs(val)
            continue
        left, theta, right = _reduce_angle(atom.i, atom.j, atom.theta)
        for k in left:
            phi[k - 1] += math.pi
            mag[k - 1] += math.pi
        a, b = oriented_pair(atom.i, atom.j, w.n)
        residual = _wrap(phi[a - 1] - phi[b - 1], mag[a - 1] + mag[b - 1])
        phi[a - 1], mag[a - 1] = phi[b - 1], mag[b - 1]
        blocks.append(((a, b), residual, theta))
        for k in right:
            phi[k - 1] += math.pi
            mag[k - 1] += math.pi
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
    a cycle the offset is pinned and one inner phase remains.  A merge shifts
    one group's left outer diagonal and relabels the group, so a full chart
    keeps exactly (n-1)(n-2)/2 inner phases.
    """
    n = w.n
    dressed, q = _conjugated(n, *_sweep(w))
    comp = list(range(n))  # group label of each index
    left = [0.0] * n  # the left outer diagonal
    off = [0.0] * n  # inner-phase increments applied so far
    rotations = []  # (rotation, wrapped inner phase on its index i or None)
    for (a, b), psi, theta in dressed:
        i, j = min(a, b), max(a, b)
        psi = psi if a == i else -psi  # the groups work on the i - j difference
        li, lj = left[i - 1], left[j - 1]
        inner = None
        if comp[i - 1] != comp[j - 1]:
            shift = psi - off[i - 1] + off[j - 1] - li + lj
            for x in [x for x in range(n) if comp[x] == comp[i - 1]]:
                left[x], comp[x] = left[x] + shift, comp[j - 1]
        else:
            inc = psi - ((li + off[i - 1]) - (lj + off[j - 1]))
            inner = _wrap(inc, abs(psi) + abs(li) + abs(off[i - 1]) + abs(lj) + abs(off[j - 1]))
            off[i - 1] += inc
        rotations.append((RotationAtom(i, j, theta), inner))
    atoms: list[Atom] = [_diagonal(_wrap(x, abs(x)) for x in left)] if rotations else []
    for rot, inner in rotations:
        if inner:
            atoms.append(PhaseAtom({rot.i: inner}))
        atoms.append(rot)
    mag = [abs(q[x]) + abs(left[x]) + abs(off[x]) for x in range(n)]
    atoms.append(_diagonal(_wrap(q[x] - (left[x] + off[x]), mag[x]) for x in range(n)))
    return Word(n=n, atoms=tuple(atoms))


def normalize(w: Word, target: WordForm) -> Word:
    """Rewrite ``w`` into the target form with identical evaluation; rotation
    order is kept as given, each angle lands in [0, pi/2], and one already there
    is kept bit for bit.  A nonempty word with no rotation becomes one diagonal
    in every normal form.  opor is idempotent.  Normalizing a km or phase-adjoint
    result again, or reaching km through the phase-adjoint form, keeps the
    rotations and phase keys, with phases equal within 1e-14 mod 2*pi.  An input
    phase or angle of a full turn or more is reduced exactly, by :func:`_turn`; opor
    is the one range reduction (``range_reduce``)."""
    if target is WordForm.GENERAL or not w.atoms:
        return w
    if target is WordForm.ONE_PHASE_ONE_ROTATION:
        return opor_word(w.n, *_sweep(w))
    if target is WordForm.PHASE_ADJOINT:
        return _phase_adjoint_word(w.n, *_conjugated(w.n, *_sweep(w)))
    if target is WordForm.KM:
        return _normalize_km(w)
    raise ValueError(f"unknown target form {target!r}")


def range_reduce(w: Word) -> Word:
    """``normalize(w, WordForm.ONE_PHASE_ONE_ROTATION)`` under its earlier name.  Not
    exported; it stays in this module only because the benchmark's factor-rewrite
    workload, its tracer and ``BENCHMARK.json`` name it, and goes with them."""
    return normalize(w, WordForm.ONE_PHASE_ONE_ROTATION)


# ---------------------------------------------------------------------------
# form recognition and phase counting


def _single_on(phase: PhaseAtom, rot: RotationAtom) -> bool:
    return len(phase.deltas) == 1 and next(iter(phase.deltas)) in (rot.i, rot.j)


def _conjugates(left: PhaseAtom, rot: RotationAtom, right: PhaseAtom) -> bool:
    """``left rot right`` is P_a(x) R P_a(-x) on one of the rotation's indices: the two
    phases, each through :func:`_turn`, sum to 0 by :func:`_wrap`."""
    if not _single_on(left, rot) or left.deltas.keys() != right.deltas.keys():
        return False
    (x,), (y,) = map(_turn, left.deltas.values()), map(_turn, right.deltas.values())
    return not _wrap(x + y, abs(x) + abs(y))


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
        raise ValueError("word is not in a recognized form")
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
