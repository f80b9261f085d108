"""The chart value layer: the minimal chart of a density matrix and of its commutant.

A density chart holds a degeneracy pattern, eigenvalue angles and one
(phase, angle) pair per rotation block that joins two eigenvalue classes; the
in-class blocks commute with the eigenvalue matrix and are pruned, with the
trailing diagonal, to ``orbit_dim(pattern)`` unitary parameters.  The
eigenvalue angles are squared polar coordinates on a k-sphere: k class masses,
non-negative and summing to one by construction, each shared equally by the
indices of its class, so a degenerate spectrum has fewer angles.

The charts, commutant specs and block parameters are validated tuples, like the
value types of :mod:`rhochart.words`.  Their seeded samplers draw from :class:`PCG64`,
a standard-library stream equal to numpy's ``default_rng(seed)``, or from numpy's
``Generator`` itself.  Nothing here loads numpy but :func:`eigen_matrix` and the
interior branch of :func:`random_density_chart`, on their first call:
:meth:`DensityChart.from_json` refuses a chart by the JSON path of the value at fault
before any array exists.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable

from .degeneracy import DegeneracyPattern, canonical_order, orbit_dim
from .jsonio import HALF_PI, TWO_PI, _built, _json, _number

if TYPE_CHECKING:
    import numpy as np

FIT_TOL = 1e-9

#: minimum class-mass separation for a chart to count as interior
MASS_GAP = 1e-6


class EigenChart(namedtuple("EigenChart", "pattern angles")):
    """Angles on [0, pi/2]^(k-1) selecting a spectrum for ``pattern``; a validated tuple."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, pattern: DegeneracyPattern, angles: Iterable[float]):
        angles, k = tuple(angles), pattern.num_classes
        if len(angles) != k - 1:
            raise ValueError(f"expected {k - 1} angles for {k} classes, got {len(angles)}")
        for a in angles:
            _angle(a)
        return tuple.__new__(cls, (pattern, angles))


def _angle(a: float) -> float:
    """``a``, refused unless it is a number in [0, pi/2]; a float in range takes one test."""
    if not (type(a) is float and 0.0 <= a <= HALF_PI) and not 0.0 <= _number(a) <= HALF_PI:
        raise ValueError(f"angle {a} outside [0, pi/2]")
    return a


def class_masses(c: EigenChart) -> list[float]:
    """Squared polar components, one per class; non-negative, summing to 1.

    cos^2 is computed as 1 - sin^2 so the telescoping sum stays within a few
    ulp of one.
    """
    k = c.pattern.num_classes
    sin2 = [math.sin(a) ** 2 for a in c.angles]
    masses = [0.0] * k
    tail = 1.0  # product of sin^2 over the angles not yet consumed
    for m in range(k - 1, 0, -1):
        masses[m] = (1.0 - sin2[m - 1]) * tail
        tail *= sin2[m - 1]
    masses[0] = tail
    return masses


def spread(pattern: DegeneracyPattern, masses) -> list[float]:
    """Per-index values in index order, each class's mass shared equally by its
    indices; entries inside one class are bitwise equal.  Classes past the end of
    ``masses`` get 0."""
    values = [0.0] * pattern.n
    for mass, cls in zip(masses, pattern.classes):
        share = mass / len(cls)
        for idx in cls:
            values[idx - 1] = share
    return values


def eigenvalues(c: EigenChart) -> list[float]:
    """Spectrum in index order."""
    return spread(c.pattern, class_masses(c))


def eigen_matrix(c: EigenChart) -> np.ndarray:
    import numpy as np  # here, not at the top: the chart values run without it

    return np.diag(np.asarray(eigenvalues(c), dtype=np.complex128))


def fit_chart(values, pattern: DegeneracyPattern) -> EigenChart:
    """Inverse of :func:`eigenvalues` on the canonical angle range.

    ``values`` must be non-negative, sum to one and be constant within each
    class of ``pattern``, each within ``FIT_TOL``.
    """
    values = [float(v) for v in values]
    if len(values) != pattern.n:
        raise ValueError(f"expected {pattern.n} values, got {len(values)}")
    if any(v < -FIT_TOL for v in values):
        raise ValueError("negative eigenvalue")
    if abs(sum(values) - 1.0) > FIT_TOL:
        raise ValueError(f"trace {sum(values)} is not 1")
    masses = []
    for cls in pattern.classes:
        members = [values[idx - 1] for idx in cls]
        if max(members) - min(members) > FIT_TOL:
            raise ValueError(f"values not constant on class {cls}")
        masses.append(sum(members))

    k = pattern.num_classes
    angles = []
    partial = masses[0]
    for m in range(1, k):
        # partial = mass of the first m classes = sin^2 of the next angle,
        # relative to the not-yet-normalized remainder
        angles.append(math.atan2(math.sqrt(max(partial, 0.0)), math.sqrt(max(masses[m], 0.0))))
        partial += masses[m]
    return EigenChart(pattern=pattern, angles=tuple(angles))


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
        if not (type(delta) is type(theta) is float and 0.0 <= delta < TWO_PI and 0.0 <= theta <= HALF_PI):
            _number(delta, "delta"), _number(theta, "theta")  # floats in range skip the calls
            if not (0.0 <= delta < TWO_PI and 0.0 <= theta <= HALF_PI):
                raise ValueError(f"block {block}: delta must lie in [0, 2*pi), theta in [0, pi/2]")
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
        """The chart of ``obj``: the type and shape of every field are read first, then
        the values checked, a refusal named by the JSON path its value came from."""
        obj = _json(obj, "input", dict)
        mults = _json(obj.get("pattern"), "pattern", [int])
        angles = _json(obj.get("eigen_angles"), "eigen_angles", [float])
        params = []
        for pos, e in enumerate(_json(obj.get("unitary_params"), "unitary_params", [dict])):
            at = f"unitary_params[{pos}]"
            block = tuple(_json(e.get("block"), f"{at}.block", (int, int)))
            params.append((block, *(_json(e.get(k), f"{at}.{k}", float) for k in ("delta", "theta"))))
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
            _number(phase, f"phases[{k}]")
        return tuple.__new__(cls, (pattern, block_params, phases))


# ---------------------------------------------------------------------------
# seeded sampling (tests and CLI)

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
#: the 128-bit LCG multiplier of numpy's PCG64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class PCG64:
    """numpy's ``default_rng(seed).uniform`` over lists of bounds, in the standard library.

    O'Neill's PCG64 (HMC-CS-2014-0905): a 128-bit LCG whose output is XSL-RR.  The
    non-negative int ``seed`` is expanded as numpy's ``SeedSequence`` expands it: its
    32-bit words are hashed into a pool of 4, which ``generate_state(4, uint64)`` reads
    as the initial state and stream (``pcg_setseq_128_srandom_r``).  A draw in
    [low, high) is low + (high - low) (x >> 11) 2^-53, x the next output, as numpy's.
    """

    def __init__(self, seed: int):
        if seed < 0:  # as numpy's SeedSequence refuses it
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        h = 0x43B0D7E5

        def hashmix(v: int) -> int:
            nonlocal h
            v, h = v ^ h, h * 0x931E8875 & _M32
            v = v * h & _M32
            return v ^ v >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for e in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(e))
        h, words = 0x8B51F9DD, []
        for k in range(8):
            v, h = pool[k % 4] ^ h, h * 0x58F38DED & _M32
            v = v * h & _M32
            words.append(v ^ v >> 16)
        s0, s1, i0, i1 = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128

    def _next(self) -> int:
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low: list[float], high: list[float]) -> list[float]:
        """One draw per pair of bounds, in order."""
        return [lo + (hi - lo) * ((self._next() >> 11) * 2.0**-53) for lo, hi in zip(low, high)]


def _draw(
    rng: PCG64 | np.random.Generator, blocks: int, margin: float = 0.0, phases: int = 0, angles: int = 0
) -> list[float]:
    """One uniform draw in the order seeded outputs depend on: delta then theta
    of each of ``blocks`` blocks in turn, then ``phases`` phases in [0, 2 pi), then
    ``angles`` angles in [0, pi/2].  Block angles keep ``margin`` from each end of
    their range.  numpy fills an array of bounds element by element with the scalar
    formula, so the values are those of one scalar draw per angle in this order, and
    ``rng``, a :class:`PCG64` or a numpy ``Generator``, gives Python floats alike."""
    low = [margin] * (2 * blocks) + [0.0] * (phases + angles)
    high = [TWO_PI - margin, HALF_PI - margin] * blocks + [TWO_PI] * phases + [HALF_PI] * angles
    x = rng.uniform(low, high)
    return x if type(x) is list else x.tolist()


def random_density_chart(
    pattern: DegeneracyPattern,
    rng: PCG64 | np.random.Generator,
    interior: bool = False,
) -> DensityChart:
    """Chart with angles uniform over their canonical ranges.

    Draw order: delta then theta of each kept block, then the eigen draws.  With
    ``interior=True``, ``rng`` must be a numpy ``Generator``: block angles keep a
    1e-2 margin, and the k class masses are drawn at once, uniform on the simplex
    above a floor that keeps them 2e-4 from 0 and 10 ``MASS_GAP`` apart;
    ``fit_chart`` inverts them, in random class order, to eigen angles more than
    0.014 inside [0, pi/2].
    """
    labels, k = kept_blocks(pattern), pattern.num_classes
    x = _draw(rng, len(labels), 1e-2 if interior else 0.0, angles=0 if interior else k - 1)
    blocks = tuple(map(BlockParam, labels, x[0::2], x[1::2]))  # stops at the last label
    if interior:
        import numpy as np  # here, not at the top: the CLI's samples run without it

        least = 2e-4 + 10 * MASS_GAP * np.arange(k)
        masses = np.sort(rng.dirichlet(np.ones(k))) * (1.0 - least.sum()) + least
        eigen = fit_chart(spread(pattern, rng.permutation(masses)), pattern)
    else:
        eigen = EigenChart(pattern, x[2 * len(labels) :])
    return DensityChart(pattern=pattern, eigen=eigen, unitary_params=blocks)


def random_commutant_spec(pattern: DegeneracyPattern, rng: PCG64 | np.random.Generator) -> CommutantSpec:
    """Commutant with angles uniform over their ranges.  Draw order: delta then
    theta of each in-class block, then the n diagonal phases."""
    labels = dropped_blocks(pattern)
    x = _draw(rng, len(labels), phases=pattern.n)
    blocks = tuple(map(BlockParam, labels, x[0::2], x[1::2]))  # stops at the last label
    return CommutantSpec(pattern=pattern, block_params=blocks, phases=tuple(x[2 * len(labels) :]))
