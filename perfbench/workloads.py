"""The four closed-loop workloads: inputs from a seed, one op, its check.

A workload hands out its inputs one round at a time.  A round holds one op
per schedule slot (a size and pattern kind, or a CLI request kind) in a
seeded order, and every round draws fresh angles, matrices and words, so no
input repeats within a run and a cache keyed on inputs would never hit.
Runs end on a round boundary, which keeps the mix of sizes the same in
every run.

``run`` is the timed part of an op and calls the library only through
module attributes, so the traced run can rebind them.  ``check`` runs
outside the timed interval.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

SIZES = (3, 4, 8, 16, 32)
RANK_SIZES = (3, 4, 5, 6)
RANK_EXTRA_SIZE = 8
CLI_SIZES = (3, 5, 8)
TWO_PI = 2.0 * math.pi
DEFAULT_TOL = 1e-10


def pattern_kinds(n: int):
    """Singletons, one degenerate pair, (n-1, 1) and two equal halves."""
    return ((1,) * n, (2,) + (1,) * (n - 2), (n - 1, 1), ((n + 1) // 2, n // 2))


def matrix_json(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def interleaved_word(words, n: int, rng):
    """Full diagonals between rotations over all pairs, superdiagonal by superdiagonal."""

    def diagonal():
        return words.PhaseAtom({k + 1: float(v) for k, v in enumerate(rng.uniform(0, TWO_PI, n))})

    atoms = [diagonal()]
    for d in range(1, n):
        for i in range(1, n - d + 1):
            atoms.append(words.RotationAtom(i, i + d, float(rng.uniform(0.0, math.pi / 2))))
            atoms.append(diagonal())
    return words.Word(n=n, atoms=tuple(atoms))


def shuffled(items, rng):
    return [items[k] for k in rng.permutation(len(items))]


class Workload:
    name = ""
    #: percentile reported as latency_tail_ms; chosen so that a 25 s run of
    #: the seed code leaves at least twice 10 samples beyond it
    tail_percentile = 50.0
    #: ops of a round run as warm-up during set-up (None: the whole round)
    warm_up_ops = None

    def __init__(self, lib):
        self.lib = lib

    def round_inputs(self, rng, index: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError

    def size(self, inp) -> int:
        raise NotImplementedError


class DensityBuild(Workload):
    """build_density, validate_density and the spectrum round trip."""

    name = "density-build"
    tail_percentile = 99.0

    def __init__(self, lib):
        super().__init__(lib)
        make = lib.degeneracy.DegeneracyPattern.from_multiplicities
        self.patterns = [make(m) for n in SIZES for m in pattern_kinds(n)]

    def round_inputs(self, rng, index):
        return [self.lib.builder.random_density_chart(p, rng) for p in shuffled(self.patterns, rng)]

    def run(self, chart):
        builder, charts_mod = self.lib.builder, self.lib.charts
        rho = builder.build_density(chart)
        report = builder.validate_density(rho)
        fitted = charts_mod.fit_chart(charts_mod.eigenvalues(chart.eigen), chart.pattern)
        return rho, report, fitted

    def check(self, chart, out):
        return checks.check_density(chart, *out)

    def size(self, chart):
        return chart.pattern.n


@dataclass(frozen=True)
class FactorInput:
    n: int
    matrix: dict | None = None  # the unitary as the CLI's matrix JSON
    unitary: np.ndarray | None = None
    near_unitary: bool = False
    word: object = None  # a phase-interleaved word to normalize


class FactorRewrite(Workload):
    """decompose plus the word rewrites, or normalization of a general word.

    Per size a round holds two Haar unitaries, one unitary perturbed to a
    defect between 0.1 and 0.9 of ``tol`` (inside the accepted range, clear
    of the rejection edge) and one phase-interleaved word.
    """

    name = "factor-rewrite"
    tail_percentile = 95.0

    def round_inputs(self, rng, index):
        out = []
        for n in SIZES:
            for near in (False, False, True):
                u = self.lib.numerics.haar_unitary(n, rng)
                if near:
                    u = self._perturb(u, rng)
                out.append(FactorInput(n=n, matrix=matrix_json(u), unitary=u, near_unitary=near))
            out.append(FactorInput(n=n, word=interleaved_word(self.lib.words, n, rng)))
        return shuffled(out, rng)

    @staticmethod
    def _perturb(u, rng):
        n = u.shape[0]
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        slope = checks.max_diff(e @ u.conj().T + u @ e.conj().T, np.zeros((n, n)))
        scale = rng.uniform(0.1, 0.9) * DEFAULT_TOL / slope
        v = u + scale * e
        while checks.max_diff(v @ v.conj().T, np.eye(n)) > 0.9 * DEFAULT_TOL:
            scale /= 2.0
            v = u + scale * e
        return v

    def _json_round_trip(self, word):
        words = self.lib.words
        return words.word_from_json(json.loads(json.dumps(words.word_to_json(word))))

    def run(self, inp):
        words, forms = self.lib.words, self.lib.words.WordForm
        if inp.word is None:
            u = self.lib.numerics.matrix_from_json(inp.matrix)
            result = self.lib.decompose.decompose(u)
            km = words.normalize(result.word, forms.KM)
            pa = words.normalize(result.word, forms.PHASE_ADJOINT)
            reduced = words.range_reduce(result.word)
            return result, (result.word, km, pa, reduced), self._json_round_trip(result.word)
        opor = words.normalize(inp.word, forms.ONE_PHASE_ONE_ROTATION)
        km = words.normalize(inp.word, forms.KM)
        pa = words.normalize(inp.word, forms.PHASE_ADJOINT)
        reduced = words.range_reduce(opor)
        return None, (opor, km, pa, reduced), self._json_round_trip(opor)

    def check(self, inp, out):
        result, (opor, km, pa, reduced), decoded = out
        forms, classify = self.lib.words.WordForm, self.lib.words.classify_form
        fail = None
        if result is not None:
            fail = checks.check_decompose(inp.unitary, inp.near_unitary, result.residual, result.word)
            source = checks.word_matrix(result.word)
        else:
            source = checks.word_matrix(inp.word)
        rewrites = [
            (opor, forms.ONE_PHASE_ONE_ROTATION),
            (km, forms.KM),
            (pa, forms.PHASE_ADJOINT),
            (reduced, forms.ONE_PHASE_ONE_ROTATION),
        ]
        return checks.worst(
            fail,
            checks.check_rewrites(source, rewrites, classify),
            checks.check_opor_ranges(reduced),
            checks.check_json_round_trip(opor, decoded),
        )

    def size(self, inp):
        return inp.n


class RankOracle(Workload):
    """jacobian_rank without and with the eigen angles on interior charts.

    One chart per partition of n = 3..6 plus the four pattern kinds at n = 8.
    Interior charts are only drawn up to n = 8: the interior rejection loop
    of ``random_density_chart`` can run for minutes at n = 32.
    """

    name = "rank-oracle"
    tail_percentile = 95.0

    def __init__(self, lib):
        super().__init__(lib)
        deg = lib.degeneracy
        mults = [m for n in RANK_SIZES for m in deg.all_partitions(n)]
        mults += pattern_kinds(RANK_EXTRA_SIZE)
        self.patterns = [deg.DegeneracyPattern.from_multiplicities(m) for m in mults]

    def round_inputs(self, rng, index):
        make = self.lib.builder.random_density_chart
        return [make(p, rng, interior=True) for p in shuffled(self.patterns, rng)]

    def run(self, chart):
        rank = self.lib.builder.jacobian_rank
        return rank(chart), rank(chart, include_eigen=True)

    def check(self, chart, out):
        mults = chart.pattern.multiplicities
        expected = checks.counts(mults)["orbit_dim"]
        n = chart.pattern.n
        return checks.worst(
            checks.check_rank(n, expected, out[0], f"{mults}"),
            checks.check_rank(n, expected + len(mults) - 1, out[1], f"{mults} with eigen angles"),
        )

    def size(self, chart):
        return chart.pattern.n


@dataclass(frozen=True)
class Request:
    command: str
    args: tuple
    multiplicities: tuple = ()
    payload: object = None  # the input the output is checked against
    target: str = ""
    malformed: bool = False

    @property
    def label(self) -> str:
        return "malformed" if self.malformed else self.command


# Malformed requests: (subcommand arguments, input file contents or None).
# ``{in}`` is replaced by the input file path and ``{rho}`` by a valid density.
# Handled and mishandled cases alternate so that every few rounds see both.
MALFORMED = (
    (("decompose", "--in", "{in}"), {"dim": True, "entries": [[1.0, 0.0]]}),
    (("verify", "--in", "{in}"), "not json"),
    (("rewrite", "--to", "km", "--in", "{in}"), {"n": "2", "atoms": [{"rot": [1, 2], "theta": 0.3}]}),
    (("decompose", "--in", "{in}"), {"dim": 2}),
    (("rewrite", "--to", "opor", "--in", "{in}"), {"n": 2, "atoms": None}),
    (("count", "--pattern", "2,x"), None),
    (("verify", "--in", "{in}"), {"dim": 2, "entries": 5}),
    (("decompose", "--in", "{in}"), {"dim": 2, "entries": [[1, 0], [1, 0], [0, 0], [1, 0]]}),
    (("verify", "--in", "{missing}"), None),
    (("build", "--pattern", "2,1", "--random"), None),
    (("verify", "--tol", "-1", "--in", "{rho}"), None),
    (("rewrite", "--in", "{rho}"), None),
)
MALFORMED_PER_ROUND = 3


class CliCold(Workload):
    """One ``python -m rhochart.cli`` process per op, timed from spawn to exit.

    A round holds the eight valid request kinds at one size (3, 5 or 8 in
    turn) and three malformed requests, taken in turn from MALFORMED.
    """

    name = "cli-cold"
    tail_percentile = 75.0
    warm_up_ops = 2

    def __init__(self, lib, workdir: Path, env: dict, cwd: Path):
        super().__init__(lib)
        self.workdir = workdir
        self.env = env
        self.cwd = cwd
        self.malformed = []
        for k, (args, contents) in enumerate(MALFORMED):
            path = workdir / f"malformed-{k}.json"
            if contents is not None:
                path.write_text(contents if isinstance(contents, str) else json.dumps(contents))
            self.malformed.append((args, str(path)))

    def _write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def round_inputs(self, rng, index):
        lib = self.lib
        n = CLI_SIZES[index % len(CLI_SIZES)]
        mults = pattern_kinds(n)[int(rng.integers(4))]
        pattern = lib.degeneracy.DegeneracyPattern.from_multiplicities(mults)
        pat = ",".join(str(m) for m in mults)
        chart = lib.builder.random_density_chart(pattern, rng).to_json()
        rho = checks.density_from_chart(mults, chart["eigen_angles"], checks.params_of_json(chart))
        word = lib.words.word_to_json(interleaved_word(lib.words, n, rng))
        unitary = matrix_json(lib.numerics.haar_unitary(n, rng))
        files = {
            "chart": self._write("chart.json", chart),
            "word": self._write("word.json", word),
            "unitary": self._write("unitary.json", unitary),
            "rho": self._write("rho.json", matrix_json(rho)),
        }
        seeds = [str(s) for s in rng.integers(0, 2**31, size=2)]
        requests = [
            Request("count", ("count", "--pattern", pat), mults),
            Request("build", ("build", "--pattern", pat, "--random", "--seed", seeds[0]), mults),
            Request("build", ("build", "--pattern", pat, "--in", files["chart"]), mults, chart),
            Request("rewrite", ("rewrite", "--to", "opor", "--in", files["word"]), payload=word, target="opor"),
            Request("rewrite", ("rewrite", "--to", "km", "--in", files["word"]), payload=word, target="km"),
            Request("decompose", ("decompose", "--in", files["unitary"]), payload=unitary),
            Request("verify", ("verify", "--in", files["rho"])),
            Request("commutant", ("commutant", "--pattern", pat, "--random", "--seed", seeds[1]), mults),
        ]
        missing = str(self.workdir / "absent.json")
        for k in range(MALFORMED_PER_ROUND):
            args, path = self.malformed[(index * MALFORMED_PER_ROUND + k) % len(self.malformed)]
            args = tuple(a.format(**{"in": path, "missing": missing, "rho": files["rho"]}) for a in args)
            requests.append(Request(args[0], args, malformed=True))
        return shuffled(requests, rng)

    def run(self, request):
        return subprocess.run(
            [sys.executable, "-m", "rhochart.cli", *request.args],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.cwd,
            timeout=120,
        )

    def check(self, request, proc):
        words = self.lib.words

        def classify(obj):
            return words.classify_form(words.word_from_json(obj))

        return checks.check_cli(request, proc.returncode, proc.stdout, proc.stderr, classify)

    def size(self, request):
        return sum(request.multiplicities)
