"""JSON command-line interface.

Subcommands: count, build, rewrite, decompose, verify, commutant; each
accepts only the options its command reads.  Input is read from --in
(default stdin), output written to --out (default stdout).
Randomized actions require an explicit --seed and are fully deterministic
given one.  Exit codes: 0 ok, 2 usage error, 3 validation failure.

The CLI reads the library as ``rc.<name>``, through the package's lazy
exports.  A command binds its input to a local and checks its options before
it touches any such name (``rc.f(_read_json(args))`` would load f's module
first), so ``count``, ``--help`` and a request rejected before any array
exists never load numpy; that includes a word, matrix or chart its decoder
refuses, whether for a field's type, its shape or its value.  Nor does
``rewrite`` of a word whose check is at most ``PURE_CHECK_MAX`` (n x row
steps): it compares the two words' products on pure-Python rows.  ``build``,
``decompose`` and ``verify`` at n <= ``PURE_DIM_MAX`` compute on rows of
Python complex (:mod:`rhochart.pure`), so only ``build --random`` samples with
numpy; a larger request runs on the numpy library.  Each path depends on the
input alone, so a request prints the same bytes in every process.

A process runs its one request through :func:`run`, the entry of both
``python -m rhochart.cli`` and the ``rhochart`` script, with the cyclic garbage
collector off and the heap frozen before shutdown: no collection runs while
numpy imports, and the full collections of shutdown skip numpy's objects.
:func:`main` called in-process does neither.  A stdin or stdout closed when the
process started is a usage error (``error: input: …``, ``error: output: …``),
``--help`` included; a closed stderr loses the ``error:`` line, never the exit code.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

import rhochart as rc

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3

#: largest matrix dimension a request may ask for (n x n arrays of 16 n^2 bytes)
MAX_DIM = 256

#: largest n x (row steps of both words) whose rewrite is checked on pure-Python rows
#: (words._gap); a larger check evaluates on numpy
PURE_CHECK_MAX = 200_000

#: largest n of a build, decompose or verify computed on rows of Python complex
#: (rhochart.pure); a larger one runs on numpy
PURE_DIM_MAX = 32


class _Invalid(ValueError):
    """A request that was read but fails validation: exit 3, not 2."""


class _Parser(argparse.ArgumentParser):
    """Reports argument errors as a usage error: one ``error:`` line, exit 2;
    ``--help`` writes to standard output like every other request."""

    def error(self, message):
        raise ValueError(message)

    def print_help(self, file=None):
        super().print_help(file or _stdout())  # argparse would fall back to stderr


def _read_json(args, size=None):
    """The request's JSON; an integer ``size`` field above MAX_DIM is refused
    before any decoder reads the rest (any other value is the decoder's to reject)."""
    try:
        if args.infile:
            with open(args.infile) as fh:
                obj = json.load(fh)
        elif sys.stdin is None:  # fd 0 was closed when the process started
            raise ValueError("input: standard input is closed")
        else:
            obj = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("input: JSON nests too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"input: {exc}") from None
    if size and isinstance(obj, dict) and type(obj.get(size)) is int:
        _check_dim(obj[size])
    return obj


def _matrix(args):
    """The request's matrix: rows of Python complex when its n is at most
    PURE_DIM_MAX, else a numpy array."""
    rows = rc.jsonio.matrix_rows(_read_json(args, "dim"))
    return rows if len(rows) <= PURE_DIM_MAX else rc.numerics.as_matrix(rows)


def _stdout():
    if sys.stdout is None:  # fd 1 was closed when the process started
        raise ValueError("output: standard output is closed")
    return sys.stdout


def _emit(args, payload: dict):
    text = json.dumps(payload, indent=2)
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text + "\n")
    else:
        _stdout().write(text + "\n")


def _check_dim(n: int):
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the limit of {MAX_DIM}")


def _rng_from_args(args):
    if args.seed is None:
        raise ValueError("--seed is required for randomized actions")
    if args.seed < 0:
        raise ValueError(f"argument --seed: must be a non-negative integer, got {args.seed}")
    import numpy as np
    return np.random.default_rng(args.seed)


def _tol(args) -> float:
    """``--tol``, or ``DEFAULT_TOL`` when the request gives none."""
    return rc.jsonio.DEFAULT_TOL if args.tol is None else args.tol


def cmd_count(args):
    pattern = args.pattern
    payload = {
        "n": pattern.n,
        "pattern": list(pattern.multiplicities),
        "degrees_of_degeneracy": rc.degrees_of_degeneracy(pattern),
        "redundant_params": rc.redundant_params(pattern),
        "internal_params": rc.internal_params(pattern),
        "orbit_dim": rc.orbit_dim(pattern),
        "chart_param_count": pattern.n**2,
    }
    return payload, EXIT_OK


def cmd_build(args):
    pattern = args.pattern
    if args.random:
        if args.infile:
            raise ValueError("--in cannot be combined with --random, which reads no chart")
        rng = _rng_from_args(args)
        chart = rc.builder.random_density_chart(pattern, rng)
    else:
        if args.seed is not None:
            raise ValueError("--seed needs --random; a chart read from --in is not sampled")
        obj = _read_json(args)
        mults = list(pattern.multiplicities)
        obj = {"pattern": mults, **rc.jsonio._json(obj, "input", dict)}
        # compared before any pattern is built: "pattern": [1000000] would take minutes
        if rc.jsonio._json(obj["pattern"], "pattern", list) != mults:
            raise ValueError(f"pattern: differs from --pattern {','.join(map(str, mults))}")
        chart = rc.DensityChart.from_json(obj)  # checked before any array exists
    if pattern.n <= PURE_DIM_MAX:
        rho = rc.pure.build_density(chart)
        matrix, report = rc.pure.matrix_to_json(rho), rc.pure.density_report(rho, _tol(args))
    else:
        rho = rc.build_density(chart)
        matrix, report = rc.matrix_to_json(rho), rc.validate_density(rho, tol=_tol(args)).to_json()
    payload = {"chart": chart.to_json(), "matrix": matrix, "validation": report}
    return payload, EXIT_OK if report["passed"] else EXIT_VALIDATION


def _steps(word) -> int:
    """Row steps of evaluating ``word``: one per rotation and one per phase entry, at
    least one per phase atom, so never fewer than its atoms."""
    return sum(len(a.deltas) or 1 if isinstance(a, rc.PhaseAtom) else 1 for a in word.atoms)


def cmd_rewrite(args):
    obj = _read_json(args, "n")
    word = rc.word_from_json(obj)
    rewritten = rc.normalize(word, rc.WordForm(args.to))
    budget = PURE_CHECK_MAX // word.n  # row steps; a word has at least one per atom
    small = len(word.atoms) + len(rewritten.atoms) <= budget  # a large word's steps go uncounted
    if small and _steps(word) + _steps(rewritten) <= budget:
        diff = rc.words._gap(word, rewritten)
    else:
        diff = rc.max_abs_diff(rc.evaluate(word), rc.evaluate(rewritten))
    return {"word": rc.word_to_json(rewritten), "max_abs_diff": diff}, EXIT_OK


def cmd_decompose(args):
    matrix = _matrix(args)
    factor = rc.pure.decompose if isinstance(matrix, list) else rc.decompose
    try:
        result = factor(matrix, tol=_tol(args))
    except rc.NotUnitaryError as exc:  # a matrix that is not unitary fails validation
        raise _Invalid(str(exc)) from None
    return {"word": rc.word_to_json(result.word), "residual": result.residual}, EXIT_OK


def cmd_verify(args):
    matrix = _matrix(args)
    if isinstance(matrix, list):
        report = rc.pure.density_report(matrix, _tol(args))
    else:
        report = rc.validate_density(matrix, tol=_tol(args)).to_json()
    return report, EXIT_OK if report["passed"] else EXIT_VALIDATION


def cmd_commutant(args):
    if not args.random:
        raise ValueError("commutant only samples; it needs --random and --seed")
    rng = _rng_from_args(args)
    spec = rc.builder.random_commutant_spec(args.pattern, rng)
    return rc.matrix_to_json(rc.build_commutant(spec)), EXIT_OK


def _pattern(text: str) -> rc.DegeneracyPattern:
    """``--pattern`` value: a multiplicity list such as ``2,1,1``, of size at most MAX_DIM."""
    try:
        mults = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed pattern string: {text!r}") from None
    try:
        _check_dim(sum(mults))  # before the classes of "--pattern 1000000000" fill memory
        return rc.DegeneracyPattern.from_multiplicities(mults)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerance(text: str) -> float:
    """``--tol`` value: a positive, finite float."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return tol


#: every option, in help order; a subcommand registers only the ones its command reads
_OPTIONS = {
    "--pattern": dict(type=_pattern, required=True, help="multiplicity list, e.g. 2,1,1"),
    "--seed": dict(type=int, default=None, help="seed for randomized actions"),
    "--tol": dict(type=_tolerance, default=None, help="positive tolerance"),
    "--to": dict(choices=["opor", "km"], required=True),
    "--in": dict(dest="infile", default=None, help="input JSON file (default stdin)"),
    "--out": dict(dest="outfile", default=None, help="output file (default stdout)"),
    "--random": dict(action="store_true", help="sample randomly (needs --seed)"),
}

_SUBCOMMANDS = (
    (
        "count",
        cmd_count,
        "parameter counts for a degeneracy pattern",
        ("--pattern", "--out"),
    ),
    (
        "build",
        cmd_build,
        "build a density matrix from a chart",
        ("--pattern", "--seed", "--tol", "--in", "--out", "--random"),
    ),
    ("rewrite", cmd_rewrite, "normalize a word to a target form", ("--to", "--in", "--out")),
    (
        "decompose",
        cmd_decompose,
        "factor a unitary matrix into a chart word",
        ("--tol", "--in", "--out"),
    ),
    ("verify", cmd_verify, "check the density-matrix conditions", ("--tol", "--in", "--out")),
    (
        "commutant",
        cmd_commutant,
        "sample a commutant of a pattern",
        ("--pattern", "--seed", "--out", "--random"),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rhochart",
        description="density-matrix charts: counting, building, rewriting, decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.func(args)
        _emit(args, payload)
        return code
    except (ValueError, OSError) as exc:
        code = EXIT_VALIDATION if isinstance(exc, _Invalid) else EXIT_USAGE
        try:
            sys.stderr.write(f"error: {exc}\n")
        except (AttributeError, OSError):  # stderr is closed: the exit code still tells
            pass
        return code


def run() -> int:
    """Process entry: :func:`main` with the collector off, the heap frozen after it."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
