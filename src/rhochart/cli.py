"""JSON command-line interface.

Subcommands: count, build, rewrite, decompose, verify, commutant; each
accepts only the options its command reads.  Input is read from --in
(default stdin), output written to --out (default stdout).
Randomized actions require an explicit --seed and are fully deterministic
given one.  Exit codes: 0 ok, 2 usage error, 3 validation failure,
4 rewrite target unreachable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import builder, degeneracy, numerics, words
from .decompose import NotUnitaryError
from .decompose import decompose as decompose_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_UNREACHABLE = 4

#: exit code of a rejected request, by error type; any other ValueError or OSError is a usage error
_EXIT_CODES = {NotUnitaryError: EXIT_VALIDATION, words.UnreachableFormError: EXIT_UNREACHABLE}

#: largest matrix dimension a request may ask for (n x n arrays of 16 n^2 bytes)
MAX_DIM = 256


class _Parser(argparse.ArgumentParser):
    """Reports argument errors as a usage error: one ``error:`` line, exit 2."""

    def error(self, message):
        raise ValueError(message)


def _read_json(args):
    try:
        if args.infile:
            with open(args.infile) as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except RecursionError:
        raise ValueError("input: JSON nests too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"input: {exc}") from None


def _emit(args, payload: dict):
    text = json.dumps(payload, indent=2)
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _check_dim(n: int):
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the limit of {MAX_DIM}")


def _pattern_from_args(args) -> degeneracy.DegeneracyPattern:
    if not args.pattern:
        raise ValueError("--pattern is required")
    try:
        mults = [int(part) for part in args.pattern.split(",")]
    except ValueError:
        raise ValueError(f"malformed pattern string: {args.pattern!r}") from None
    _check_dim(sum(mults))  # before the classes of "--pattern 1000000000" fill memory
    pattern = degeneracy.DegeneracyPattern.from_multiplicities(mults)
    if args.n is not None and args.n != pattern.n:
        raise ValueError(f"--n {args.n} inconsistent with pattern of size {pattern.n}")
    return pattern


def _rng_from_args(args) -> np.random.Generator:
    if args.seed is None:
        raise ValueError("--seed is required for randomized actions")
    return np.random.default_rng(args.seed)


def cmd_count(args):
    pattern = _pattern_from_args(args)
    _emit(
        args,
        {
            "n": pattern.n,
            "pattern": list(pattern.multiplicities),
            "degrees_of_degeneracy": degeneracy.degrees_of_degeneracy(pattern),
            "redundant_params": degeneracy.redundant_params(pattern),
            "internal_params": degeneracy.internal_params(pattern),
            "orbit_dim": degeneracy.orbit_dim(pattern),
            "chart_param_count": pattern.n**2,
        },
    )
    return EXIT_OK


def cmd_build(args):
    pattern = _pattern_from_args(args)
    if args.random:
        if args.infile:
            raise ValueError("--in cannot be combined with --random, which reads no chart")
        chart = builder.random_density_chart(pattern, _rng_from_args(args))
    else:
        if args.seed is not None:
            raise ValueError("--seed needs --random; a chart read from --in is not sampled")
        mults = list(pattern.multiplicities)
        obj = {"pattern": mults, **numerics._json(_read_json(args), "input", dict)}
        # compared before any pattern is built: "pattern": [1000000] would take minutes
        if numerics._json(obj["pattern"], "pattern", list) != mults:
            raise ValueError(f"pattern: differs from --pattern {args.pattern}")
        chart = builder.DensityChart.from_json(obj)
    rho = builder.build_density(chart)
    report = builder.validate_density(rho, tol=args.tol)
    payload = {
        "chart": chart.to_json(),
        "matrix": numerics.matrix_to_json(rho),
        "validation": report.to_json(),
    }
    _emit(args, payload)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_rewrite(args):
    word = words.word_from_json(_read_json(args))
    _check_dim(word.n)
    rewritten = words.normalize(word, words.WordForm(args.to))
    diff = numerics.max_abs_diff(words.evaluate(word), words.evaluate(rewritten))
    _emit(args, {"word": words.word_to_json(rewritten), "max_abs_diff": diff})
    return EXIT_OK


def cmd_decompose(args):
    matrix = numerics.matrix_from_json(_read_json(args))
    result = decompose_matrix(matrix, tol=args.tol)
    _emit(args, {"word": words.word_to_json(result.word), "residual": result.residual})
    return EXIT_OK


def cmd_verify(args):
    matrix = numerics.matrix_from_json(_read_json(args))
    report = builder.validate_density(matrix, tol=args.tol)
    _emit(args, report.to_json())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_commutant(args):
    if not args.random:
        raise ValueError("commutant only samples; it needs --random and --seed")
    pattern = _pattern_from_args(args)
    rng = _rng_from_args(args)
    spec = builder.random_commutant_spec(pattern, rng)
    _emit(args, numerics.matrix_to_json(builder.build_commutant(spec)))
    return EXIT_OK


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
    "--n": dict(type=int, default=None, help="matrix dimension (cross-check)"),
    "--pattern": dict(help="multiplicity list, e.g. 2,1,1"),
    "--seed": dict(type=int, default=None, help="seed for randomized actions"),
    "--tol": dict(type=_tolerance, default=numerics.DEFAULT_TOL, help="positive tolerance"),
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
        ("--n", "--pattern", "--out"),
    ),
    (
        "build",
        cmd_build,
        "build a density matrix from a chart",
        ("--n", "--pattern", "--seed", "--tol", "--in", "--out", "--random"),
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
        ("--n", "--pattern", "--seed", "--out", "--random"),
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
