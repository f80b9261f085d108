"""JSON command-line interface.

Subcommands: count, build, rewrite, decompose, verify, commutant.  Input is
read from --in (default stdin), output written to --out (default stdout).
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


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports argument errors as a usage error: one ``error:`` line, exit 2."""

    def error(self, message):
        raise _UsageError(message)


class _ValidationFailure(Exception):
    def __init__(self, payload):
        self.payload = payload


def _read_json(args) -> dict:
    if args.infile:
        with open(args.infile) as fh:
            return json.load(fh)
    return json.load(sys.stdin)


def _emit(args, payload: dict):
    text = json.dumps(payload, indent=2)
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _pattern_from_args(args) -> degeneracy.DegeneracyPattern:
    if not args.pattern:
        raise _UsageError("--pattern is required")
    pattern = degeneracy.DegeneracyPattern.parse(args.pattern)
    if args.n is not None and args.n != pattern.n:
        raise _UsageError(f"--n {args.n} inconsistent with pattern of size {pattern.n}")
    return pattern


def _rng_from_args(args) -> np.random.Generator:
    if args.seed is None:
        raise _UsageError("--seed is required for randomized actions")
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
        rng = _rng_from_args(args)
        chart = builder.random_density_chart(pattern, rng)
    else:
        obj = _read_json(args)
        if "pattern" in obj and list(obj["pattern"]) != list(pattern.multiplicities):
            raise _UsageError("pattern in params file differs from --pattern")
        chart = builder.DensityChart.from_json({**obj, "pattern": pattern.multiplicities})
    rho = builder.build_density(chart)
    report = builder.validate_density(rho, tol=args.tol)
    payload = {
        "chart": chart.to_json(),
        "matrix": numerics.matrix_to_json(rho),
        "validation": report.to_json(),
    }
    if not report.passed:
        raise _ValidationFailure(payload)
    _emit(args, payload)
    return EXIT_OK


def cmd_rewrite(args):
    word = words.word_from_json(_read_json(args))
    target = {"opor": words.WordForm.ONE_PHASE_ONE_ROTATION, "km": words.WordForm.KM}[args.to]
    rewritten = words.normalize(word, target)
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
    payload = report.to_json()
    if not report.passed:
        raise _ValidationFailure(payload)
    _emit(args, payload)
    return EXIT_OK


def cmd_commutant(args):
    pattern = _pattern_from_args(args)
    rng = _rng_from_args(args)
    spec = builder.random_commutant_spec(pattern, rng)
    _emit(args, numerics.matrix_to_json(builder.build_commutant(spec)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rhochart",
        description="density-matrix charts: counting, building, rewriting, decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_pattern=False, needs_to=False):
        p.add_argument("--n", type=int, default=None, help="matrix dimension (cross-check)")
        if needs_pattern:
            p.add_argument("--pattern", help="multiplicity list, e.g. 2,1,1")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized actions")
        p.add_argument("--tol", type=float, default=numerics.DEFAULT_TOL)
        if needs_to:
            p.add_argument("--to", choices=["opor", "km"], required=True)
        p.add_argument("--in", dest="infile", default=None, help="input JSON file (default stdin)")
        p.add_argument("--out", dest="outfile", default=None, help="output file (default stdout)")

    p_count = sub.add_parser("count", help="parameter counts for a degeneracy pattern")
    common(p_count, needs_pattern=True)
    p_count.set_defaults(func=cmd_count)

    p_build = sub.add_parser("build", help="build a density matrix from a chart")
    common(p_build, needs_pattern=True)
    p_build.add_argument("--random", action="store_true", help="sample a chart (needs --seed)")
    p_build.set_defaults(func=cmd_build)

    p_rw = sub.add_parser("rewrite", help="normalize a word to a target form")
    common(p_rw, needs_to=True)
    p_rw.set_defaults(func=cmd_rewrite)

    p_dec = sub.add_parser("decompose", help="factor a unitary matrix into a chart word")
    common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="check the density-matrix conditions")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_com = sub.add_parser("commutant", help="sample a commutant of a pattern")
    common(p_com, needs_pattern=True)
    p_com.add_argument("--random", action="store_true")
    p_com.set_defaults(func=cmd_commutant)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise _UsageError(f"--tol must be positive and finite, got {args.tol}")
        return args.func(args)
    except _ValidationFailure as exc:
        _emit(args, exc.payload)
        return EXIT_VALIDATION
    except NotUnitaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except words.UnreachableFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
