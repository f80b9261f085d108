"""Checker self-test, run at the start of every benchmark run.

Real outputs of small ops are checked once as they are, where the checker
must find nothing, and once corrupted, where it must report the expected
failure kind.  A run whose checker misses a case stops before measuring.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

import checks
import workloads


def _density_cases(lib, rng):
    wl = workloads.DensityBuild(lib)
    pattern = lib.degeneracy.DegeneracyPattern.from_multiplicities((2, 1, 1))
    chart = lib.builder.random_density_chart(pattern, rng)
    rho, report, fitted = wl.run(chart)
    other = lib.builder.random_density_chart(pattern, rng)
    bad_rho = rho.copy()
    bad_rho[0, 1] += 1e-6
    bad_rho[1, 0] += 1e-6
    failed_report = replace(report, passed=False)
    return [
        ("density ok", wl.check(chart, (rho, report, fitted)), None),
        ("density entry", wl.check(chart, (bad_rho, report, fitted)), checks.WRONG),
        ("density other chart", wl.check(chart, (wl.run(other)[0], report, fitted)), checks.WRONG),
        ("density report", wl.check(chart, (rho, failed_report, fitted)), checks.WRONG),
        ("density fit", wl.check(chart, (rho, report, wl.run(other)[2])), checks.WRONG),
    ]


def _factor_cases(lib, rng):
    wl = workloads.FactorRewrite(lib)
    words = lib.words
    u = lib.numerics.haar_unitary(4, rng)
    exact = workloads.FactorInput(n=4, matrix=workloads.matrix_json(u), unitary=u)
    off = u + 1e-8 * rng.standard_normal((4, 4))
    near = replace(exact, matrix=workloads.matrix_json(off), unitary=off, near_unitary=True)
    result, (word, km, pa, reduced), decoded = wl.run(exact)
    atoms = list(word.atoms)
    atoms[1] = words.RotationAtom(atoms[1].i, atoms[1].j, atoms[1].theta + 1e-6)
    bent = words.Word(n=word.n, atoms=tuple(atoms))
    bent_result = replace(result, word=bent)
    cases = [
        ("factor ok", wl.check(exact, (result, (word, km, pa, reduced), decoded)), None),
        ("factor round trip", wl.check(exact, (bent_result, (bent, km, pa, reduced), decoded)), checks.WRONG),
        ("factor near round trip", wl.check(near, (result, (word, km, pa, reduced), decoded)), checks.BOUNDARY),
        ("factor km form", wl.check(exact, (result, (word, pa, pa, reduced), decoded)), checks.WRONG),
        ("factor json", wl.check(exact, (result, (word, km, pa, reduced), bent)), checks.WRONG),
    ]
    inp = workloads.FactorInput(n=4, word=workloads.interleaved_word(words, 4, rng))
    _, (opor, km, pa, reduced), decoded = wl.run(inp)
    cases.append(("word ok", wl.check(inp, (None, (opor, km, pa, reduced), decoded)), None))
    cases.append(("word pa value", wl.check(inp, (None, (opor, km, km, reduced), decoded)), checks.WRONG))
    return cases


def _rank_cases(lib, rng):
    wl = workloads.RankOracle(lib)
    make = lib.degeneracy.DegeneracyPattern.from_multiplicities
    small = lib.builder.random_density_chart(make((2, 1)), rng, interior=True)
    large = lib.builder.random_density_chart(make((1,) * 6), rng, interior=True)
    return [
        ("rank ok", wl.check(small, (4, 5)), None),
        ("rank over", wl.check(small, (5, 5)), checks.WRONG),
        ("rank eigen", wl.check(small, (4, 4)), checks.WRONG),
        ("rank under n=6", wl.check(large, (29, 35)), checks.RANK_UNDERCOUNT),
        ("rank over n=6", wl.check(large, (31, 35)), checks.WRONG),
    ]


def _cli_cases(lib):
    words = lib.words

    def classify(obj):
        return words.classify_form(words.word_from_json(obj))

    mults = (2, 1, 1)
    count = workloads.Request("count", ("count",), mults)
    good = json.dumps(checks.counts(mults))
    bad = json.dumps(dict(checks.counts(mults), orbit_dim=11))
    malformed = workloads.Request("verify", ("verify",), malformed=True)
    traceback = "Traceback (most recent call last):\n  ...\nTypeError: boom\n"
    c = np.eye(4, dtype=complex)
    c[0, 2] = c[2, 0] = 1.0
    commutant = workloads.Request("commutant", ("commutant",), mults)
    return [
        ("cli ok", checks.check_cli(count, 0, good, "", classify), None),
        ("cli count", checks.check_cli(count, 0, bad, "", classify), checks.WRONG),
        ("cli exit", checks.check_cli(count, 1, "", traceback, classify), checks.WRONG),
        ("cli garbage", checks.check_cli(count, 0, "{", "", classify), checks.WRONG),
        ("cli malformed ok", checks.check_cli(malformed, 2, "", "error: bad input\n", classify), None),
        ("cli malformed traceback", checks.check_cli(malformed, 1, "", traceback, classify), checks.BOUNDARY),
        ("cli malformed accepted", checks.check_cli(malformed, 0, "{}", "", classify), checks.BOUNDARY),
        ("cli commutant", checks.check_cli(commutant, 0, json.dumps(workloads.matrix_json(c)), "", classify),
         checks.WRONG),
    ]


def run(lib) -> tuple[int, int]:
    """(cases judged as expected, cases); prints every case judged otherwise."""
    rng = np.random.default_rng(20130905)
    cases = _density_cases(lib, rng) + _factor_cases(lib, rng) + _rank_cases(lib, rng) + _cli_cases(lib)
    ok = 0
    for label, fail, expected in cases:
        got = fail.kind if fail else None
        if got == expected:
            ok += 1
        else:
            print(f"self-test {label}: expected {expected}, got {got} ({fail.message if fail else ''})")
    return ok, len(cases)
