"""The CLI's numpy-free engines (:mod:`rhochart.pure`) agree with the numpy library
to rounding on every input kind the library tests use, pass and fail the density
conditions alike next to their edge, and through ``main`` exit only 0, 2 or 3 on
entries that overflow."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import density_build_patterns, phased_permutation
from rhochart import pure
from rhochart.builder import build_commutant, build_density, random_commutant_spec, random_density_chart
from rhochart.cli import PURE_DIM_MAX, main
from rhochart.decompose import decompose
from rhochart.degeneracy import DegeneracyPattern
from rhochart.numerics import DEFAULT_TOL, haar_unitary, max_abs_diff, validate_density
from rhochart.words import evaluate, make_opor_chart

SIZES = (2, 3, 4, 5, 8, 16, PURE_DIM_MAX)
REPORT_FIELDS = ("hermiticity_error", "trace_error", "min_eigenvalue")


def rows(m):
    return [[complex(z) for z in row] for row in m]


def edge_opor_unitary(n, rng):
    """An opor chart's unitary with about half of its phases and thetas at 0 or pi/2."""
    params = rng.uniform(0.0, 2 * math.pi, n * n)
    params[1 : n * (n - 1) : 2] = rng.uniform(0.0, math.pi / 2, n * (n - 1) // 2)
    at_edge = rng.random(n * n) < 0.5
    params[at_edge] = rng.choice([0.0, math.pi / 2], size=int(at_edge.sum()))
    return evaluate(make_opor_chart(n, params))


@pytest.mark.parametrize("n", SIZES)
def test_the_engines_agree_on_density_charts(n):
    rng = np.random.default_rng(440 + n)
    for pattern in density_build_patterns(n):
        for _ in range(2 if n > 8 else 5):
            chart = random_density_chart(pattern, rng)
            want, rho = build_density(chart), pure.build_density(chart)
            assert max_abs_diff(np.array(rho), want) <= 1e-15
            assert all(rho[j][l] == rho[l][j].conjugate() for j in range(n) for l in range(n))
            report = validate_density(want).to_json()
            for got in (pure.density_report(rho, DEFAULT_TOL), pure.density_report(rows(want), DEFAULT_TOL)):
                assert got["passed"] is report["passed"] is True
                for field in REPORT_FIELDS:
                    assert abs(got[field] - report[field]) <= 1e-15, (field, got, report)


@pytest.mark.parametrize("n", SIZES)
def test_the_engines_agree_on_decompose(n):
    rng = np.random.default_rng(450 + n)
    unitaries = [haar_unitary(n, rng) for _ in range(3)]
    unitaries += [phased_permutation(n, rng) for _ in range(3)]
    unitaries += [edge_opor_unitary(n, rng) for _ in range(3)]
    for u in unitaries:
        want, (word, residual) = decompose(u), pure.decompose(rows(u), DEFAULT_TOL)
        assert want.residual <= 1e-14 and residual <= 1e-14
        assert max_abs_diff(evaluate(word), evaluate(want.word)) <= 1e-14


@pytest.mark.parametrize("n", SIZES)
def test_the_engines_agree_on_commutants(n):
    rng = np.random.default_rng(480 + n)
    for pattern in density_build_patterns(n) + [DegeneracyPattern.from_multiplicities([n])]:
        for _ in range(2 if n > 8 else 5):
            spec = random_commutant_spec(pattern, rng)
            assert max_abs_diff(np.array(pure.build_commutant(spec)), build_commutant(spec)) <= 1e-14

@pytest.mark.parametrize("n", (2, 3, 5, 8, PURE_DIM_MAX))
def test_the_engines_pass_and_fail_alike_next_to_the_eigenvalue_edge(n):
    """Least eigenvalues within 1e-12 of -tol, on either side of it."""
    rng = np.random.default_rng(460 + n)
    offsets = (-1e-12, -1e-13, -1e-14, 1e-14, 1e-13, 1e-12)
    for offset in offsets:
        least = -DEFAULT_TOL + offset
        rest = rng.uniform(0.1, 1.0, n - 1)
        lam = np.concatenate([[least], rest / rest.sum() * (1.0 - least)])
        u = haar_unitary(n, rng)
        m = (u * lam) @ u.conj().T
        report, got = validate_density(m).to_json(), pure.density_report(rows(m), DEFAULT_TOL)
        assert got["passed"] is report["passed"] is (offset > 0), (offset, got, report)


#: finite values whose squares, sums and products overflow or underflow
EXTREMES = [s * v for v in (0.0, 5e-324, 1e-150, 1.0, 1e150, 1.7e308) for s in (1, -1)]


@st.composite
def extreme_requests(draw):
    """``(argv, request)``: verify or decompose of an n x n matrix of extreme entries,
    or build of a (2, 1) or (1, 1) chart of extreme angles."""
    value = st.sampled_from(EXTREMES)
    command = draw(st.sampled_from(["verify", "decompose", "build"]))
    if command != "build":
        n = draw(st.integers(1, 3))
        return [command], {"dim": n, "entries": draw(st.lists(st.tuples(value, value), min_size=n * n, max_size=n * n))}
    mults, labels = draw(st.sampled_from([([2, 1], [[3, 1], [2, 3]]), ([1, 1], [[1, 2]])]))
    params = [{"block": label, "delta": draw(value), "theta": draw(value)} for label in labels]
    chart = {"pattern": mults, "eigen_angles": [draw(value)], "unitary_params": params}
    return ["build", "--pattern", ",".join(map(str, mults))], chart


#: entries whose modulus overflows, in m - m^dagger and in u u^dagger after a row that passes
HUGE = [1.7e308, 1.7e308]


@settings(max_examples=300, deadline=None)
@given(extreme_requests())
@example((["verify"], {"dim": 2, "entries": [[0.5, 0], HUGE, [0, 0], [0.5, 0]]}))
@example((["decompose"], {"dim": 2, "entries": [[1, 0], [0, 0], HUGE, [0, 0]]}))
def test_the_numpy_free_paths_exit_0_2_or_3_on_extreme_entries(case):
    argv, request = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(request, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--in", path])
    assert code in (0, 2, 3)
