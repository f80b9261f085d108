"""The CLI's one engine seam and its one matrix encoder.

``cli._engine`` picks :mod:`rhochart.pure` or the numpy library from n alone.  A
``build --in``, ``decompose`` or ``verify`` request forced through each engine exits
alike, prints the same ``error:`` line, and prints numbers within the bounds of
``tests/test_pure.py``: rho and the report fields 1e-15, a word's product 1e-14.  The
one exception is ``BAND``: where a checked quantity (the unitarity defect, the
hermiticity or trace error, or the least eigenvalue against -tol) lies within 1e-15
of its bound, the engines' rounding may decide apart.  ``jsonio.matrix_json`` writes
the same bytes for rows and arrays, and the bytes of the encoder before it."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhochart import cli, jsonio, numerics, pure
from rhochart.builder import build_density
from rhochart.charts import DensityChart, kept_blocks
from rhochart.degeneracy import DegeneracyPattern
from rhochart.numerics import adjoint, max_abs_diff
from rhochart.words import evaluate, make_opor_chart, word_from_json

NUMPY = cli._engine(cli.PURE_DIM_MAX + 1)
#: pass and fail may differ between the engines this close to a bound
BAND = 1e-15


def angle(hi):
    """An angle at either end of [0, hi], one ulp inside either, or anywhere between."""
    return st.sampled_from([0.0, hi, 5e-324, math.nextafter(hi, 0.0)]) | st.floats(0.0, hi)


def run(engine, argv, request):
    """``main(argv + ["--in", file of request])`` with ``engine`` forced: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(request, fh)
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            mp.setattr(cli, "_engine", lambda n: engine)
            code = cli.main(argv + ["--in", path])
    return code, out.getvalue(), err.getvalue()


def test_the_engine_is_picked_from_n_alone():
    assert cli._engine(1) is cli._engine(cli.PURE_DIM_MAX) is pure
    assert cli._engine(cli.MAX_DIM) is NUMPY is not pure


@st.composite
def charts(draw):
    """A density chart over at most 12 dimensions, its angles often at their range ends."""
    mults = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    while sum(mults) > 12:
        mults.pop()
    pattern = DegeneracyPattern.from_multiplicities(mults)
    params = [
        {"block": list(label), "delta": draw(angle(math.nextafter(2 * math.pi, 0.0))), "theta": draw(angle(math.pi / 2))}
        for label in kept_blocks(pattern)
    ]
    eigen = [draw(angle(math.pi / 2)) for _ in range(len(mults) - 1)]
    return DensityChart.from_json({"pattern": mults, "eigen_angles": eigen, "unitary_params": params})


def near(m, draw):
    """``m`` plus a random complex matrix of largest modulus 0 or about 1e-13 .. 1e-3."""
    size = draw(st.just(0.0) | st.floats(-13.0, -3.0).map(lambda e: 10.0**e))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    e = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    return m + size * e / np.abs(e).max()


@st.composite
def requests(draw):
    """``(argv, request, inside)``: build, decompose or verify, with ``--tol`` at an
    extreme, the default, or on either side of the request's own unitarity defect or
    density errors; ``inside`` holds numpy's distance of each check inside its bound."""
    command = draw(st.sampled_from(["build", "decompose", "verify"]))
    chart = draw(charts())
    n = chart.pattern.n
    if command == "decompose":
        u = near(evaluate(make_opor_chart(n, [draw(angle(math.pi / 2)) for _ in range(n * n)])), draw)
        checked = [max_abs_diff(u @ adjoint(u), np.eye(n))]
        request = numerics.matrix_to_json(u)
    else:
        rho = build_density(chart)
        if command == "verify":
            rho = near(rho, draw)
        request = chart.to_json() if command == "build" else numerics.matrix_to_json(rho)
        report = numerics.validate_density(rho).to_json()
        checked = [report["hermiticity_error"], report["trace_error"], -report["min_eigenvalue"]]
    tol = draw(st.sampled_from([None, 5e-324, 1e-10, 1e308, "near"]))
    if tol == "near":
        tol = max(draw(st.sampled_from(checked)) * draw(st.sampled_from([0.5, 0.999, 1.001, 2.0])), 5e-324)
    argv = [command] + (["--pattern", ",".join(map(str, chart.pattern.multiplicities))] if command == "build" else [])
    argv += [] if tol is None else ["--tol", repr(tol)]
    tol = jsonio.DEFAULT_TOL if tol is None else tol
    return argv, request, [tol - x for x in checked]


def assert_numbers_agree(command, got, want):
    if command == "decompose":
        u, v = (evaluate(word_from_json(out["word"])) for out in (got, want))
        assert max_abs_diff(u, v) <= 1e-14
        assert abs(got["residual"] - want["residual"]) <= 1e-14
        return
    if command == "build":
        assert got["chart"] == want["chart"]
        a, b = (jsonio.matrix_rows(out["matrix"]) for out in (got, want))
        assert max(abs(x - y) for r, s in zip(a, b) for x, y in zip(r, s)) <= 1e-15
        got, want = got["validation"], want["validation"]
    assert got["tol"] == want["tol"]
    for field in ("hermiticity_error", "trace_error", "min_eigenvalue"):
        assert abs(got[field] - want[field]) <= 1e-15, (field, got, want)


@settings(max_examples=150, deadline=None)
@given(requests())
def test_a_request_runs_alike_on_both_engines(case):
    argv, request, inside = case
    (code, out, err), (want_code, want_out, want_err) = (run(e, argv, request) for e in (pure, NUMPY))
    if min(inside) < -BAND or min(map(abs, inside)) > BAND:  # a check fails, or all pass, outside the band
        assert (code, err) == (want_code, want_err), (argv, request)
    if code == want_code == 0 or (code == want_code == 3 and argv[0] != "decompose"):
        assert_numbers_agree(argv[0], json.loads(out), json.loads(want_out))


#: a 2 x 2 matrix whose unitarity defect by numpy, max_abs_diff(a a^dagger, I), is
#: ``NEAR_TOL``: numpy accepts it at that ``--tol``, and pure's entrywise test refuses it
NEAR = {
    "dim": 2,
    "entries": [
        [0.43434544078984316, 0.11247442577689333],
        [-0.17331276486535097, 0.876730418741198],
        [-0.34522234378231054, -0.8243270436919878],
        [-0.4030594255048653, 0.19710291195613092],
    ],
}
NEAR_TOL = "1.8929527907405628e-12"


def test_the_pinned_matrix_sits_at_its_numpy_defect():
    a = numerics.matrix_from_json(NEAR)
    assert max_abs_diff(a @ adjoint(a), np.eye(2)) == float(NEAR_TOL)
    assert run(NUMPY, ["decompose", "--tol", NEAR_TOL], NEAR)[0] == cli.EXIT_OK


@pytest.mark.xfail(strict=True, reason="within BAND of --tol the two unitarity defects' rounding decides apart")
def test_the_engines_decide_alike_at_the_numpy_defect():
    codes = [run(engine, ["decompose", "--tol", NEAR_TOL], NEAR)[0] for engine in (pure, NUMPY)]
    assert codes[0] == codes[1], codes


#: ``decompose`` requests whose ``--tol`` admits a matrix far from unitary (ROADMAP
#: item 5): both engines exit 0, with residual 2.0 and 1.0
LOOSE_TOL = [
    (["decompose", "--tol", "100"], {"dim": 2, "entries": [[3, 0], [0, 0], [0, 0], [0, 0]]}),
    (["decompose", "--tol", "1e308"], {"dim": 1, "entries": [[1e-320, 0]]}),
]


@pytest.mark.xfail(strict=True, reason="a loose --tol accepts a matrix that no chart word reproduces (item 5)")
@pytest.mark.parametrize("engine", [pure, NUMPY], ids=["pure", "numpy"])
@pytest.mark.parametrize("argv, matrix", LOOSE_TOL, ids=["tol-100", "tol-1e308"])
def test_an_accepted_decompose_reproduces_its_input(engine, argv, matrix):
    """The README's bound: a ``decompose`` that exits 0 has a residual below 1e-10."""
    code, out, _ = run(engine, argv, matrix)
    assert code != cli.EXIT_OK or json.loads(out)["residual"] < 1e-10, out


#: entries at the ends of float range, a negative zero and the least subnormal
EDGE_ENTRIES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, 1.0, -0.5, math.pi]


def encoded_before(a):
    """The numpy library's encoder before ``jsonio.matrix_json``."""
    return {"dim": a.shape[0], "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)]}


@pytest.mark.parametrize("n", (1, 2, 3, 8))
def test_the_one_matrix_encoder_writes_the_same_bytes_for_rows_and_arrays(n):
    rng = np.random.default_rng(470 + n)
    a = np.empty((n, n), dtype=np.complex128)
    a.real, a.imag = rng.permutation(np.resize(EDGE_ENTRIES, 2 * n * n)).reshape(2, n, n)  # each from n = 3
    want = json.dumps(encoded_before(a))
    for got in (jsonio.matrix_json(a), jsonio.matrix_json(a.tolist()), numerics.matrix_to_json(a)):
        assert json.dumps(got) == want
