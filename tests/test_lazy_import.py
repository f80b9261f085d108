"""``import rhochart`` loads no submodule, each exported name loads its home module
on first use, a CLI request that fails before any array exists, ``count``, ``--help``,
``rewrite`` of a small word, ``build --in``, ``decompose`` and ``verify`` of a small
matrix and the word algebra short of ``evaluate`` never load numpy, and a larger
``verify`` loads only the dense-matrix layer.  ``count``, ``--help``, those refusals
and a small ``verify`` load no ``dataclasses`` either.  Load order matters here, so
most checks run in a fresh interpreter."""

import importlib
import json
import math

import numpy as np
import pytest

import rhochart
from conftest import random_interleaved_word, run_python
from rhochart.builder import build_density, random_density_chart
from rhochart.cli import PURE_CHECK_MAX, PURE_DIM_MAX, _steps, main
from rhochart.decompose import decompose
from rhochart.degeneracy import DegeneracyPattern
from rhochart.numerics import haar_unitary, matrix_to_json, max_abs_diff, validate_density
from rhochart.words import RotationAtom, Word, WordForm, evaluate, normalize, word_to_json

#: makes any later ``import numpy`` raise ImportError
NO_NUMPY = "import sys; sys.modules['numpy'] = None"
#: every module loaded before the CLI runs, as an eager package import would leave it
EVERY_MODULE = "import numpy, rhochart.builder, rhochart.decompose, rhochart.words"

#: runs ``main`` on each argv of ``sys.argv[1]`` in one interpreter; prints
#: [exit code, stdout, stderr] per request, then the rhochart modules loaded and
#: ``dataclasses`` and ``numpy``, if loaded (``NO_NUMPY``'s None is not)
RUN_REQUESTS = """
import contextlib, io, json, sys
from rhochart.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
loaded = [m for m, v in sys.modules.items() if v and (m.startswith("rhochart") or m in ("dataclasses", "numpy"))]
print(json.dumps([results, sorted(loaded)]))
"""


#: the two kept blocks of pattern (2, 1), in order
KEPT = [{"block": [3, 1], "delta": 0.1, "theta": 0.2}, {"block": [2, 3], "delta": 0.1, "theta": 0.2}]
#: charts for ``build --pattern 2,1 --in``, each one change from a valid chart, refused
#: for a field's type, its shape or its value, with the error line each prints
CHART_REFUSALS = {
    "str-angles": ({"eigen_angles": "x"}, "eigen_angles: expected a list, got 'x'"),
    "bool-angle": ({"eigen_angles": [True]}, "eigen_angles[0]: expected a finite number, got True"),
    "short-label": (
        {"unitary_params": [KEPT[0] | {"block": [3]}, KEPT[1]]},
        "unitary_params[0].block: expected 2 values, got 1",
    ),
    "wide-angle": ({"eigen_angles": [3.0]}, "eigen_angles[0]: angle 3.0 outside [0, pi/2]"),
    "nan-angle": ({"eigen_angles": [math.nan]}, "eigen_angles[0]: expected a finite number, got nan"),
    "inf-delta": (
        {"unitary_params": [KEPT[0] | {"delta": math.inf}, KEPT[1]]},
        "unitary_params[0].delta: expected a finite number, got inf",
    ),
    "two-angles": ({"eigen_angles": [0.5, 0.5]}, "eigen_angles: expected 1 angles for 2 classes, got 2"),
    "steep-block": (
        {"unitary_params": [KEPT[0] | {"theta": 2.0}, KEPT[1]]},
        "unitary_params[0]: block (3, 1): delta must lie in [0, 2*pi), theta in [0, pi/2]",
    ),
    "equal-label": (
        {"unitary_params": [KEPT[0] | {"block": [1, 1]}, KEPT[1]]},
        "unitary_params[0]: block label must be a pair of distinct integers >= 1, got (1, 1)",
    ),
    "zero-pattern": ({"pattern": [0]}, "pattern: differs from --pattern 2,1"),
    "wrong-blocks": (
        {"unitary_params": KEPT[::-1]},
        "unitary_params: expected blocks ((3, 1), (2, 3)), got ((2, 3), (3, 1))",
    ),
}


def chart_requests(tmp_path):
    """A ``build`` request for each of ``CHART_REFUSALS``' charts, written under ``tmp_path``."""
    requests = []
    for name, (change, _) in CHART_REFUSALS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"pattern": [2, 1], "eigen_angles": [0.5], "unitary_params": KEPT} | change))
        requests.append(["build", "--pattern", "2,1", "--in", str(path)])
    return requests


def run_requests(setup, requests):
    done = run_python("-c", f"{setup}\n{RUN_REQUESTS}", json.dumps(requests))
    assert done.returncode == 0 and done.stderr == b"", done.stderr.decode()
    return json.loads(done.stdout)


def test_import_rhochart_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, rhochart\n"
        "print(sorted(m for m in sys.modules if 'rhochart' in m or 'numpy' in m))\n"
        "print(rhochart.words.Word.__module__)\n"  # a submodule still loads on first use
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["['rhochart']", "rhochart.words"]


def test_every_exported_name_is_its_home_module_object():
    for module, names in rhochart._EXPORTS.items():
        home = importlib.import_module(f"rhochart.{module}")
        for name in names:
            scope = {}
            exec(f"from rhochart import {name}", scope)
            assert scope[name] is getattr(home, name), name
    assert set(rhochart.__all__) <= set(dir(rhochart))


@pytest.mark.parametrize(
    "code",
    [
        "import rhochart\nbefore = rhochart.decompose\nimport rhochart.decompose\nafter = rhochart.decompose",
        "import rhochart.decompose\nbefore = rhochart.decompose\nimport rhochart.builder\nafter = rhochart.decompose",
    ],
    ids=["package-first", "submodule-first"],
)
def test_rhochart_decompose_stays_the_function_when_its_submodule_loads(code):
    check = (
        "import sys\n"
        f"{code}\n"
        "from rhochart.decompose import decompose\n"
        "assert before is after is decompose, (before, after)\n"
        "assert type(sys.modules['rhochart.decompose']).__name__ == 'module'\n"
    )
    done = run_python("-c", check)
    assert done.returncode == 0, done.stderr.decode()


def test_cli_requests_before_any_array_run_without_numpy(tmp_path):
    (tmp_path / "not.json").write_text("not json")
    (tmp_path / "word.json").write_text('{"n": 2, "atoms": []}')
    (tmp_path / "rho.json").write_text('{"dim": 1, "entries": [[1.0, 0.0]]}')
    (tmp_path / "big-word.json").write_text('{"n": 257, "atoms": [{"rot": [1, 999], "theta": 0.1}]}')
    (tmp_path / "big-matrix.json").write_text('{"dim": 257, "entries": []}')
    # refused by the word or matrix decoder, as the benchmark's cli-cold workload sends them
    refused = {
        "bool-dim.json": '{"dim": true, "entries": [[1.0, 0.0]]}',
        "no-entries.json": '{"dim": 2}',
        "int-entries.json": '{"dim": 2, "entries": 5}',
        "str-n.json": '{"n": "2", "atoms": [{"rot": [1, 2], "theta": 0.3}]}',
        "null-atoms.json": '{"n": 2, "atoms": null}',
        # JSON's non-finite literals, which Python's json reads
        "nan-theta.json": '{"n": 2, "atoms": [{"rot": [1, 2], "theta": NaN}]}',
        "inf-phase.json": '{"n": 2, "atoms": [{"phase": {"1": -Infinity}}]}',
        "inf-entry.json": '{"dim": 1, "entries": [[Infinity, 0]]}',
    }
    for name, text in refused.items():
        (tmp_path / name).write_text(text)
    requests = [
        ["count", "--pattern", "2,1,1"],
        ["--help"],
        ["verify", "--in", str(tmp_path / "not.json")],
        ["verify", "--in", str(tmp_path / "absent.json")],
        ["count", "--pattern", "2,x"],
        ["build", "--pattern", "2,1", "--random"],
        ["verify", "--tol", "-1", "--in", str(tmp_path / "rho.json")],
        ["rewrite", "--in", str(tmp_path / "word.json")],
        # above the size bound: refused before the word or matrix is decoded
        ["rewrite", "--to", "km", "--in", str(tmp_path / "big-word.json")],
        ["decompose", "--in", str(tmp_path / "big-matrix.json")],
        ["verify", "--in", str(tmp_path / "big-matrix.json")],
        ["decompose", "--in", str(tmp_path / "bool-dim.json")],
        ["decompose", "--in", str(tmp_path / "no-entries.json")],
        ["verify", "--in", str(tmp_path / "int-entries.json")],
        ["rewrite", "--to", "km", "--in", str(tmp_path / "str-n.json")],
        ["rewrite", "--to", "opor", "--in", str(tmp_path / "null-atoms.json")],
        ["rewrite", "--to", "km", "--in", str(tmp_path / "nan-theta.json")],
        ["rewrite", "--to", "opor", "--in", str(tmp_path / "inf-phase.json")],
        ["verify", "--in", str(tmp_path / "inf-entry.json")],
        # refused by the chart decoder, for a value out of range as for a field's type
        *chart_requests(tmp_path),
    ]
    blocked, loaded = run_requests(NO_NUMPY, requests)
    assert [code for code, _, _ in blocked] == [0, 0] + [2] * (17 + len(CHART_REFUSALS))
    assert [err for _, _, err in blocked[16:19]] == [
        f"error: {path}: expected a finite number, got {x}\n"
        for path, x in [("atoms[0].theta", "nan"), ("atoms[0].phase.1", "-inf"), ("entries[0][0]", "inf")]
    ]
    assert [err for _, _, err in blocked[19:]] == [f"error: {line}\n" for _, line in CHART_REFUSALS.values()]
    # the value types are validated tuples, so no dataclasses either
    assert loaded == [
        "rhochart", "rhochart.charts", "rhochart.cli", "rhochart.degeneracy", "rhochart.jsonio", "rhochart.words"
    ]
    # byte for byte what the same requests print with every module already loaded
    assert blocked == run_requests(EVERY_MODULE, requests)[0]


def test_a_chart_is_refused_alike_with_and_without_numpy(tmp_path, capsys):
    # one decoder: the same exit code and error line as main's in this process, numpy loaded
    requests = chart_requests(tmp_path)
    blocked, loaded = run_requests(NO_NUMPY, requests)
    assert "numpy" not in loaded
    for argv, (code, out, err) in zip(requests, blocked):
        assert (main(argv), *capsys.readouterr()) == (code, out, err) and code == 2, argv


def test_verify_loads_only_the_dense_matrix_layer(tmp_path):
    (tmp_path / "rho.json").write_text('{"dim": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}')
    n = PURE_DIM_MAX + 1
    (tmp_path / "big-rho.json").write_text(json.dumps(matrix_to_json(np.eye(n) / n)))
    for name, modules in [
        # the numpy-free engine: no DensityReport, so no dataclasses
        ("rho.json", ["rhochart", "rhochart.cli", "rhochart.jsonio", "rhochart.pure"]),
        # above the bound; DensityReport is a dataclass
        ("big-rho.json", ["dataclasses", "numpy", "rhochart", "rhochart.cli", "rhochart.jsonio", "rhochart.numerics"]),
    ]:
        requests = [["verify", "--in", str(tmp_path / name)]]
        results, loaded = run_requests("", requests)
        assert [code for code, _, _ in results] == [0]
        assert loaded == modules
        assert results == run_requests(EVERY_MODULE, requests)[0]


def bound_requests(tmp_path, n, rng):
    """``build --in`` of a singleton chart, ``decompose`` of a Haar unitary and ``verify``
    of that chart's density at ``n``: (argv, the bytes the numpy library gives) each."""
    chart = random_density_chart(DegeneracyPattern.singletons(n), rng)
    rho, u = build_density(chart), haar_unitary(n, rng)
    result, report = decompose(u), validate_density(rho)
    built = {"chart": chart.to_json(), "matrix": matrix_to_json(rho), "validation": report.to_json()}
    factored = {"word": word_to_json(result.word), "residual": result.residual}
    requests = []
    for name, obj, argv, payload in [
        ("chart", chart.to_json(), ["build", "--pattern", ",".join(["1"] * n)], built),
        ("unitary", matrix_to_json(u), ["decompose"], factored),
        ("rho", matrix_to_json(rho), ["verify"], report.to_json()),
    ]:
        path = tmp_path / f"{name}-{n}.json"
        path.write_text(json.dumps(obj))
        requests.append((argv + ["--in", str(path)], json.dumps(payload, indent=2) + "\n"))
    return requests


def test_build_decompose_and_verify_above_the_bound_run_on_numpy(tmp_path):
    """At n = PURE_DIM_MAX each of the three runs without numpy; one more and each loads
    it and prints exactly the numpy library's bytes."""
    rng = np.random.default_rng(44)
    small = bound_requests(tmp_path, PURE_DIM_MAX, rng)
    blocked, loaded = run_requests(NO_NUMPY, [argv for argv, _ in small])
    assert [code for code, _, _ in blocked] == [0, 0, 0] and "numpy" not in loaded
    large = bound_requests(tmp_path, PURE_DIM_MAX + 1, rng)
    for argv, want in large:
        [[code, out, _]], loaded = run_requests("", [argv])
        assert code == 0 and "numpy" in loaded and out == want, argv[0]


def test_rewrite_of_a_small_word_runs_without_numpy(tmp_path):
    rng = np.random.default_rng(36)
    requests = []
    for n in (3, 5, 8):  # cli-cold's sizes
        path = tmp_path / f"word-{n}.json"
        path.write_text(json.dumps(word_to_json(random_interleaved_word(n, rng))))
        requests += [["rewrite", "--to", to, "--in", str(path)] for to in ("km", "opor")]
    blocked, loaded = run_requests(NO_NUMPY, requests)
    assert [code for code, _, _ in blocked] == [0] * 6
    assert all(json.loads(out)["max_abs_diff"] <= 1e-12 for _, out, _ in blocked)
    assert loaded == ["rhochart", "rhochart.cli", "rhochart.degeneracy", "rhochart.jsonio", "rhochart.words"]
    # the path depends on the word alone: the same bytes with numpy already loaded
    assert blocked == run_requests(EVERY_MODULE, requests)[0]


def test_small_build_decompose_and_verify_run_without_numpy(tmp_path):
    rng = np.random.default_rng(45)
    requests = [argv for n in (3, 5, 8) for argv, _ in bound_requests(tmp_path, n, rng)]  # cli-cold's sizes
    blocked, loaded = run_requests(NO_NUMPY, requests)
    assert [code for code, _, _ in blocked] == [0] * 9
    assert "numpy" not in loaded
    # the path depends on the input alone: the same bytes with numpy already loaded
    assert blocked == run_requests(EVERY_MODULE, requests)[0]


def test_rewrite_above_the_bound_checks_on_numpy(tmp_path):
    """Rotation words at n = 100 with angles in range: one at the bound runs without
    numpy, one rotation more loads it, and both report numpy's gap exactly."""
    n = 100
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    rng = np.random.default_rng(37)
    # km writes r rotations between two full diagonals: n x (2 r + 2 n) row steps
    r = (PURE_CHECK_MAX // n - 2 * n) // 2
    atoms = [RotationAtom(*pairs[k], float(rng.uniform(0.1, 1.5))) for k in range(r + 1)]
    words = [Word(n, atoms[:r]), Word(n, atoms)]
    kms = [normalize(w, WordForm.KM) for w in words]
    sizes = [n * (_steps(w) + _steps(km)) for w, km in zip(words, kms)]
    assert sizes[0] <= PURE_CHECK_MAX < sizes[1], sizes
    outs = []
    for k, (setup, word) in enumerate(zip((NO_NUMPY, ""), words)):
        path = tmp_path / f"word-{k}.json"
        path.write_text(json.dumps(word_to_json(word)))
        [[code, out, _]], loaded = run_requests(setup, [["rewrite", "--to", "km", "--in", str(path)]])
        assert code == 0 and ("numpy" in loaded) == (k == 1), loaded
        outs.append(json.loads(out))
    for out, word, km in zip(outs, words, kms):
        assert out["word"] == word_to_json(km)
        assert out["max_abs_diff"] == max_abs_diff(evaluate(word), evaluate(km))


#: the word algebra end to end on one word: decode, the three normal forms, form
#: recognition, phase counts and encoding
WORD_ALGEBRA = """
import json
from rhochart import words as w
word = w.word_from_json({"n": 3, "atoms": [
    {"phase": {"1": 0.3, "3": 7.5}}, {"rot": [1, 3], "theta": 2.0},
    {"phase": {"2": -1.25}}, {"rot": [2, 3], "theta": -0.4}, {"phase": {"1": 1e300}}]})
outs = [w.normalize(word, form) for form in w.WordForm if form is not w.WordForm.GENERAL]
print(json.dumps([[w.word_to_json(out), w.classify_form(out).value] for out in outs]))
print(json.dumps([w.count_phases(out) for out in outs]))
"""


def test_the_word_algebra_runs_without_numpy():
    blocked = run_python("-c", f"{NO_NUMPY}\n{WORD_ALGEBRA}")
    assert blocked.returncode == 0 and blocked.stderr == b"", blocked.stderr.decode()
    # byte for byte what it prints with numpy and every module already loaded
    assert blocked.stdout == run_python("-c", f"{EVERY_MODULE}\n{WORD_ALGEBRA}").stdout


def test_parameter_counts_runs_without_numpy():
    script = ["scripts/parameter_counts.py", "--n", "5"]
    run_script = f"{NO_NUMPY}\nimport runpy\nsys.argv = {script!r}\nrunpy.run_path(sys.argv[0], run_name='__main__')"
    done = run_python("-c", run_script)
    assert done.returncode == 0 and done.stderr == b"", done.stderr.decode()
    assert done.stdout == run_python(*script).stdout
