"""``import rhochart`` loads no submodule, each exported name loads its home module
on first use, a CLI request that fails before any array exists, ``count``, ``--help``,
``rewrite`` of a small word and the word algebra short of ``evaluate`` never load
numpy, and ``verify`` loads only the dense-matrix layer.  ``count``, ``--help`` and
those refusals load no ``dataclasses`` either.  Load order matters here, so most
checks run in a fresh interpreter."""

import importlib
import json

import numpy as np
import pytest

import rhochart
from conftest import random_interleaved_word, run_python
from rhochart.cli import PURE_CHECK_MAX, _steps
from rhochart.numerics import max_abs_diff
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
        # refused by the chart's JSON rules, before the chart types load numpy
        "str-angles.json": '{"pattern": [2, 1], "eigen_angles": "x", "unitary_params": []}',
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
        ["build", "--pattern", "2,1", "--in", str(tmp_path / "str-angles.json")],
    ]
    blocked, loaded = run_requests(NO_NUMPY, requests)
    assert [code for code, _, _ in blocked] == [0, 0] + [2] * 15
    assert blocked[-1][2] == "error: eigen_angles: expected a list, got 'x'\n"
    # the value types are validated tuples, so no dataclasses either
    assert loaded == ["rhochart", "rhochart.cli", "rhochart.degeneracy", "rhochart.jsonio", "rhochart.words"]
    # byte for byte what the same requests print with every module already loaded
    assert blocked == run_requests(EVERY_MODULE, requests)[0]


def test_verify_loads_only_the_dense_matrix_layer(tmp_path):
    (tmp_path / "rho.json").write_text('{"dim": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}')
    requests = [["verify", "--in", str(tmp_path / "rho.json")]]
    results, loaded = run_requests("", requests)
    assert [code for code, _, _ in results] == [0]
    # DensityReport is a dataclass
    assert loaded == ["dataclasses", "numpy", "rhochart", "rhochart.cli", "rhochart.jsonio", "rhochart.numerics"]
    assert results == run_requests(EVERY_MODULE, requests)[0]


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
