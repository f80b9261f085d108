"""``import rhochart`` loads no submodule, each exported name loads its home module
on first use, and a CLI request that fails before any array exists, ``count`` and
``--help`` never load numpy.  Load order matters here, so most checks run in a
fresh interpreter."""

import importlib
import json

import pytest

import rhochart
from conftest import run_python

#: makes any later ``import numpy`` raise ImportError
NO_NUMPY = "import sys; sys.modules['numpy'] = None"
#: every module loaded before the CLI runs, as an eager package import would leave it
EVERY_MODULE = "import numpy, rhochart.builder, rhochart.decompose, rhochart.words"

#: runs ``main`` on each argv of ``sys.argv[1]`` in one interpreter; prints
#: [exit code, stdout, stderr] per request, then the rhochart modules loaded
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
print(json.dumps([results, sorted(m for m in sys.modules if m.startswith("rhochart"))]))
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
    requests = [
        ["count", "--pattern", "2,1,1"],
        ["--help"],
        ["verify", "--in", str(tmp_path / "not.json")],
        ["verify", "--in", str(tmp_path / "absent.json")],
        ["count", "--pattern", "2,x"],
        ["build", "--pattern", "2,1", "--random"],
        ["verify", "--tol", "-1", "--in", str(tmp_path / "rho.json")],
        ["rewrite", "--in", str(tmp_path / "word.json")],
    ]
    blocked, loaded = run_requests(NO_NUMPY, requests)
    assert [code for code, _, _ in blocked] == [0, 0, 2, 2, 2, 2, 2, 2]
    assert loaded == ["rhochart", "rhochart.cli", "rhochart.degeneracy"]
    # byte for byte what the same requests print with every module already loaded
    assert blocked == run_requests(EVERY_MODULE, requests)[0]


def test_parameter_counts_runs_without_numpy():
    script = ["scripts/parameter_counts.py", "--n", "5"]
    run_script = f"{NO_NUMPY}\nimport runpy\nsys.argv = {script!r}\nrunpy.run_path(sys.argv[0], run_name='__main__')"
    done = run_python("-c", run_script)
    assert done.returncode == 0 and done.stderr == b"", done.stderr.decode()
    assert done.stdout == run_python(*script).stdout
