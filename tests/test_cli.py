import ast
import contextlib
import gc
import importlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhochart as rc
import rhochart.cli as cli_module
from rhochart.cli import MAX_DIM, PURE_DIM_MAX, main

from conftest import ROOT, run_python


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_count_golden(capsys):
    obj = run_json(capsys, ["count", "--pattern", "2,1,1"])
    assert obj["internal_params"] == 7
    assert obj["degrees_of_degeneracy"] == 1
    obj = run_json(capsys, ["count", "--pattern", "3,1"])
    assert obj["internal_params"] == 3
    obj = run_json(capsys, ["count", "--pattern", "3"])
    assert obj["orbit_dim"] == 0
    assert obj["chart_param_count"] == 9


def test_count_malformed_pattern_exit_2(capsys):
    code, out, err = run(capsys, ["count", "--pattern", "2,x"])
    assert code == 2
    # --n is no option: n is the sum of the multiplicities
    code, out, err = run(capsys, ["count", "--n", "5", "--pattern", "2,1"])
    assert code == 2


#: the rest of a valid request of each command that reads --pattern
PATTERN_COMMANDS = {
    "count": [],
    "build": ["--random", "--seed", "1"],
    "commutant": ["--random", "--seed", "1"],
}


@pytest.mark.parametrize(
    "pattern, reason",
    [
        ("2,x", "malformed pattern string: '2,x'"),
        ("0", "multiplicities must be positive"),
        ("1,0", "multiplicities must be positive"),
        ("", "malformed pattern string: ''"),
        (None, "the following arguments are required: --pattern"),
    ],
    ids=["letter", "zero", "trailing-zero", "empty", "missing"],
)
@pytest.mark.parametrize("command", sorted(PATTERN_COMMANDS))
def test_pattern_option_errors_exit_2(capsys, command, pattern, reason):
    option = [] if pattern is None else ["--pattern", pattern]
    code, out, err = run(capsys, [command, *option, *PATTERN_COMMANDS[command]])
    assert_one_line_usage_error(code, err)
    assert err.strip().endswith(reason) and out == ""


def test_build_from_params_file(capsys, tmp_path):
    chart = {
        "pattern": [2, 1],
        "eigen_angles": [math.pi / 4],
        "unitary_params": [
            {"block": [3, 1], "delta": 0.0, "theta": 0.0},
            {"block": [2, 3], "delta": 0.0, "theta": 0.0},
        ],
    }
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(chart))
    obj = run_json(capsys, ["build", "--pattern", "2,1", "--in", str(path)])
    rho = rc.matrix_from_json(obj["matrix"])
    assert rc.max_abs_diff(rho, np.diag([0.25, 0.25, 0.5]).astype(complex)) < 1e-15
    assert obj["validation"]["passed"]


def test_build_random_is_deterministic(capsys):
    first = run_json(capsys, ["build", "--pattern", "2,1", "--random", "--seed", "42"])
    second = run_json(capsys, ["build", "--pattern", "2,1", "--random", "--seed", "42"])
    assert first == second
    other = run_json(capsys, ["build", "--pattern", "2,1", "--random", "--seed", "43"])
    assert other != first


def test_build_random_requires_seed(capsys):
    code, out, err = run(capsys, ["build", "--pattern", "2,1", "--random"])
    assert code == 2


def test_build_random_singleton_trace(capsys):
    obj = run_json(capsys, ["build", "--pattern", "1,1,1,1", "--random", "--seed", "9"])
    rho = rc.matrix_from_json(obj["matrix"])
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert obj["validation"]["passed"]


def test_build_arity_mismatch_exit_2(capsys, tmp_path):
    chart = {
        "pattern": [2, 1],
        "eigen_angles": [0.3],
        "unitary_params": [{"block": [3, 1], "delta": 0.0, "theta": 0.0}],
    }
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(chart))
    code, out, err = run(capsys, ["build", "--pattern", "2,1", "--in", str(path)])
    assert code == 2


def test_rewrite_opor(capsys, tmp_path):
    rng = np.random.default_rng(0)
    word = rc.normalize(rc.make_opor_chart(3, rng.uniform(0, 2, 9)), rc.WordForm.PHASE_ADJOINT)
    path = tmp_path / "word.json"
    path.write_text(json.dumps(rc.word_to_json(word)))
    obj = run_json(capsys, ["rewrite", "--to", "opor", "--in", str(path)])
    assert obj["max_abs_diff"] < 1e-12
    out_word = rc.word_from_json(obj["word"])
    assert rc.max_abs_diff(rc.evaluate(out_word), rc.evaluate(word)) < 1e-12


def test_rewrite_km_internal_count(capsys, tmp_path):
    rng = np.random.default_rng(1)
    atoms = [{"phase": {str(k): float(v) for k, v in enumerate(rng.uniform(0, 6, 3), start=1)}}]
    for (i, j) in [(1, 2), (2, 3), (1, 3)]:
        atoms.append({"rot": [i, j], "theta": float(rng.uniform(0, 1.5))})
        atoms.append({"phase": {str(k): float(v) for k, v in enumerate(rng.uniform(0, 6, 3), start=1)}})
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"n": 3, "atoms": atoms}))
    obj = run_json(capsys, ["rewrite", "--to", "km", "--in", str(path)])
    assert obj["max_abs_diff"] < 1e-12
    out_word = rc.word_from_json(obj["word"])
    assert rc.count_phases(out_word) == (1, 5)


def test_rewrite_empty_word(capsys, tmp_path):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"n": 3, "atoms": []}))
    obj = run_json(capsys, ["rewrite", "--to", "opor", "--in", str(path)])
    assert obj["word"] == {"n": 3, "atoms": []}
    assert obj["max_abs_diff"] == 0.0


def test_rewrite_repeated_pair_exit_0(capsys, tmp_path):
    word = {
        "n": 2,
        "atoms": [{"rot": [1, 2], "theta": 0.3}, {"rot": [1, 2], "theta": 0.4}],
    }
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    obj = run_json(capsys, ["rewrite", "--to", "opor", "--in", str(path)])
    assert obj["max_abs_diff"] < 1e-15


def test_decompose_round_trip(capsys, tmp_path):
    rng = np.random.default_rng(2)
    u = rc.haar_unitary(4, rng)
    path = tmp_path / "u.json"
    path.write_text(json.dumps(rc.matrix_to_json(u)))
    obj = run_json(capsys, ["decompose", "--in", str(path)])
    assert obj["residual"] < 1e-10
    word = rc.word_from_json(obj["word"])
    assert rc.max_abs_diff(rc.evaluate(word), u) < 1e-10


def test_decompose_rejects_non_unitary_exit_3(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[2, 0], [0, 0], [0, 0], [1, 0]]}))
    code, out, err = run(capsys, ["decompose", "--in", str(path)])
    assert code == 3


def padded(entries, n, diagonal=0.0):
    """The 2 x 2 matrix of ``entries``, [re, im] pairs, in the top left of an n x n
    matrix, ``diagonal`` on the rest of the diagonal and 0 elsewhere."""
    m = [[[diagonal if r == c else 0.0, 0.0] for c in range(n)] for r in range(n)]
    for k, pair in enumerate(entries):
        m[k // 2][k % 2] = pair
    return {"dim": n, "entries": [pair for row in m for pair in row]}


#: either side of cli.PURE_DIM_MAX: the numpy-free engine, then numpy
SIDES = pytest.mark.parametrize("n", [2, PURE_DIM_MAX + 1], ids=["pure", "numpy"])


@SIDES
def test_decompose_rejects_entries_whose_product_overflows_exit_3(capsys, tmp_path, n):
    # finite entries, but squaring the first one overflows a float; the identity pads
    path = tmp_path / "m.json"
    path.write_text(json.dumps(padded([[1.5e154, 0], [1, 0], [1, 0], [0, 0]], n, diagonal=1.0)))
    code, out, err = run(capsys, ["decompose", "--in", str(path)])
    assert code == 3 and out == ""
    assert err == "error: input is not unitary within 1e-10\n"


def test_verify_pass_and_fail(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(rc.matrix_to_json(np.eye(3) / 3)))
    code, out, err = run(capsys, ["verify", "--in", str(good)])
    assert code == 0
    assert json.loads(out)["passed"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "entries": [[1.2, 0], [0, 0], [0, 0], [-0.2, 0]]}))
    code, out, err = run(capsys, ["verify", "--in", str(bad)])
    assert code == 3
    assert not json.loads(out)["passed"]


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "entries, nulls",
    [
        # the trace is finite, but 2 * 1.8e308 overflows the symmetric part
        ([[1.7976931348623157e308, 0], [0, 0], [0, 0], [0.5, 0]], {"min_eigenvalue"}),
        # the difference of the off-diagonal pair overflows
        ([[0.5, 0], [1.7e308, 0], [-1.7e308, 0], [0.5, 0]], {"hermiticity_error"}),
        # the trace itself overflows
        ([[1.7e308, 0], [0, 0], [0, 0], [1.7e308, 0]], {"trace_error", "min_eigenvalue"}),
    ],
    ids=["symmetric-part", "hermiticity", "trace"],
)
@SIDES
def test_verify_reports_an_overflowing_check_as_null_exit_3(capsys, tmp_path, entries, nulls, n):
    # run under the suite's error::RuntimeWarning: an overflow must not raise; zeros pad
    path = tmp_path / "m.json"
    path.write_text(json.dumps(padded(entries, n)))
    code, out, err = run(capsys, ["verify", "--in", str(path)])
    assert code == 3 and err == ""
    report = strict_json(out)
    assert report["passed"] is False
    assert {k for k, v in report.items() if v is None} == nulls


def test_commutant_commutes_with_pattern_diagonal(capsys):
    obj = run_json(capsys, ["commutant", "--pattern", "2,1", "--random", "--seed", "5"])
    c = rc.matrix_from_json(obj)
    d = np.diag([0.3, 0.3, 0.4]).astype(complex)
    assert rc.max_abs_diff(c @ d, d @ c) < 1e-13
    assert rc.is_unitary(c, 1e-12)


def test_output_file_and_reparse(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, ["commutant", "--pattern", "2,2", "--random", "--seed", "1", "--out", str(out_path)])
    assert code == 0
    obj = json.loads(out_path.read_text())
    again = rc.matrix_to_json(rc.matrix_from_json(obj))
    assert again == obj


def assert_one_line_usage_error(code, err):
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


#: per subcommand, one valid request and one that exits 2; file names are read from tmp_path
WRITER_REQUESTS = {
    "count": (["--pattern", "2,1,1"], ["--pattern", "2,x"]),
    "build": (["--pattern", "2,1", "--random", "--seed", "3"], ["--pattern", "2,1", "--random"]),
    "rewrite": (["--to", "km", "--in", "word.json"], ["--to", "km", "--in", "bad.json"]),
    "decompose": (["--in", "unitary.json"], ["--in", "bad.json"]),
    "verify": (["--in", "rho.json"], ["--in", "bad.json"]),
    "commutant": (["--pattern", "2,1", "--random", "--seed", "3"], ["--pattern", "2,1", "--seed", "3"]),
}


@pytest.mark.parametrize("command", list(WRITER_REQUESTS))
def test_out_file_holds_stdout_bytes_and_a_rejected_request_writes_nothing(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    inputs = {
        "word.json": {"n": 2, "atoms": [{"phase": {"1": 0.3}}, {"rot": [1, 2], "theta": 0.4}]},
        "unitary.json": rc.matrix_to_json(rc.haar_unitary(3, np.random.default_rng(5))),
        "rho.json": rc.matrix_to_json(np.eye(3) / 3),
        "bad.json": {"dim": 2},
    }
    for name, obj in inputs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    valid, rejected = WRITER_REQUESTS[command]
    code, stdout, err = run(capsys, [command, *valid])
    assert code == 0 and err == "" and stdout
    code, out, err = run(capsys, [command, *valid, "--out", "out.json"])
    assert (code, out, err) == (0, "", "")
    assert (tmp_path / "out.json").read_bytes() == stdout.encode()

    code, out, err = run(capsys, [command, *rejected, "--out", "rejected.json"])
    assert_one_line_usage_error(code, err)
    assert out == "" and not (tmp_path / "rejected.json").exists()


def test_commutant_needs_random(capsys):
    code, out, err = run(capsys, ["commutant", "--pattern", "2,1", "--seed", "1"])
    assert_one_line_usage_error(code, err)
    assert "--random" in err and out == ""
    assert run(capsys, ["commutant", "--pattern", "2,1", "--seed", "1", "--random"])[0] == 0


def test_bool_dim_exit_2(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": True, "entries": [[1.0, 0.0]]}))
    code, out, err = run(capsys, ["decompose", "--in", str(path)])
    assert_one_line_usage_error(code, err)


def test_missing_input_file_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, ["verify", "--in", str(tmp_path / "absent.json")])
    assert_one_line_usage_error(code, err)


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_bad_tol_exit_2(capsys, tmp_path, tol):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(rc.matrix_to_json(np.eye(3) / 3)))
    unitary = tmp_path / "unitary.json"
    unitary.write_text(json.dumps(rc.matrix_to_json(np.eye(3))))
    for argv in (
        ["verify", "--in", str(good)],
        ["decompose", "--in", str(unitary)],
        ["build", "--pattern", "2,1", "--random", "--seed", "1"],
    ):
        code, out, err = run(capsys, argv + ["--tol", tol])
        assert_one_line_usage_error(code, err)
        assert out == ""


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["build", "--pattern", "2,1", "--random", "--seed", "-1"],
            "error: argument --seed: must be a non-negative integer, got -1",
        ),
        (
            ["commutant", "--pattern", "2,1", "--random", "--seed", "-5"],
            "error: argument --seed: must be a non-negative integer, got -5",
        ),
        (["verify", "--tol", "abc"], "error: argument --tol: must be positive and finite, got 'abc'"),
    ],
    ids=["build-seed", "commutant-seed", "tol-not-a-number"],
)
def test_bad_option_value_exit_2_names_the_option(capsys, argv, line):
    code, out, err = run(capsys, argv)
    assert (code, out, err.splitlines()) == (2, "", [line])


@pytest.mark.parametrize(
    "command, option",
    [
        ("count", "--seed"),
        ("count", "--tol"),
        ("count", "--in"),
        ("rewrite", "--n"),
        ("rewrite", "--seed"),
        ("rewrite", "--tol"),
        ("decompose", "--n"),
        ("decompose", "--seed"),
        ("verify", "--n"),
        ("verify", "--seed"),
        ("commutant", "--tol"),
        ("commutant", "--in"),
    ],
)
def test_option_the_command_does_not_read_exit_2(capsys, tmp_path, command, option):
    """Each subcommand accepts only the options its command reads."""
    inputs = {
        "rewrite": {"n": 2, "atoms": [{"rot": [1, 2], "theta": 0.3}]},
        "decompose": rc.matrix_to_json(np.eye(2)),
        "verify": rc.matrix_to_json(np.eye(2) / 2),
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(inputs.get(command, inputs["verify"])))
    valid = {
        "count": ["--pattern", "2,1"],
        "rewrite": ["--to", "opor", "--in", str(path)],
        "decompose": ["--in", str(path)],
        "verify": ["--in", str(path)],
        "commutant": ["--pattern", "2,1", "--random", "--seed", "1"],
    }[command]
    # the same request without the option exits 0
    assert run(capsys, [command, *valid])[0] == 0
    value = str(path) if option == "--in" else "3"
    code, out, err = run(capsys, [command, *valid, option, value])
    assert_one_line_usage_error(code, err)
    assert out == ""


#: the chart ``write_chart_21`` writes, which ``build --pattern 2,1 --in`` accepts
CHART_21 = {
    "pattern": [2, 1],
    "eigen_angles": [0.7],
    "unitary_params": [{"block": [3, 1], "delta": 0.5, "theta": 0.2}, {"block": [2, 3], "delta": 1.5, "theta": 0.9}],
}


#: (argv, input, the JSON path its one error line names)
MALFORMED_JSON = [
    (["rewrite", "--to", "km"], {"n": "2", "atoms": [{"rot": [1, 2], "theta": 0.3}]}, "n"),
    (["rewrite", "--to", "opor"], {"n": 2, "atoms": None}, "atoms"),
    (["verify"], {"dim": 2, "entries": 5}, "entries"),
    (["rewrite", "--to", "opor"], {"n": 2, "atoms": [{"phase": [1]}]}, "atoms[0].phase"),
    (["rewrite", "--to", "opor"], {"n": 2, "atoms": [{"rot": [1, 2], "theta": 10**400}]}, "atoms[0].theta"),
    (["verify"], {"dim": 1, "entries": [[10**400, 0]]}, "entries[0][0]"),
    (["rewrite", "--to", "opor"], {"n": 2.5, "atoms": [{"rot": [1, 2], "theta": 0.1}]}, "n"),
    (["rewrite", "--to", "km"], {"n": True, "atoms": [{"rot": [1, 2], "theta": 0.1}]}, "n"),
    (["rewrite", "--to", "opor"], {"n": 3, "atoms": [{"rot": [True, 2], "theta": 0.1}]}, "atoms[0].rot[0]"),
    (["rewrite", "--to", "opor"], {"n": 3, "atoms": [{"rot": [1, 2.0], "theta": 0.1}]}, "atoms[0].rot[1]"),
    (["decompose"], {"dim": 1, "entries": [[True, 0]]}, "entries[0][0]"),
    (["rewrite", "--to", "opor"], {"n": 2, "atoms": [{"rot": [1, 2], "theta": True}]}, "atoms[0].theta"),
    (["rewrite", "--to", "opor"], {"n": 2, "atoms": [{"rot": [1, 2], "theta": "0.5"}]}, "atoms[0].theta"),
    (["build", "--pattern", "2,1"], {**CHART_21, "eigen_angles": [True]}, "eigen_angles[0]"),
    (
        ["build", "--pattern", "2,1"],
        {**CHART_21, "unitary_params": [{"block": [3, 1], "delta": False, "theta": "0.2"}, CHART_21["unitary_params"][1]]},
        "unitary_params[0].delta",
    ),
    (["build", "--pattern", "2,1"], {**CHART_21, "pattern": [2, True]}, "pattern[1]"),
    # an atom is exactly one of a rotation and a phase
    (["rewrite", "--to", "km"], {"n": 2, "atoms": [{"rot": [1, 2], "theta": 0.3, "phase": {"1": 0.5}}]}, "atoms[0]"),
    (["rewrite", "--to", "km"], {"n": 2, "atoms": [{"theta": 0.3}]}, "atoms[0]"),
    # phase keys are the indices word_to_json writes: int("1_0") is 10
    (["rewrite", "--to", "km"], {"n": 10, "atoms": [{"phase": {"1_0": 0.5}}]}, "atoms[0].phase"),
    (["rewrite", "--to", "km"], {"n": 2, "atoms": [{"rot": [1, 2, 3], "theta": 0.3}]}, "atoms[0].rot"),
    (["rewrite", "--to", "km"], {"n": 2, "atoms": [{"rot": [1, 2], "theta": math.nan}]}, "atoms[0].theta"),
    (["rewrite", "--to", "km"], [1], "input"),
    (
        ["build", "--pattern", "2,1"],
        {**CHART_21, "unitary_params": [{"block": [3.0, 1], "delta": 0.5, "theta": 0.2}, CHART_21["unitary_params"][1]]},
        "unitary_params[0].block[0]",
    ),
    # a file's own pattern is compared with --pattern before it is built
    (["build", "--pattern", "2,1"], {"pattern": [1000000], "eigen_angles": [], "unitary_params": []}, "pattern"),
    (["build", "--pattern", "2,1"], {**CHART_21, "pattern": [10**400, 1]}, "pattern"),
    (["build", "--pattern", "2,1"], "2,1", "input"),
    (["decompose"], {"dim": 2}, "entries"),
    (["verify"], {"dim": 0, "entries": []}, "dim"),
    (["verify"], {"dim": 1, "entries": [[1.0, 0.0, 0.0]]}, "entries[0]"),
    # bytes are written as they are: a JSON syntax error names the input
    (["rewrite", "--to", "km"], b'{"n":2,"atoms":[\n', "input"),
    # an index out of range names its JSON path, not the atom it would build
    (["rewrite", "--to", "km"], {"n": 2, "atoms": [{"rot": [1, 3], "theta": 0.1}]}, "atoms[0].rot"),
    (["rewrite", "--to", "km"], {"n": 2, "atoms": [{"rot": [2, 2], "theta": 0.1}]}, "atoms[0].rot"),
    (["rewrite", "--to", "km"], {"n": 2, "atoms": [{"rot": [0, 2], "theta": 0.1}]}, "atoms[0].rot"),
    (["rewrite", "--to", "km"], {"n": 2, "atoms": [{"phase": {"0": 0.1}}]}, "atoms[0].phase.0"),
    (["rewrite", "--to", "km"], {"n": 2, "atoms": [{"phase": {"3": 0.1}}]}, "atoms[0].phase.3"),
    (["rewrite", "--to", "km"], {"n": 0, "atoms": [{"rot": [1, 2], "theta": 0.1}]}, "n"),
    # a value its type refuses names the field it was read from, and the element if it is one
    (["build", "--pattern", "2,1"], {**CHART_21, "eigen_angles": [3.0]}, "eigen_angles[0]"),
    (["build", "--pattern", "2,1"], {**CHART_21, "eigen_angles": [0.3, 0.2]}, "eigen_angles"),
    (
        ["build", "--pattern", "2,1"],
        {**CHART_21, "unitary_params": [{"block": [3, 1], "delta": 7.0, "theta": 0.2}, CHART_21["unitary_params"][1]]},
        "unitary_params[0]",
    ),
    (
        ["build", "--pattern", "2,1"],
        {**CHART_21, "unitary_params": [{"block": [1, 3], "delta": 0.5, "theta": 0.2}, CHART_21["unitary_params"][1]]},
        "unitary_params",
    ),
]


# ids number the argv and contents only, so a case keeps its id whatever field it names
@pytest.mark.parametrize(
    "argv, contents, field", MALFORMED_JSON, ids=[f"argv{k}-contents{k}" for k in range(len(MALFORMED_JSON))]
)
def test_malformed_json_shape_exit_2(capsys, tmp_path, argv, contents, field):
    path = tmp_path / "in.json"
    path.write_bytes(contents if isinstance(contents, bytes) else json.dumps(contents).encode())
    code, out, err = run(capsys, argv + ["--in", str(path)])
    assert_one_line_usage_error(code, err)
    assert err.startswith(f"error: {field}: "), err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["decompose"], ["rewrite", "--to", "km"], ["build", "--pattern", "2,1"]],
)
def test_deeply_nested_json_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "in.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, argv + ["--in", str(path)])
    assert_one_line_usage_error(code, err)
    assert err.startswith("error: input: ") and out == ""


def test_rewrite_rejects_dimension_above_cap(capsys, tmp_path):
    path = tmp_path / "word.json"
    # an oversize n is refused before any atom is decoded, so it is named and atoms[0].rot is not
    for atoms in ([], [{"rot": [1, 999], "theta": 0.1}]):
        path.write_text(json.dumps({"n": MAX_DIM + 1, "atoms": atoms}))
        code, out, err = run(capsys, ["rewrite", "--to", "opor", "--in", str(path)])
        assert_one_line_usage_error(code, err)
        assert err == f"error: dimension {MAX_DIM + 1} exceeds the limit of 256\n" and out == ""


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_matrix_commands_reject_dimension_above_cap(capsys, tmp_path, command):
    # a valid input otherwise: the identity, as a unitary and as a density
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(rc.matrix_to_json(np.eye(MAX_DIM + 1) / (1 if command == "decompose" else MAX_DIM + 1))))
    code, out, err = run(capsys, [command, "--in", str(path)])
    assert_one_line_usage_error(code, err)
    assert err == f"error: dimension {MAX_DIM + 1} exceeds the limit of 256\n" and out == ""


def test_an_eigen_angle_out_of_range_names_its_element(capsys, tmp_path):
    p = rc.DegeneracyPattern((1, 1, 1))
    params = [rc.BlockParam(b, 0.5, 0.5) for b in rc.canonical_order(p)]
    chart = rc.DensityChart(p, rc.EigenChart(p, [0.3, 0.2]), params)
    path = tmp_path / "chart.json"
    for angles, line in (
        ([0.3, 2.0], "error: eigen_angles[1]: angle 2.0 outside [0, pi/2]"),
        ([0.3], "error: eigen_angles: expected 2 angles for 3 classes, got 1"),
    ):
        path.write_text(json.dumps({**chart.to_json(), "eigen_angles": angles}))
        code, out, err = run(capsys, ["build", "--pattern", "1,1,1", "--in", str(path)])
        assert (code, out, err) == (2, "", line + "\n")


@pytest.mark.parametrize("pattern", [",".join(["1"] * (MAX_DIM + 1)), str(10**9)])
def test_build_rejects_pattern_above_cap(capsys, pattern):
    # every command that reads --pattern, not build alone
    for command, rest in PATTERN_COMMANDS.items():
        code, out, err = run(capsys, [command, "--pattern", pattern, *rest])
        assert_one_line_usage_error(code, err)
        assert err.startswith("error: argument --pattern: dimension ")
        assert str(MAX_DIM) in err and out == ""


def test_missing_required_option_exit_2_without_usage_line(capsys, tmp_path):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"n": 2, "atoms": []}))
    code, out, err = run(capsys, ["rewrite", "--in", str(path)])
    assert_one_line_usage_error(code, err)
    assert "--to" in err


def test_build_validation_failure_exit_3_prints_full_payload(capsys):
    argv = ["build", "--pattern", "2,1", "--random", "--seed", "1"]
    passing = run_json(capsys, argv)
    code, out, err = run(capsys, argv + ["--tol", "1e-300"])
    assert code == 3 and err == ""
    obj = json.loads(out)
    assert obj["validation"]["passed"] is False and obj["validation"]["tol"] == 1e-300
    assert obj["chart"] == passing["chart"] and obj["matrix"] == passing["matrix"]


def write_chart_21(tmp_path):
    path = tmp_path / "chart.json"
    path.write_text(
        json.dumps(
            {
                "pattern": [2, 1],
                "eigen_angles": [0.7],
                "unitary_params": [
                    {"block": [3, 1], "delta": 0.5, "theta": 0.2},
                    {"block": [2, 3], "delta": 1.5, "theta": 0.9},
                ],
            }
        )
    )
    return str(path)


def test_build_random_with_input_file_exit_2(capsys, tmp_path):
    argv = ["build", "--pattern", "2,1", "--random", "--seed", "1"]
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, argv + ["--in", write_chart_21(tmp_path)])
    assert_one_line_usage_error(code, err)
    assert "--in" in err and out == ""


def test_build_from_input_file_with_seed_exit_2(capsys, tmp_path):
    argv = ["build", "--pattern", "2,1", "--in", write_chart_21(tmp_path)]
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, argv + ["--seed", "5"])
    assert_one_line_usage_error(code, err)
    assert "--seed" in err and out == ""


# fuzzing: valid inputs with one subtree replaced or one key dropped, plus raw text

FUZZ_CASES = {
    "rewrite": (
        ["rewrite", "--to", "km"],
        {
            "n": 3,
            "atoms": [
                {"phase": {"1": 0.3, "3": 1.0}},
                {"rot": [1, 3], "theta": 0.4},
                {"rot": [2, 3], "theta": 1.0},
            ],
        },
    ),
    "decompose": (["decompose"], {"dim": 2, "entries": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}),
    "verify": (["verify"], {"dim": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}),
    "build": (
        ["build", "--pattern", "2,1"],
        {
            "pattern": [2, 1],
            "eigen_angles": [0.7],
            "unitary_params": [
                {"block": [3, 1], "delta": 0.5, "theta": 0.2},
                {"block": [2, 3], "delta": 1.5, "theta": 0.9},
            ],
        },
    ),
}

# small integers only, and one too large for a float: a word's n sizes an n x n matrix
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 9),
        st.just(10**400),
        st.floats(),
        st.text(max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=8,
)


@st.composite
def mutated(draw, value):
    """``value`` with one subtree replaced by arbitrary JSON or one dict key dropped."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        copy = dict(value) if isinstance(value, dict) else list(value)
        key = draw(st.sampled_from(list(copy) if isinstance(copy, dict) else range(len(copy))))
        if isinstance(copy, dict) and draw(st.booleans()):
            del copy[key]
        else:
            copy[key] = draw(mutated(value[key]))
        return copy
    return draw(json_values)


@st.composite
def malformed_requests(draw):
    argv, valid = FUZZ_CASES[draw(st.sampled_from(sorted(FUZZ_CASES)))]
    text = draw(st.one_of(mutated(valid).map(json.dumps), st.text(max_size=20)))
    return argv, text


@settings(max_examples=400, deadline=None)
@given(malformed_requests())
def test_cli_exit_contract_under_malformed_json(case):
    argv, text = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--in", path])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error:")), lines


# the CLI as a process: what a shell sees of stdin, stdout, stderr and the exit code


def cli(*argv, stdin=""):
    return run_python("-m", "rhochart.cli", *argv, stdin=stdin.encode())


def assert_process_usage_error(done, option=""):
    lines = done.stderr.decode().splitlines()
    assert done.returncode == 2 and len(lines) == 1, (done.returncode, lines)
    assert lines[0].startswith("error:") and option in lines[0]


def rewrite_from_stdin(_):
    word = '{"n": 2, "atoms": [{"phase": {"1": 0.3}}, {"rot": [1, 2], "theta": 0.4}]}\n'
    done = cli("rewrite", "--to", "km", stdin=word)
    assert done.returncode == 0 and done.stderr == b""
    assert json.loads(done.stdout)["max_abs_diff"] < 1e-12


def deep_nesting_on_stdin(_):
    assert_process_usage_error(cli("verify", stdin="[" * 100000 + "\n"))


def out_file_holds_stdout_bytes(tmp_path):
    printed = cli("count", "--pattern", "2,1,1")
    written = cli("count", "--pattern", "2,1,1", "--out", str(tmp_path / "count-out.txt"))
    assert printed.returncode == written.returncode == 0
    assert (tmp_path / "count-out.txt").read_bytes() == printed.stdout and written.stdout == b""


def repeated_pair_in_either_form(_):
    word = '{"n": 2, "atoms": [{"rot": [1, 2], "theta": 0.3}, {"rot": [1, 2], "theta": 0.4}]}\n'
    for form in ("km", "opor"):
        done = cli("rewrite", "--to", form, stdin=word)
        assert done.returncode == 0 and json.loads(done.stdout)["max_abs_diff"] < 1e-12


def word_without_rotation_to_km(_):
    done = cli("rewrite", "--to", "km", stdin='{"n": 2, "atoms": [{"phase": {"1": 0.3, "2": 0.1}}]}\n')
    assert done.returncode == 0 and len(json.loads(done.stdout)["word"]["atoms"]) == 1


def opor_twice_is_opor_once(_):
    general = (
        '{"n": 3, "atoms": [{"phase": {"1": 0.3, "3": 2.0}}, {"rot": [1, 3], "theta": -0.4}, '
        '{"phase": {"2": 1.1}}, {"rot": [2, 3], "theta": 2.5}, {"phase": {"1": 6.0, "2": 0.2}}]}\n'
    )
    once = json.loads(cli("rewrite", "--to", "opor", stdin=general).stdout)
    twice = json.loads(cli("rewrite", "--to", "opor", stdin=json.dumps(once["word"])).stdout)
    assert json.dumps(once["word"]) == json.dumps(twice["word"]) and twice["max_abs_diff"] == 0


def negative_seed_names_the_option(_):
    assert_process_usage_error(cli("build", "--pattern", "2,1", "--random", "--seed", "-1"), "--seed")


@pytest.mark.parametrize(
    "check",
    [
        rewrite_from_stdin,
        deep_nesting_on_stdin,
        out_file_holds_stdout_bytes,
        repeated_pair_in_either_form,
        word_without_rotation_to_km,
        opor_twice_is_opor_once,
        negative_seed_names_the_option,
    ],
    ids=lambda check: check.__name__,
)
def test_cli_process_contract(tmp_path, check):
    check(tmp_path)


# a standard stream closed before the process starts: python sees it as None


def test_closed_stdout_is_an_output_usage_error():
    done = run_python("-m", "rhochart.cli", "count", "--pattern", "2,1", closed_fd=1)
    assert (done.returncode, done.stderr) == (2, b"error: output: standard output is closed\n")


@pytest.mark.parametrize("argv", [["--help"], ["build", "--help"]], ids=["top", "subcommand"])
def test_help_with_closed_stdout_is_an_output_usage_error(argv):
    # argparse alone would print the help to stderr and exit 0
    done = run_python("-m", "rhochart.cli", *argv, closed_fd=1)
    assert (done.returncode, done.stderr) == (2, b"error: output: standard output is closed\n")


def test_closed_stdout_still_writes_out_file(tmp_path):
    path = tmp_path / "count.json"
    done = run_python("-m", "rhochart.cli", "count", "--pattern", "2,1", "--out", str(path), closed_fd=1)
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(path.read_text())["n"] == 3


def test_closed_stdin_is_an_input_usage_error():
    done = run_python("-m", "rhochart.cli", "rewrite", "--to", "km", closed_fd=0)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: input: standard input is closed\n"


@pytest.mark.parametrize(
    "argv, contents, code",
    [
        (["count", "--pattern", "2,x"], None, 2),
        (["build", "--pattern", "2,1", "--random"], None, 2),
        (["decompose"], {"dim": 2, "entries": [[1, 0], [1, 0], [0, 0], [1, 0]]}, 3),
    ],
    ids=["bad-pattern", "no-seed", "not-unitary"],
)
def test_closed_stderr_keeps_the_exit_code(tmp_path, argv, contents, code):
    if contents is not None:
        (tmp_path / "in.json").write_text(json.dumps(contents))
        argv = [*argv, "--in", str(tmp_path / "in.json")]
    done = run_python("-m", "rhochart.cli", *argv, closed_fd=2)
    assert (done.returncode, done.stdout) == (code, b"")


# the collector policy: a process runs its one request through ``run``, with the
# collector off and the heap frozen after it; ``main`` in-process changes neither

GC_REQUESTS = {
    "success": ["count", "--pattern", "2,1"],
    "refusal": ["count", "--pattern", "2,x"],
    "help": ["--help"],
    "numpy": ["build", "--pattern", "33", "--random", "--seed", "1"],  # n > PURE_DIM_MAX
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("request_kind", ["success", "refusal", "help"])
def test_main_in_process_leaves_the_collector_as_it_was(capsys, enabled, request_kind):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(SystemExit):  # --help exits through argparse
            main(GC_REQUESTS[request_kind])
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


#: calls the process entry on ``sys.argv[1:]``, then appends the collector's
#: state, and whether numpy was loaded, to stderr as one more line
RUN_ENTRY = """
import gc, sys
from rhochart.cli import run
try:
    code = run()
finally:
    print(gc.isenabled(), gc.get_freeze_count() > 0, "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("request_kind", sorted(GC_REQUESTS))
def test_process_entry_runs_with_the_collector_off_and_freezes_the_heap(request_kind):
    argv = GC_REQUESTS[request_kind]
    entry = run_python("-c", RUN_ENTRY, *argv)
    module = run_python("-m", "rhochart.cli", *argv)
    *stderr, state = entry.stderr.decode().splitlines()
    assert state == f"False True {request_kind == 'numpy'}"
    assert (entry.returncode, entry.stdout) == (module.returncode, module.stdout)
    assert stderr == module.stderr.decode().splitlines()


def test_console_script_is_the_callable_the_main_block_runs():
    # pyproject.toml is read as text: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^rhochart = "([\w.]+):(\w+)"$', scripts, flags=re.MULTILINE)
    script = getattr(importlib.import_module(target.group(1)), target.group(2))
    source = Path(cli_module.__file__).read_text()
    main_block = next(
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    (stmt,) = main_block.body
    entry = stmt.value.args[0].func.id
    assert ast.unparse(stmt) == f"sys.exit({entry}())"
    assert script is getattr(cli_module, entry)
