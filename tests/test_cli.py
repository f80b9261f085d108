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

import rhochart as rc
from rhochart.cli import MAX_DIM, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_count_golden(capsys):
    obj = run_json(capsys, ["count", "--n", "4", "--pattern", "2,1,1"])
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
    code, out, err = run(capsys, ["count", "--n", "5", "--pattern", "2,1"])
    assert code == 2


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
    word = rc.make_phase_adjoint_chart(3, rng.uniform(0, 2, 9))
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


def test_rewrite_unreachable_exit_4(capsys, tmp_path):
    word = {
        "n": 2,
        "atoms": [{"rot": [1, 2], "theta": 0.3}, {"rot": [1, 2], "theta": 0.4}],
    }
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    code, out, err = run(capsys, ["rewrite", "--to", "opor", "--in", str(path)])
    assert code == 4


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
    path.write_text(json.dumps({"n": MAX_DIM + 1, "atoms": []}))
    code, out, err = run(capsys, ["rewrite", "--to", "opor", "--in", str(path)])
    assert_one_line_usage_error(code, err)
    assert str(MAX_DIM) in err and out == ""


@pytest.mark.parametrize("pattern", [",".join(["1"] * (MAX_DIM + 1)), str(10**9)])
def test_build_rejects_pattern_above_cap(capsys, pattern):
    code, out, err = run(capsys, ["build", "--pattern", pattern, "--random", "--seed", "1"])
    assert_one_line_usage_error(code, err)
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
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error:")), lines
