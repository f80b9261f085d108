"""The README's library example and CLI lines run as written."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from rhochart.cli import main
from rhochart.numerics import matrix_to_json

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def json_examples(section):
    """The section's jsonc examples, keyed by the first word of their comment."""
    block = re.search(r"```jsonc\n(.*?)```", section, flags=re.DOTALL).group(1)
    parts = re.split(r"^// (\w+).*$", block, flags=re.MULTILINE)
    return {name: json.loads(body) for name, body in zip(parts[1::2], parts[2::2])}


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    section = text[text.index("## CLI") : text.index("## Scripts")]
    examples = json_examples(section)
    inputs = {
        "chart.json": examples["density"],
        "word.json": examples["word"],
        "unitary.json": examples["matrix"],
        "matrix.json": matrix_to_json(np.eye(3) / 3),
    }
    for name, obj in inputs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    lines = re.findall(r"^rhochart (.*)$", section, flags=re.MULTILINE)
    commands = {"count", "build", "rewrite", "decompose", "verify", "commutant"}
    assert {line.split()[0] for line in lines} == commands
    for line in lines:
        code = main(shlex.split(line))
        assert code == 0, (line, capsys.readouterr().err)
