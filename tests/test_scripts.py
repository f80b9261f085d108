"""The scripts run as documented and exit 0: each checks what it prints."""

import pytest

from conftest import run_python


@pytest.mark.parametrize(
    "args",
    [
        ["scripts/parameter_counts.py", "--n", "5"],
        ["scripts/roundtrip_residuals.py", "--max-n", "4", "--samples", "20"],
    ],
    ids=["parameter-counts", "roundtrip-residuals"],
)
def test_script_exits_0(args):
    done = run_python(*args)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
