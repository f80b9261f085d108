"""The benchmark's tracer rebinds library functions by name in the modules
that look them up; every binding it names must exist, or ``--trace 1`` fails."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # exec the source rather than import it, so nothing is written beside it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    traced = _load_tracing().TRACED
    assert traced
    missing = [
        f"rhochart.{owner}.{attr}"
        for _, attr, owners in traced
        for owner in owners
        if not callable(getattr(importlib.import_module(f"rhochart.{owner}"), attr, None))
    ]
    assert missing == []
