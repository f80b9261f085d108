"""The benchmark's tracer rebinds library functions by name in the modules
that look them up; every binding it names must exist, or ``--trace 1`` fails."""

import importlib
import types
from pathlib import Path

import numpy as np

from rhochart import builder
from rhochart.degeneracy import DegeneracyPattern
from rhochart.words import Word

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


def test_build_density_evaluates_through_the_builder_binding(monkeypatch):
    """The traced census times density-build's word products by rebinding
    ``rhochart.builder.evaluate``; a ``build_density`` that stopped calling it
    would leave the ``words.evaluate`` per-size metrics without a span.  So
    ``build_density`` calls that module attribute once per chart, on a word of
    the chart's n.  ``perfbench/`` changes only together with the benchmark, and
    only a change to the benchmark may relax this test."""
    words, evaluate = [], builder.evaluate
    monkeypatch.setattr(builder, "evaluate", lambda w: words.append(w) or evaluate(w))
    rng = np.random.default_rng(5)
    sizes = []
    for mults in [(1,), (2, 1), (1, 1, 1), (2, 2, 1), (3,), (1,) * 8]:
        chart = builder.random_density_chart(DegeneracyPattern.from_multiplicities(mults), rng)
        builder.build_density(chart)
        sizes.append(chart.pattern.n)
    assert all(isinstance(w, Word) for w in words)
    assert [w.n for w in words] == sizes
