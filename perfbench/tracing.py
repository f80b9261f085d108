"""Spans around the library's public functions, recorded from outside.

The traced run rebinds the library's functions in every module that looks
them up (``rhochart.builder.evaluate``, ``rhochart.decompose.evaluate``,
...), so no file under ``src/`` changes.  A span holds its name, start,
end, parent span and op id, plus the size ``n`` and, for ``evaluate``, the
number of atoms multiplied.  Spans are kept in memory and written out when
the run ends.  A span's self time is its duration minus its children's; the
op's own span keeps the benchmark's glue, so the self times of an op's
spans add up to its duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from time import perf_counter

import numpy as np

# (span name, function, modules that bind it).  A name ending in "." is
# completed by the normalize target.
TRACED = (
    ("words.evaluate", "evaluate", ("words", "builder", "decompose")),
    ("words.normalize.", "normalize", ("words",)),
    ("words.range_reduce", "range_reduce", ("words",)),
    ("words.json", "word_to_json", ("words",)),
    ("words.json", "word_from_json", ("words",)),
    ("decompose.decompose", "decompose", ("decompose",)),
    ("builder.build_density", "build_density", ("builder",)),
    ("builder.kept_word", "kept_word", ("builder",)),
    ("builder.validate_density", "validate_density", ("builder",)),
    ("builder.jacobian_rank", "jacobian_rank", ("builder",)),
    ("charts.eigen_matrix", "eigen_matrix", ("charts", "builder")),
    ("charts.eigenvalues", "eigenvalues", ("charts", "builder")),
    ("charts.fit_chart", "fit_chart", ("charts", "builder")),
    ("degeneracy.canonical_order", "canonical_order", ("degeneracy", "builder", "decompose", "words")),
    ("numerics.is_unitary", "is_unitary", ("numerics",)),
    ("numerics.max_abs_diff", "max_abs_diff", ("numerics",)),
    ("numerics.matrix_json", "matrix_to_json", ("numerics",)),
    ("numerics.matrix_json", "matrix_from_json", ("numerics",)),
)

OP = "op"


def _size(args) -> tuple[int, int]:
    """(n, atoms) of the first argument: a Word, a chart or a matrix."""
    first = args[0] if args else None
    if hasattr(first, "atoms"):
        return first.n, len(first.atoms)
    if hasattr(first, "pattern"):
        return first.pattern.n, -1
    if isinstance(first, np.ndarray) and first.ndim == 2:
        return first.shape[0], -1
    return -1, -1


class Tracer:
    """In-memory span recorder; records only while an op is open."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.n: list[int] = []
        self.atoms: list[int] = []
        self.op_workload: list[str] = []
        self.stack: list[int] = []

    def _begin(self, name: str, n: int, atoms: int) -> int:
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(len(self.op_workload) - 1)
        self.n.append(n)
        self.atoms.append(atoms)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _finish(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def op_span(self, workload: str, name: str, n: int):
        self.op_workload.append(workload)
        idx = self._begin(name, n, -1)
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            span = name
            if name.endswith("."):
                target = args[1] if len(args) > 1 else kwargs["target"]
                span = name + target.value
            idx = self._begin(span, *_size(args))
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(idx)

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Rebind every TRACED function in ``modules`` for the duration."""
        saved = []
        try:
            for span, attr, owners in TRACED:
                traced = self.wrap(span, getattr(modules[owners[0]], attr))
                for owner in owners:
                    saved.append((modules[owner], attr, getattr(modules[owner], attr)))
                    setattr(modules[owner], attr, traced)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        name = np.array(self.name, dtype=int)
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent, dtype=int)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        op = np.array(self.op, dtype=int)
        workload = np.array(self.op_workload + [""])[op]
        return {
            "name": np.array(self.names + [""])[name] if len(name) else np.array([], dtype=str),
            "dur": dur,
            "self": dur - child,
            "parent": parent,
            "workload": workload,
            "n": np.array(self.n, dtype=int),
            "atoms": np.array(self.atoms, dtype=int),
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "op_workload": self.op_workload,
                    "columns": ["name", "start", "end", "parent", "op", "n", "atoms"],
                    "spans": list(zip(self.name, self.start, self.end, self.parent, self.op, self.n, self.atoms)),
                },
                fh,
            )


def layer_of(span_name: str) -> str:
    return "bench" if span_name == OP else span_name.split(".")[0]


def layer_shares(spans: dict) -> dict:
    """Self-time share of each layer in each workload's traced op time."""
    shares = {}
    for workload in sorted(set(spans["workload"])):
        mask = spans["workload"] == workload
        total = spans["dur"][mask & (spans["parent"] < 0)].sum()
        per_layer: dict[str, float] = {}
        for name, own in zip(spans["name"][mask], spans["self"][mask]):
            layer = layer_of(name)
            per_layer[layer] = per_layer.get(layer, 0.0) + own
        shares[workload] = {layer: t / total for layer, t in sorted(per_layer.items())}
    return shares


def op_accounting_gap(spans: dict) -> float:
    """Largest |sum of an op's self times - op duration| over op durations."""
    roots = np.flatnonzero(spans["parent"] < 0)
    if not len(roots):
        return 0.0
    op_of = np.empty(len(spans["parent"]), dtype=int)
    for idx, parent in enumerate(spans["parent"]):
        op_of[idx] = idx if parent < 0 else op_of[parent]
    self_sum = np.zeros(len(op_of))
    np.add.at(self_sum, op_of, spans["self"])
    return float(np.max(np.abs(self_sum[roots] - spans["dur"][roots]) / spans["dur"][roots]))


def _p50(values, scale: float) -> float:
    return statistics.median(values) * scale if len(values) else float("nan")


def layer_metrics(spans: dict, cli: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    name, dur, own, n, wl = spans["name"], spans["dur"], spans["self"], spans["n"], spans["workload"]
    parent_name = np.where(spans["parent"] >= 0, name[spans["parent"]], "")
    out = {}

    def total(span, unit="s"):
        return float(own[name == span].sum()), unit

    def calls(span):
        return int(np.count_nonzero(name == span)), "count"

    def by_size(span, workload, size, scale, unit):
        mask = (name == span) & (wl == workload) & (n == size)
        return _p50(dur[mask], scale), unit

    out["words.evaluate.calls"] = calls("words.evaluate")
    out["words.evaluate.atoms"] = int(spans["atoms"][name == "words.evaluate"].sum()), "count"
    out["words.evaluate.self_s"] = total("words.evaluate")
    for size in (3, 4, 8, 16, 32):
        out[f"words.evaluate.n{size}.p50_us"] = by_size("words.evaluate", "density-build", size, 1e6, "us")
    for form in ("opor", "km", "phase_adjoint"):
        out[f"words.normalize.{form}.self_s"] = total(f"words.normalize.{form}")
    out["words.range_reduce.self_s"] = total("words.range_reduce")
    out["words.json.self_s"] = total("words.json")

    out["decompose.elimination.self_s"] = total("decompose.decompose")
    residual = (parent_name == "decompose.decompose") & np.isin(name, ["words.evaluate", "numerics.max_abs_diff"])
    out["decompose.residual.self_s"] = float(dur[residual].sum()), "s"
    for size in (3, 4, 8, 16, 32):
        out[f"decompose.n{size}.p50_us"] = by_size("decompose.decompose", "factor-rewrite", size, 1e6, "us")

    out["builder.build_density.calls"] = calls("builder.build_density")
    out["builder.build_density.self_s"] = total("builder.build_density")
    for size in (3, 4, 8, 16, 32):
        out[f"builder.build_density.n{size}.p50_us"] = by_size(
            "builder.build_density", "density-build", size, 1e6, "us"
        )
    out["builder.kept_word.self_s"] = total("builder.kept_word")
    out["builder.validate_density.self_s"] = total("builder.validate_density")
    out["builder.jacobian_rank.calls"] = calls("builder.jacobian_rank")
    out["builder.jacobian_rank.self_s"] = total("builder.jacobian_rank")
    for size in (3, 4, 5, 6, 8):
        out[f"builder.jacobian_rank.n{size}.p50_ms"] = by_size(
            "builder.jacobian_rank", "rank-oracle", size, 1e3, "ms"
        )
    rank_calls = np.count_nonzero(name == "builder.jacobian_rank")
    rank_builds = np.count_nonzero((name == "builder.build_density") & (parent_name == "builder.jacobian_rank"))
    out["builder.jacobian_rank.builds_per_call"] = rank_builds / max(rank_calls, 1), "builds/call"

    out["charts.eigen_matrix.self_s"] = total("charts.eigen_matrix")
    out["charts.fit_chart.self_s"] = total("charts.fit_chart")
    out["degeneracy.canonical_order.calls"] = calls("degeneracy.canonical_order")
    out["degeneracy.canonical_order.self_s"] = total("degeneracy.canonical_order")
    out["numerics.max_abs_diff.self_s"] = total("numerics.max_abs_diff")
    out["numerics.matrix_json.self_s"] = total("numerics.matrix_json")

    out["cli.interpreter.p50_ms"] = _p50(cli["interpreter"], 1e3), "ms"
    out["cli.import.p50_ms"] = _p50(cli["import"], 1e3), "ms"
    for command in ("count", "build", "rewrite", "decompose", "verify", "commutant"):
        out[f"cli.{command}.p50_ms"] = _p50(dur[name == f"cli.{command}"], 1e3), "ms"
    malformed = cli["malformed_ok"]
    out["cli.malformed.ok_ratio"] = sum(malformed) / max(len(malformed), 1), "ratio"
    out["tracing.overhead_ratio"] = overhead_ratio, "ratio"
    return out
