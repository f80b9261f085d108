"""rhochart benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload density-build --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are for people.  Details, the environment and (when traced)
the spans go to ``perfbench/out/``.  See NOTES.md for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

# one BLAS thread, set before numpy loads: the load stays single-threaded and
# never exceeds nproc; children inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("builder", "charts", "cli", "decompose", "degeneracy", "numerics", "words")
WORKLOAD_NAMES = ("density-build", "factor-rewrite", "rank-oracle", "cli-cold")
IMPORT_PROBE = "import time; t = time.perf_counter(); import rhochart; print(time.perf_counter() - t)"
SETUP_REPS = 5
# rounds of the traced census: a fixed amount of work, so counts repeat
# exactly; cli-cold's rounds take every malformed case once
CENSUS_ROUNDS = {
    "density-build": 20,
    "factor-rewrite": 8,
    "rank-oracle": 4,
    "cli-cold": len(workloads.MALFORMED) // workloads.MALFORMED_PER_ROUND,
}
CLI_PROBES = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_library():
    """Import rhochart from this checkout's src/, never from elsewhere."""
    if not (SRC / "rhochart" / "__init__.py").is_file():
        raise SystemExit(f"error: no rhochart sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    package = importlib.import_module("rhochart")
    import_s = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != (SRC / "rhochart").resolve():
        raise SystemExit(f"error: rhochart imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"rhochart.{name}") for name in MODULES}
    return SimpleNamespace(**modules), modules, import_s


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "load": "one process, closed loop, at most one child at a time",
        "git_commit": commit,
        "seed": seed,
    }


def make_workload(name: str, lib, workdir: Path):
    if name == "cli-cold":
        return workloads.CliCold(lib, workdir, child_env(), ROOT)
    return {
        "density-build": workloads.DensityBuild,
        "factor-rewrite": workloads.FactorRewrite,
        "rank-oracle": workloads.RankOracle,
    }[name](lib)


def child_seconds(code: str) -> tuple[float, str]:
    """Wall time of ``python -c code`` from spawn to exit, and its output."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120, check=True
    )
    return time.perf_counter() - start, proc.stdout


def import_seconds() -> float:
    return float(child_seconds(IMPORT_PROBE)[1])


def execute(workload, inp, span=None):
    """One op: (timed latency or None if it raised, failure or None).

    ``span`` (the traced run's op span) covers the timed part only; the
    check runs after it.
    """
    try:
        with span or contextlib.nullcontext():
            start = time.perf_counter()
            out = workload.run(inp)
            latency = time.perf_counter() - start
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return None, checks.wrong(f"{type(exc).__name__}: {exc}")
    try:
        return latency, workload.check(inp, out)
    except Exception as exc:  # a check that cannot read the output fails the op
        return latency, checks.wrong(f"check raised {type(exc).__name__}: {exc}")


def warm_up(workload, rng, index: int):
    inputs = workload.round_inputs(rng, index)
    for inp in inputs[: workload.warm_up_ops]:
        try:
            workload.run(inp)
        except Exception:  # warm-up only fills caches; failures are counted when measured
            pass


def measure_setup(workload, seed: int) -> float:
    """Median child import time plus median (input generation + warm-up)."""
    imports = [import_seconds() for _ in range(SETUP_REPS)]
    prep = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        warm_up(workload, np.random.default_rng([seed, 1, rep]), rep)
        prep.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(prep)


def run_inputs(workload, inputs, records, tracer=None):
    for inp in inputs:
        span = None
        if tracer is not None:
            label = f"cli.{inp.label}" if isinstance(inp, workloads.Request) else tracing.OP
            span = tracer.op_span(workload.name, label, workload.size(inp))
        latency, fail = execute(workload, inp, span)
        records.append((latency, fail, getattr(inp, "malformed", False)))


def run_rounds(workload, rng, records, seconds: float):
    """Run whole rounds until ``seconds`` have passed."""
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        run_inputs(workload, workload.round_inputs(rng, index), records)
        index += 1


def tail(latencies, preferred: float):
    """Latency at the preferred percentile, lowered until 10 samples lie beyond it."""
    ordered = np.sort(latencies)
    for pct in [p for p in TAIL_LADDER if p <= preferred]:
        value = float(np.percentile(ordered, pct))
        beyond = int(np.count_nonzero(ordered > value))
        if beyond >= MIN_BEYOND:
            return value, pct, beyond
    return float(ordered[-1]), 100.0, 0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def summarize(records) -> dict:
    failures = [fail for _, fail, _ in records if fail is not None]
    by_kind: dict[str, int] = {}
    for fail in failures:
        by_kind[fail.kind] = by_kind.get(fail.kind, 0) + 1
    return {
        "attempted": len(records),
        "failed": len(failures),
        "correct": checks.WRONG not in by_kind,
        "failures_by_kind": by_kind,
        "first_failures": [f"[{fail.kind}] {fail.message}" for fail in failures[:8]],
    }


def ops_per_s(records) -> float:
    latencies = [lat for lat, _, _ in records if lat is not None]
    return len(latencies) / sum(latencies)


def measure(workload, args) -> tuple[dict, dict]:
    setup_s = measure_setup(workload, args.seed)
    records = []
    run_rounds(workload, np.random.default_rng([args.seed, 0]), records, args.seconds)
    latencies = np.array([lat for lat, _, _ in records if lat is not None])
    tail_s, pct, beyond = tail(latencies, workload.tail_percentile)
    summary = summarize(records)
    metrics = {
        "ops_per_s": (ops_per_s(records), "1/s"),
        "latency_p50_ms": (float(np.median(latencies)) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(children=workload.name == "cli-cold"), "MB"),
    }
    summary["completed"] = len(latencies)
    summary["error_rate"] = summary["failed"] / summary["attempted"]
    summary["tail"] = {"percentile": pct, "samples": len(latencies), "beyond": beyond}
    return metrics, summary


def trace(workload, args, lib, modules, workdir) -> tuple[dict, dict]:
    """Census of every workload with spans; the named one also untraced."""
    all_workloads = {
        name: workload if name == workload.name else make_workload(name, lib, workdir) for name in WORKLOAD_NAMES
    }
    census_seed = {name: [args.seed, 2, k] for k, name in enumerate(WORKLOAD_NAMES)}
    for wl in all_workloads.values():
        warm_up(wl, np.random.default_rng([args.seed, 1, 0]), 0)

    # the named workload runs each census round untraced as well, next to
    # its traced pass and in alternating order, so drift in machine speed
    # cancels out of the overhead ratio
    tracer = tracing.Tracer()
    records = {}
    untraced = []
    cli_probe = {"interpreter": [], "import": []}
    for name, wl in all_workloads.items():
        records[name] = []
        rng = np.random.default_rng(census_seed[name])
        for index in range(CENSUS_ROUNDS[name]):
            inputs = wl.round_inputs(rng, index)
            if wl is workload and index % 2 == 0:
                run_inputs(wl, inputs, untraced)
            with tracer.installed(modules):
                run_inputs(wl, inputs, records[name], tracer)
            if wl is workload and index % 2 == 1:
                run_inputs(wl, inputs, untraced)
    for _ in range(CLI_PROBES):
        cli_probe["interpreter"].append(child_seconds("pass")[0])
        cli_probe["import"].append(import_seconds())
    cli_probe["malformed_ok"] = [fail is None for _, fail, malformed in records["cli-cold"] if malformed]

    overhead = ops_per_s(records[workload.name]) / ops_per_s(untraced)
    spans = tracer.arrays()
    metrics = tracing.layer_metrics(spans, cli_probe, overhead)
    summary = summarize([r for recs in records.values() for r in recs])
    summary["layer_shares"] = tracing.layer_shares(spans)
    summary["op_accounting_gap"] = tracing.op_accounting_gap(spans)
    summary["spans"] = len(tracer.name)
    trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write(trace_path)
    summary["trace_file"] = str(trace_path.relative_to(ROOT))
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    lib, modules, first_import_s = load_library()
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env))

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        flagged, total = selftest.run(lib)
        print(f"self-test: {flagged} of {total} clean and corrupted outputs judged as expected")
        if flagged != total:
            print("error: the output checker missed a corrupted output", file=sys.stderr)
            return 1
        workload = make_workload(args.workload, lib, workdir)
        if args.trace:
            metrics, summary = trace(workload, args, lib, modules, workdir)
        else:
            metrics, summary = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary["first_import_s"] = first_import_s
    report(args, env, metrics, summary)
    return 0


def report(args, env, metrics, summary):
    print(f"ops: {summary['attempted']} attempted, {summary['failed']} failed {summary['failures_by_kind']}")
    for line in summary["first_failures"]:
        print(f"  {line}")
    if not args.trace:
        print(f"  error_rate = {summary['error_rate']:.4g} ratio")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            t = summary["tail"]
            extra = f"  (p{t['percentile']:g}: {t['beyond']} of {t['samples']} samples beyond)"
        print(f"  {name} = {value:.6g} {unit}{extra}")
    if args.trace:
        print(f"spans: {summary['spans']}, self times vs op durations: max gap {summary['op_accounting_gap']:.2g}")
        for workload, shares in summary["layer_shares"].items():
            print(f"  {workload}: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, environment=env, summary=summary, args=vars(args))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=2, default=str) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
