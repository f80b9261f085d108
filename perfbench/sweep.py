"""Run the benchmark over several seeds and workloads, one run at a time.

    python3 perfbench/sweep.py --seeds 1-10 --tag seed-baseline
    python3 perfbench/sweep.py --seeds 101-110 --workloads rank-oracle --tag held-out
    python3 perfbench/sweep.py --seeds 1 --trace --tag layers

For every workload and end-to-end metric it prints the median, the
quartiles and their spread (q3 - q1) / median next to the metric's bound
from BENCHMARK.json; with --trace it prints the per-layer metrics and the
layer self-time shares.  Everything, raw values included, is written to
perfbench/out/BENCH_<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").read_text())
    result["wall_s"] = wall
    result["summary"] = detail["summary"]
    result["environment"] = detail["environment"]
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="multi-seed benchmark sweep")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="per-layer runs instead of end-to-end")
    parser.add_argument("--tag", default="sweep")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    chosen = args.workloads.split(",")
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = {w: [] for w in chosen}
    for workload in chosen:
        for seed in seeds:
            result = run_one(workload, seed, args.seconds, args.trace)
            runs[workload].append(dict(result, seed=seed))
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']} wall={result['wall_s']:.1f}s", flush=True)

    table = {}
    for workload, results in runs.items():
        table[workload] = {}
        for m in metric_specs:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            table[workload][m["name"]] = dict(spread(values), values=values, unit=m["unit"], bound=m.get("bound"))

    print()
    if args.trace:
        print("| metric | unit | " + " | ".join(chosen) + " |")
        print("|---|---|" + "---|" * len(chosen))
        for m in metric_specs:
            cells = [f"{table[w][m['name']]['median']:.4g}" for w in chosen]
            print(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")
        print()
        # every traced run is a census of all workloads, so each has shares for all
        censuses = [r["summary"]["layer_shares"] for w in chosen for r in runs[w]]
        census_workloads = sorted({w for c in censuses for w in c})
        layers = sorted({k for c in censuses for shares in c.values() for k in shares})
        print("| workload | " + " | ".join(layers) + " |")
        print("|---|" + "---|" * len(layers))
        for w in census_workloads:
            cells = [f"{statistics.median(c.get(w, {}).get(layer, 0.0) for c in censuses):.1%}" for layer in layers]
            print(f"| {w} | " + " | ".join(cells) + " |")
    else:
        print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for w in chosen:
            for m in metric_specs:
                row = table[w][m["name"]]
                flag = "" if m["name"] == "setup_s" or row["spread"] <= m["bound"] / 3 else " !"
                print(f"| {w} | `{m['name']}` | {m['unit']} | {row['median']:.4g} | {row['q1']:.4g} "
                      f"| {row['q3']:.4g} | {row['spread']:.3f}{flag} | {m['bound']} |")
        for w in chosen:
            rates = [r["failed"] / r["attempted"] for r in runs[w]]
            tails = {r["summary"]["tail"]["percentile"] for r in runs[w]}
            samples = [r["summary"]["tail"]["samples"] for r in runs[w]]
            print(f"{w}: error_rate median {statistics.median(rates):.4g}, tail percentile {sorted(tails)}, "
                  f"samples {min(samples)}..{max(samples)}, correct in {sum(r['correct'] for r in runs[w])}"
                  f"/{len(runs[w])} runs")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps({"args": vars(args), "table": table, "runs": runs}, indent=1, default=str) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
