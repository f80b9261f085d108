#!/usr/bin/env python3
"""Decompose random unitaries and report the worst reconstruction residual.

Exits 1 when a residual or round-trip error reaches BOUND, the bound the
README states for ``decompose``.

Usage: python scripts/roundtrip_residuals.py --max-n 8 --samples 200 --seed 0
"""

import argparse
import sys

import numpy as np

from rhochart.decompose import decompose
from rhochart.numerics import haar_unitary, max_abs_diff
from rhochart.words import evaluate

BOUND = 1e-10


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'n':>3}{'worst residual':>18}{'worst roundtrip':>18}")
    worst = 0.0
    for n in range(2, args.max_n + 1):
        worst_res, worst_rt = 0.0, 0.0
        for _ in range(args.samples):
            u = haar_unitary(n, rng)
            result = decompose(u)
            worst_res = max(worst_res, result.residual)
            worst_rt = max(worst_rt, max_abs_diff(evaluate(result.word), u))
        print(f"{n:>3}{worst_res:>18.3e}{worst_rt:>18.3e}")
        worst = max(worst, worst_res, worst_rt)
    if worst >= BOUND:
        print(f"FAIL: worst error {worst:.3e} >= {BOUND:.0e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
