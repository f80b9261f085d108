#!/usr/bin/env python3
"""Print the parameter-count table over all degeneracy patterns of n.

Exits 1, naming the row, when internal differs from orbit - (n-1): the
internal count is defined from the redundant one, the orbit dimension from
n^2 - sum(m^2), so the two are computed independently.

Usage: python scripts/parameter_counts.py --n 4
"""

import argparse
import sys

from rhochart.degeneracy import (
    DegeneracyPattern,
    all_partitions,
    degrees_of_degeneracy,
    internal_params,
    orbit_dim,
    redundant_params,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    args = parser.parse_args()

    header = f"{'pattern':<14}{'degrees':>8}{'redundant':>11}{'internal':>10}{'orbit':>7}"
    print(header)
    print("-" * len(header))
    for mults in all_partitions(args.n):
        p = DegeneracyPattern.from_multiplicities(list(mults))
        label = ",".join(str(m) for m in mults)
        print(
            f"{label:<14}{degrees_of_degeneracy(p):>8}{redundant_params(p):>11}"
            f"{internal_params(p):>10}{orbit_dim(p):>7}"
        )
        if internal_params(p) != orbit_dim(p) - (args.n - 1):
            sys.exit(f"check failed on row {label}: internal != orbit - (n-1)")
    print(f"\ncheck: internal == orbit - (n-1) == orbit - {args.n - 1} for every row")


if __name__ == "__main__":
    main()
