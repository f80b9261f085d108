#!/usr/bin/env python3
"""Print the parameter-count table over all degeneracy patterns of n.

Exits 1, naming the row, when internal + redundant differs from (n-1)^2.

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
    square = (args.n - 1) ** 2
    for mults in all_partitions(args.n):
        p = DegeneracyPattern.from_multiplicities(list(mults))
        label = ",".join(str(m) for m in mults)
        print(
            f"{label:<14}{degrees_of_degeneracy(p):>8}{redundant_params(p):>11}"
            f"{internal_params(p):>10}{orbit_dim(p):>7}"
        )
        if internal_params(p) + redundant_params(p) != square:
            sys.exit(f"check failed on row {label}: internal + redundant != (n-1)^2 == {square}")
    print(f"\ncheck: internal + redundant == (n-1)^2 == {square} for every row")


if __name__ == "__main__":
    main()
