#!/usr/bin/env python3
"""Print the contraction map on every class of a given weight, plus the
even-composition x self-dual-class square submatrix for even weights."""

import argparse
import sys

from zetasigma.compositions import enumerate_compositions, format_class, format_composition
from zetasigma.delta import delta_class, delta_submatrix


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weight", type=int, default=5)
    args = ap.parse_args()
    k = args.weight
    if not 0 <= k <= 12:
        ap.error("--weight must be in 0..12")

    for c in enumerate_compositions(k, "classes"):
        lc = delta_class(c)
        terms = " + ".join(
            f"{lc.coefficient_of(b)}({format_composition(b)})" for b in lc.support()
        )
        print(f"delta {format_class(c)} = {terms}")

    if k % 2 == 0:
        print()
        print(f"square submatrix at weight {k}:")
        for row in delta_submatrix(k):
            print("  " + " ".join(f"{x:>4d}" for x in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
