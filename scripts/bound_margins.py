#!/usr/bin/env python3
"""Minimum bound margins per family and index over the standard grids.

Prints, for every family and admissible index, the smallest gap between
the proven upper bounds and the squared-basis sum.  Zero rows are the
equality anchors (the index-1 central-binomial envelope for the Baskakov
family and its index-0 counterpart for Meyer-Konig-Zeller).
"""

import argparse

from sqsums.bounds import bound_reports, standard_grid
from sqsums.families import FAMILIES, FamilyId


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=30)
    ap.add_argument("--count", type=int, default=256, help="Chebyshev points per grid")
    args = ap.parse_args()

    for name in (name for name, row in FAMILIES.items() if row.bounds is not None):
        family = FamilyId(name)
        grid = standard_grid(family, count=args.count)
        for n in range(family.least_index, args.n_max + 1):
            worst = min(bound_reports(family, n, grid), key=lambda r: r.min_margin)
            print(
                f"{name:>9} n={n:2d}  min margin {worst.min_margin:+.3e} "
                f"at x={worst.x:.6g} (s={worst.s_value:.6g})"
            )


if __name__ == "__main__":
    main()
