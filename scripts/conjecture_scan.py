#!/usr/bin/env python3
"""Exact log-convexity evidence sweep.

For the polynomial (c = -1) and rational (c = +1) families, evaluates
Q = S*S'' - (S')^2 exactly at rational grid points for every index up to
--n-max and writes one JSON report per (family, n).  Each line gives the
scan's seconds, so one run (say --n-max 120) shows how the cost grows with
n.  Margins are reported as evidence; nothing here asserts the conjecture
and the exit code is 0 whenever the sweep completes.
"""

import argparse
import pathlib
import time

from sqsums.analysis import logconvexity_scan
from sqsums.cli import _write_json
from sqsums.families import FAMILIES, FamilyId


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=20)
    ap.add_argument("--count", type=int, default=1024, help="rational points per scan")
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("reports"))
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    for tag in (name for name, row in FAMILIES.items() if "logconvexity" in row.scans):
        for n in range(1, args.n_max + 1):
            t0 = time.perf_counter()
            rep = logconvexity_scan(FamilyId(tag).base_params(n), count=args.count)
            seconds = time.perf_counter() - t0
            doc = rep.to_json()
            with open(args.out / f"logconvexity_{tag}_n{n:02d}.json", "w") as out:
                _write_json(doc, out)
            neg = len(rep.violations)
            print(
                f"{tag:>9} n={n:3d}  min Q = {doc['min_margin']:>26} at x = {doc['argmin']}"
                f"  negatives: {neg}  scan: {seconds:.3f}s"
            )
    print(f"done in {time.monotonic() - start:.1f}s; reports in {args.out}/")


if __name__ == "__main__":
    main()
