#!/usr/bin/env python3
"""Cross-method agreement sweep.

Evaluates S by all three routes over a grid for a battery of (n, c) pairs
and prints the worst pairwise relative difference per pair, and how many
closed-form rows delegated to quadrature.  A quick way to see the three
implementations policing each other.
"""

import argparse
import time
from fractions import Fraction

from sqsums.core import Params
from sqsums.evalnum import Method, s_closed_grid, s_quad_grid, s_series_grid


def sweep(params: Params, points: int, cap: float) -> tuple[float, float, int]:
    sup = params.domain_sup
    hi = float(sup) if sup is not None else cap
    xs = [hi * i / (points - 1) for i in range(points)]
    routes = (s_series_grid(params, xs), s_closed_grid(params, xs), s_quad_grid(params, xs))
    worst = 0.0
    arg = 0.0
    delegated = sum(r.method is Method.QUADRATURE for r in routes[1] if not isinstance(r, Exception))
    for x, results in zip(xs, zip(*routes)):
        for r in results:
            if isinstance(r, Exception):
                raise r
        a, b, q = (r.value for r in results)
        scale = max(abs(a), abs(b), abs(q))
        d = max(abs(a - b), abs(a - q), abs(b - q)) / scale
        if d > worst:
            worst, arg = d, x
    return worst, arg, delegated


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=101)
    ap.add_argument("--cap", type=float, default=20.0, help="grid cap for unbounded domains")
    args = ap.parse_args()

    battery = [
        (Fraction(-1), [1, 2, 5, 10, 25]),
        (Fraction(-1, 2), [Fraction(l, 2) for l in (1, 2, 5, 10, 25)]),
        (Fraction(0), [1, 2, 5, 10, 25]),
        (Fraction(1), [1, 2, 5, 10, 25]),
        (Fraction(2), [1, 2, 5, 10, 25]),
        (Fraction(3), [1]),
    ]
    start = time.monotonic()
    overall = 0.0
    for c, ns in battery:
        for n in ns:
            worst, arg, delegated = sweep(Params(n, c), args.points, args.cap)
            overall = max(overall, worst)
            print(f"c={str(c):>5} n={str(n):>5}  worst rel diff {worst:.3e} at x={arg:.6g}  delegated {delegated}")
    print(f"overall worst: {overall:.3e}  ({time.monotonic() - start:.1f}s)")


if __name__ == "__main__":
    main()
