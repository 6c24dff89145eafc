#!/usr/bin/env python3
"""Cross-method agreement sweep.

Evaluates S by all three routes over a grid for a battery of (n, c) pairs
and prints, per pair, the worst pairwise relative difference among the
routes that finished, how many closed-form rows delegated to quadrature,
and how many points each route (series, closed form, quadrature) could not
finish.  A quick way to see the three implementations policing each other.

The near battery runs a uniform grid on [0, min(sup, cap)]; the far rows
run log-spaced x from 20 to 1e8 for c in {1/2, 1, 2} and n in {1, 2, 5},
the large arguments where a route may stop at a cap or overflow.
"""

import argparse
import time
from fractions import Fraction

from sqsums.core import Params
from sqsums.evalnum import Method, s_closed_grid, s_quad_grid, s_series_grid


def sweep(params: Params, xs: list[float]) -> tuple[float, float, int, list[int]]:
    """The worst pairwise relative difference and its x, the closed-form rows
    delegated to quadrature, and each route's count of unfinished points."""
    routes = (s_series_grid(params, xs), s_closed_grid(params, xs), s_quad_grid(params, xs))
    worst = 0.0
    arg = 0.0
    delegated = sum(r.method is Method.QUADRATURE for r in routes[1] if not isinstance(r, Exception))
    unfinished = [sum(isinstance(r, Exception) for r in route) for route in routes]
    for x, results in zip(xs, zip(*routes)):
        values = [r.value for r in results if not isinstance(r, Exception)]
        if len(values) < 2:
            continue
        scale = max(map(abs, values))
        d = (max(values) - min(values)) / scale
        if d > worst:
            worst, arg = d, x
    return worst, arg, delegated, unfinished


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
    far = [(Fraction(c), [1, 2, 5]) for c in ("1/2", "1", "2")]
    far_xs = [20.0 * (5e6) ** (i / (args.points - 1)) for i in range(args.points)]
    start = time.monotonic()
    overall = 0.0
    for label, pairs in (("", battery), ("far ", far)):
        for c, ns in pairs:
            for n in ns:
                params = Params(n, c)
                if label:
                    xs = far_xs
                else:
                    sup = params.domain_sup
                    hi = float(sup) if sup is not None else args.cap
                    xs = [hi * i / (args.points - 1) for i in range(args.points)]
                worst, arg, delegated, unfinished = sweep(params, xs)
                overall = max(overall, worst)
                print(
                    f"{label}c={str(c):>5} n={str(n):>5}  worst rel diff {worst:.3e} at x={arg:.6g}"
                    f"  delegated {delegated}  unfinished {' '.join(map(str, unfinished))}"
                )
    print(f"overall worst: {overall:.3e}  ({time.monotonic() - start:.1f}s)")

if __name__ == "__main__":
    main()
